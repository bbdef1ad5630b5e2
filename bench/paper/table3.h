// Table 3 baseline manifest: the native driver variants.
//
// SLoC is *measured* from the real native driver sources in this directory
// (embedded by CMake).  Flash bytes use a documented manifest: the paper's
// avr-gcc measurements for the same four drivers, since no AVR toolchain is
// available offline (see docs/BENCHMARKS.md, "Substitutions").  The
// float-using ADC drivers carry the AVR software floating point library,
// which is why they dwarf the integer-only UART/I2C drivers.

#ifndef BENCH_PAPER_TABLE3_H_
#define BENCH_PAPER_TABLE3_H_

#include <span>

#include "src/common/types.h"

namespace micropnp {

struct NativeDriverInfo {
  const char* name;           // "TMP36 (ADC)", matching Table 3 rows
  DeviceTypeId device_id;     // the μPnP peripheral this driver serves
  const char* source;         // full native C-style source (SLoC measured)
  size_t avr_flash_bytes;     // manifest: paper-measured avr-gcc flash
  bool uses_software_float;   // pulls in the soft-float library on AVR
};

// The four Table 3 rows, in the paper's order.
std::span<const NativeDriverInfo> NativeDrivers();

}  // namespace micropnp

#endif  // BENCH_PAPER_TABLE3_H_
