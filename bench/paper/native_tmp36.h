// Native (platform-specific, C-style) TMP36 driver — the Table 3 comparator.
//
// This is what the paper's Section 2.2 describes as the state of practice:
// the driver author handles ADC registers, reference selection, resolution
// and the voltage conversion themselves, in platform code with floating
// point (which on the ATMega128RFA1 pulls in the software float library —
// the reason native ADC drivers are ~3 KB of flash in Table 3).

#ifndef BENCH_PAPER_NATIVE_TMP36_H_
#define BENCH_PAPER_NATIVE_TMP36_H_

#include <cstdint>

#include "src/bus/channel_bus.h"
#include "src/common/status.h"

namespace micropnp {

// Error codes in the classic C style.
enum NativeTmp36Error {
  TMP36_OK = 0,
  TMP36_ERR_NOT_INITIALIZED = -1,
  TMP36_ERR_ADC_BUSY = -2,
  TMP36_ERR_BAD_CHANNEL = -3,
  TMP36_ERR_RANGE = -4,
};

struct NativeTmp36State {
  ChannelBus* bus;
  uint8_t adc_channel;
  uint8_t resolution_bits;
  double vref;
  int initialized;
  int busy;
};

// Lifecycle mirrors the DSL driver's init/destroy.
int native_tmp36_init(NativeTmp36State* state, ChannelBus* bus, uint8_t adc_channel);
void native_tmp36_destroy(NativeTmp36State* state);

// Blocking read returning degrees Celsius.
int native_tmp36_read_celsius(NativeTmp36State* state, double* out_celsius);

// Raw conversion helper (exposed for unit tests).
double native_tmp36_code_to_celsius(uint16_t code, double vref, uint8_t resolution_bits);

}  // namespace micropnp

#endif  // BENCH_PAPER_NATIVE_TMP36_H_
