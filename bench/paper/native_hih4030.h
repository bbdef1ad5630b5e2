// Native (platform-specific, C-style) HIH-4030 driver — Table 3 comparator.
//
// Same shape as the native TMP36 driver: explicit ADC handling plus the
// sensor's ratiometric transfer function and first-order temperature
// compensation, all in software floating point.

#ifndef BENCH_PAPER_NATIVE_HIH4030_H_
#define BENCH_PAPER_NATIVE_HIH4030_H_

#include <cstdint>

#include "src/bus/channel_bus.h"
#include "src/common/status.h"

namespace micropnp {

enum NativeHih4030Error {
  HIH4030_OK = 0,
  HIH4030_ERR_NOT_INITIALIZED = -1,
  HIH4030_ERR_ADC_BUSY = -2,
  HIH4030_ERR_BAD_CHANNEL = -3,
  HIH4030_ERR_RANGE = -4,
};

struct NativeHih4030State {
  ChannelBus* bus;
  uint8_t adc_channel;
  double supply_volts;
  int initialized;
  int busy;
};

int native_hih4030_init(NativeHih4030State* state, ChannelBus* bus, uint8_t adc_channel);
void native_hih4030_destroy(NativeHih4030State* state);

// Blocking read of relative humidity in percent (uncompensated).
int native_hih4030_read_rh(NativeHih4030State* state, double* out_rh_pct);
// Temperature-compensated variant (caller supplies ambient temperature).
int native_hih4030_read_rh_compensated(NativeHih4030State* state, double ambient_celsius,
                                       double* out_rh_pct);

double native_hih4030_volts_to_rh(double volts, double supply_volts);

}  // namespace micropnp

#endif  // BENCH_PAPER_NATIVE_HIH4030_H_
