#include "bench/paper/native_hih4030.h"

namespace micropnp {

#define HIH4030_ADC_RESOLUTION_BITS 10
#define HIH4030_SUPPLY_VOLTS 3.3
#define HIH4030_MAX_ADC_CHANNEL 7

// Transfer function constants (sensor datasheet): Vout = Vs(0.0062*RH+0.16).
#define HIH4030_SLOPE 0.0062
#define HIH4030_OFFSET 0.16
// First-order temperature compensation: RH = RH_raw / (1.0546 - 0.00216*T).
#define HIH4030_COMP_A 1.0546
#define HIH4030_COMP_B 0.00216

int native_hih4030_init(NativeHih4030State* state, ChannelBus* bus, uint8_t adc_channel) {
  if (state == 0 || bus == 0) {
    return HIH4030_ERR_NOT_INITIALIZED;
  }
  if (adc_channel > HIH4030_MAX_ADC_CHANNEL) {
    return HIH4030_ERR_BAD_CHANNEL;
  }
  if (!bus->IsSelected(BusKind::kAdc)) {
    return HIH4030_ERR_BAD_CHANNEL;
  }
  AdcConfig config;
  config.resolution_bits = HIH4030_ADC_RESOLUTION_BITS;
  config.vref = Volts(HIH4030_SUPPLY_VOLTS);
  bus->adc().Configure(config);
  state->bus = bus;
  state->adc_channel = adc_channel;
  state->supply_volts = HIH4030_SUPPLY_VOLTS;
  state->initialized = 1;
  state->busy = 0;
  return HIH4030_OK;
}

void native_hih4030_destroy(NativeHih4030State* state) {
  if (state == 0) {
    return;
  }
  state->initialized = 0;
  state->busy = 0;
  state->bus = 0;
}

double native_hih4030_volts_to_rh(double volts, double supply_volts) {
  return (volts / supply_volts - HIH4030_OFFSET) / HIH4030_SLOPE;
}

int native_hih4030_read_rh(NativeHih4030State* state, double* out_rh_pct) {
  if (state == 0 || state->initialized == 0) {
    return HIH4030_ERR_NOT_INITIALIZED;
  }
  if (state->busy != 0) {
    return HIH4030_ERR_ADC_BUSY;
  }
  state->busy = 1;
  Result<uint16_t> code = state->bus->adc().Sample();
  state->busy = 0;
  if (!code.ok()) {
    return HIH4030_ERR_ADC_BUSY;
  }
  double full_scale = (double)((1u << HIH4030_ADC_RESOLUTION_BITS) - 1);
  double volts = (double)*code * state->supply_volts / full_scale;
  double rh = native_hih4030_volts_to_rh(volts, state->supply_volts);
  if (rh < 0.0 || rh > 100.0) {
    return HIH4030_ERR_RANGE;
  }
  if (out_rh_pct != 0) {
    *out_rh_pct = rh;
  }
  return HIH4030_OK;
}

int native_hih4030_read_rh_compensated(NativeHih4030State* state, double ambient_celsius,
                                       double* out_rh_pct) {
  double raw = 0.0;
  int rc = native_hih4030_read_rh(state, &raw);
  if (rc != HIH4030_OK) {
    return rc;
  }
  double compensated = raw / (HIH4030_COMP_A - HIH4030_COMP_B * ambient_celsius);
  if (out_rh_pct != 0) {
    *out_rh_pct = compensated;
  }
  return HIH4030_OK;
}

}  // namespace micropnp
