#include "bench/paper/native_tmp36.h"

namespace micropnp {

// ADC configuration values the driver author must know from the MCU
// datasheet (Section 2.2: "developers must understand how to use Analog to
// Digital Converter (ADC) registers and be aware of ADC resolution, supply
// voltage and reference voltage").
#define TMP36_ADC_PRESCALER 128
#define TMP36_ADC_REF_VDD 0
#define TMP36_ADC_RESOLUTION_BITS 10
#define TMP36_VREF_VOLTS 3.3
#define TMP36_MAX_ADC_CHANNEL 7

// TMP36 transfer function constants (sensor datasheet).
#define TMP36_OFFSET_VOLTS 0.5
#define TMP36_VOLTS_PER_DEGREE 0.01
#define TMP36_MIN_CELSIUS (-40.0)
#define TMP36_MAX_CELSIUS 125.0

int native_tmp36_init(NativeTmp36State* state, ChannelBus* bus, uint8_t adc_channel) {
  if (state == 0 || bus == 0) {
    return TMP36_ERR_NOT_INITIALIZED;
  }
  if (adc_channel > TMP36_MAX_ADC_CHANNEL) {
    return TMP36_ERR_BAD_CHANNEL;
  }
  if (!bus->IsSelected(BusKind::kAdc)) {
    return TMP36_ERR_BAD_CHANNEL;
  }
  // Program the ADC block: reference, resolution, prescaler.
  AdcConfig config;
  config.resolution_bits = TMP36_ADC_RESOLUTION_BITS;
  config.vref = Volts(TMP36_VREF_VOLTS);
  bus->adc().Configure(config);
  state->bus = bus;
  state->adc_channel = adc_channel;
  state->resolution_bits = TMP36_ADC_RESOLUTION_BITS;
  state->vref = TMP36_VREF_VOLTS;
  state->initialized = 1;
  state->busy = 0;
  return TMP36_OK;
}

void native_tmp36_destroy(NativeTmp36State* state) {
  if (state == 0) {
    return;
  }
  state->initialized = 0;
  state->busy = 0;
  state->bus = 0;
}

double native_tmp36_code_to_celsius(uint16_t code, double vref, uint8_t resolution_bits) {
  // Software floating point on the AVR: both operations below go through
  // the soft-float library.
  double full_scale = (double)((1u << resolution_bits) - 1);
  double volts = (double)code * vref / full_scale;
  return (volts - TMP36_OFFSET_VOLTS) / TMP36_VOLTS_PER_DEGREE;
}

int native_tmp36_read_celsius(NativeTmp36State* state, double* out_celsius) {
  if (state == 0 || state->initialized == 0) {
    return TMP36_ERR_NOT_INITIALIZED;
  }
  if (state->busy != 0) {
    return TMP36_ERR_ADC_BUSY;
  }
  state->busy = 1;
  Result<uint16_t> code = state->bus->adc().Sample();
  state->busy = 0;
  if (!code.ok()) {
    return TMP36_ERR_ADC_BUSY;
  }
  double celsius = native_tmp36_code_to_celsius(*code, state->vref, state->resolution_bits);
  if (celsius < TMP36_MIN_CELSIUS || celsius > TMP36_MAX_CELSIUS) {
    return TMP36_ERR_RANGE;
  }
  if (out_celsius != 0) {
    *out_celsius = celsius;
  }
  return TMP36_OK;
}

}  // namespace micropnp
