#include "src/hw/id_codec.h"

#include <cmath>
#include <limits>

namespace micropnp {

IdentCodec::IdentCodec(const IdentCircuitConfig& config) : config_(config) {
  level_ratio_ = std::pow(10.0, 1.0 / ESeriesSize(config.series));
}

Ohms IdentCodec::ResistorForByte(uint8_t b) const {
  return LadderValue(config_.series, config_.base_resistor, b);
}

std::array<Ohms, 4> IdentCodec::ResistorsForId(DeviceTypeId id) const {
  const ESeriesPosition base = NearestPosition(config_.series, config_.base_resistor);
  std::array<Ohms, 4> out;
  for (int i = 0; i < 4; ++i) {
    out[i] = ValueAt(config_.series, base, DeviceTypeByte(id, i));
  }
  return out;
}

std::optional<uint8_t> IdentCodec::ByteForResistor(Ohms r) const {
  const int index = LadderIndex(config_.series, config_.base_resistor, r);
  if (index < 0 || index > 255) {
    return std::nullopt;
  }
  return static_cast<uint8_t>(index);
}

Seconds IdentCodec::Quantize(Seconds t) const {
  const double tick = config_.measurement_tick.value();
  if (tick <= 0.0) {
    return t;
  }
  return Seconds(std::round(t.value() / tick) * tick);
}

std::optional<uint8_t> IdentCodec::DecodePulse(Seconds measured, Seconds reference) const {
  if (measured.value() <= 0.0 || reference.value() <= 0.0) {
    return std::nullopt;
  }
  const double ratio = measured.value() / reference.value();
  const double index_f = std::log(ratio) / std::log(level_ratio_);
  const double index_rounded = std::round(index_f);
  // Guard band: reject pulses landing close to a bin boundary; the scan
  // retries, which beats silently mis-identifying the peripheral.
  if (std::fabs(index_f - index_rounded) > 0.47) {
    return std::nullopt;
  }
  if (index_rounded < -0.5 || index_rounded > 255.5) {
    return std::nullopt;
  }
  return static_cast<uint8_t>(index_rounded);
}

Seconds IdentCodec::NominalPulseForByte(uint8_t b) const {
  return PulseLength(config_.vib.k, ResistorForByte(b), config_.vib.c);
}

double SinglePulseWorstCaseSeconds(double base_pulse_seconds, double level_ratio, int bits) {
  // levels = 2^bits; worst-case pulse = base * ratio^(levels - 1).
  const double levels = std::pow(2.0, bits);
  const double log_span = (levels - 1.0) * std::log(level_ratio);
  if (log_span > 700.0) {  // e^700 ~ double overflow
    return std::numeric_limits<double>::infinity();
  }
  return base_pulse_seconds * std::exp(log_span);
}

}  // namespace micropnp
