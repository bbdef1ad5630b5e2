#include "src/periph/environment.h"

#include <algorithm>
#include <cmath>

namespace micropnp {
namespace {

constexpr double kTwoPi = 6.283185307179586;
constexpr double kDaySeconds = 86400.0;

constexpr double kBaseTemperatureC = 15.0;
constexpr double kDiurnalTemperatureAmplitudeC = 8.0;
constexpr double kTemperatureRippleC = 0.3;

constexpr double kBaseHumidityPct = 55.0;
constexpr double kDiurnalHumidityAmplitudePct = 12.0;
constexpr double kHumidityRipplePct = 1.0;

constexpr double kBasePressurePa = 101325.0;
constexpr double kPressureSwingPa = 600.0;  // synoptic-scale variation
constexpr double kPressureRipplePa = 30.0;

// Phase offset of the diurnal and synoptic cycles.
constexpr double kPhase = 0.0;

// Smooth deterministic ripple: two incommensurate sinusoids.
double Ripple(double t, double phase) {
  return 0.6 * std::sin(kTwoPi * t / 313.7 + phase) + 0.4 * std::sin(kTwoPi * t / 47.3 + 2.1 * phase);
}

}  // namespace

double Environment::TemperatureC(SimTime now) const {
  const double t = now.seconds();
  const double diurnal =
      std::sin(kTwoPi * t / kDaySeconds + kPhase - kTwoPi / 4.0);  // coldest at t=0
  return kBaseTemperatureC + kDiurnalTemperatureAmplitudeC * diurnal +
         kTemperatureRippleC * Ripple(t, kPhase);
}

double Environment::HumidityPct(SimTime now) const {
  const double t = now.seconds();
  // Humidity runs inverse to temperature over the day.
  const double diurnal = -std::sin(kTwoPi * t / kDaySeconds + kPhase - kTwoPi / 4.0);
  const double h = kBaseHumidityPct + kDiurnalHumidityAmplitudePct * diurnal +
                   kHumidityRipplePct * Ripple(t, kPhase + 1.0);
  return std::clamp(h, 1.0, 99.0);
}

double Environment::PressurePa(SimTime now) const {
  const double t = now.seconds();
  const double synoptic = std::sin(kTwoPi * t / (3.5 * kDaySeconds) + kPhase);
  return kBasePressurePa + kPressureSwingPa * synoptic +
         kPressureRipplePa * Ripple(t, kPhase + 2.0);
}

}  // namespace micropnp
