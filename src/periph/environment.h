// Physical environment model.
//
// The evaluation peripherals sense real-world quantities; this model supplies
// deterministic, smoothly varying temperature, humidity and barometric
// pressure signals (diurnal sinusoid + incommensurate-period ripple), so
// sensor readings are realistic yet exactly reproducible.

#ifndef SRC_PERIPH_ENVIRONMENT_H_
#define SRC_PERIPH_ENVIRONMENT_H_

#include "src/sim/clock.h"

namespace micropnp {

class Environment {
 public:
  double TemperatureC(SimTime now) const;
  double HumidityPct(SimTime now) const;  // clamped to [1, 99]
  double PressurePa(SimTime now) const;
};

}  // namespace micropnp

#endif  // SRC_PERIPH_ENVIRONMENT_H_
