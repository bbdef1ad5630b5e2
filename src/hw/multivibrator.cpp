#include "src/hw/multivibrator.h"

#include <algorithm>

namespace micropnp {

double SampleToleranced(double nominal, double tol, Rng& rng) {
  if (tol <= 0.0) {
    return nominal;
  }
  double dev = rng.Gaussian(0.0, tol / 2.5);
  dev = std::clamp(dev, -tol, tol);
  return nominal * (1.0 + dev);
}

MonostableMultivibrator::MonostableMultivibrator(const MultivibratorSpec& spec, Rng& rng)
    : actual_k_(SampleToleranced(spec.k, spec.k_tolerance, rng)),
      actual_c_(Farads(SampleToleranced(spec.c.value(), spec.c_tolerance, rng))),
      calibration_error_(SampleToleranced(1.0, spec.calibration_tolerance, rng)) {}

Seconds MonostableMultivibrator::PulseFor(Ohms r) const {
  return PulseLength(actual_k_, r, actual_c_);
}

Seconds MonostableMultivibrator::CalibratedReference(Ohms r_ref) const {
  return PulseFor(r_ref) * calibration_error_;
}

}  // namespace micropnp
