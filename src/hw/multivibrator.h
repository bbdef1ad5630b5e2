// Monostable multivibrator model (Section 3, Figure 2).
//
// Triggered by a falling edge, a monostable multivibrator emits one pulse of
// length T = k * R * C.  The μPnP control board chains four of them so that
// each pulse triggers the next, producing the four intervals T1..T4 that
// encode a 32-bit device type identifier (Figure 3).
//
// Manufacturing variation: k and C are sampled once per multivibrator at
// construction ("manufacture") from truncated gaussians, then stay fixed —
// exactly how real parts behave.  A per-part calibration pulse measured at
// manufacture lets the decoder cancel most of that variation (ratiometric
// measurement), which is what makes 1 % resistors usable as 256-level
// symbols.

#ifndef SRC_HW_MULTIVIBRATOR_H_
#define SRC_HW_MULTIVIBRATOR_H_

#include "src/common/rng.h"
#include "src/common/units.h"

namespace micropnp {

struct MultivibratorSpec {
  // Monostable constant; 1.1 for the classic 555-style RC monostable.
  double k = 1.1;
  // Board-mounted timing capacitor (fixed per Section 3.1: "a set of
  // capacitors of fixed value are used on the control board").
  Farads c = NanoFarads(10.0);
  // Part-to-part manufacturing tolerances (relative, 1 sigma ~ tol/2.5).
  double k_tolerance = 0.0025;
  double c_tolerance = 0.005;
  // Accuracy of the one-off factory calibration of this multivibrator's
  // reference pulse (relative).
  double calibration_tolerance = 0.002;
};

class MonostableMultivibrator {
 public:
  // Samples the actual k and C for this physical part.
  MonostableMultivibrator(const MultivibratorSpec& spec, Rng& rng);

  // Pulse length for an attached resistance: T = k_actual * R * C_actual.
  Seconds PulseFor(Ohms r) const;

  // The factory-measured pulse for the reference resistor `r_ref`, including
  // the calibration error sampled at construction.  Decoders divide measured
  // pulses by this to cancel k and C variation.
  Seconds CalibratedReference(Ohms r_ref) const;

  double actual_k() const { return actual_k_; }
  Farads actual_c() const { return actual_c_; }

 private:
  double actual_k_;
  Farads actual_c_;
  double calibration_error_;  // multiplicative, ~1.0
};

// Samples a component value with relative tolerance `tol`: gaussian with
// sigma tol/2.5, truncated to +/- tol (parts outside spec are binned out by
// the manufacturer).
double SampleToleranced(double nominal, double tol, Rng& rng);

}  // namespace micropnp

#endif  // SRC_HW_MULTIVIBRATOR_H_
