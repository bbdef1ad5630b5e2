// Identification byte <-> resistor <-> pulse codec (Sections 3.1, 3.3).
//
// Each identification byte b in [0, 255] is represented by the b-th value of
// the E96 resistor ladder above a base resistor.  Because E-series values are
// geometric (ratio 10^(1/96) ~ 1.0243 for E96), pulse lengths form a
// geometric ladder too, and decoding reduces to a rounded log-ratio against a
// calibrated reference pulse.  This is the quantitative core of the paper's
// Section 3 argument: with parts of relative tolerance eps, discrete symbol
// levels must be geometrically spaced, so the component span (and worst-case
// pulse time) grows exponentially with the number of bits per pulse — which
// is why μPnP uses four 8-bit pulses instead of one 32-bit pulse.

#ifndef SRC_HW_ID_CODEC_H_
#define SRC_HW_ID_CODEC_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/hw/eseries.h"
#include "src/hw/multivibrator.h"

namespace micropnp {

struct IdentCircuitConfig {
  ESeries series = ESeries::kE96;
  // Resistor encoding byte 0.  3.48 kOhm is an exact E96 value; with
  // k = 1.1 and C = 10 nF this puts the shortest pulse at ~38.3 us and the
  // longest (byte 255) at ~17.6 ms, so a full 4-pulse identifier fits in a
  // 74 ms channel slot.
  Ohms base_resistor = Ohms(3480.0);
  // Factory precision of the board's reference resistor.
  double reference_tolerance = 0.001;
  // Tolerance of the four ID resistors on the peripheral.  E96 values are
  // stocked in 1 %, 0.5 % and 0.1 % grades; the 0.5 % grade keeps the
  // worst-case decode error (resistor + calibration + timer quantization)
  // inside the guard band with margin.  The pulse-count ablation sweeps this
  // parameter to locate the failure onset (~1 %), which quantifies the
  // paper's Section 3 robustness argument.
  double resistor_tolerance = 0.005;
  // Timer input-capture resolution of the measuring MCU (16 MHz -> 62.5 ns).
  Seconds measurement_tick = Seconds(62.5e-9);
  MultivibratorSpec vib;
};

// The "simple online tool" of Section 3.3: generates the resistor set that
// encodes an assigned device identifier, and decodes pulses back to bytes.
class IdentCodec {
 public:
  explicit IdentCodec(const IdentCircuitConfig& config);

  // Nominal resistor value for identification byte `b`.
  Ohms ResistorForByte(uint8_t b) const;

  // The four nominal resistors (R1..R4, Figure 4) for a device type id.
  // Every Plug() designs a set, so the base resistor's place on the ladder
  // is looked up once per call and each byte costs one step up from it.
  // The codec caches nothing: building one (once per Thing) stays free.
  std::array<Ohms, 4> ResistorsForId(DeviceTypeId id) const;

  // Inverse of ResistorForByte (nearest ladder value); nullopt if `r` is
  // outside the 256-level ladder.
  std::optional<uint8_t> ByteForResistor(Ohms r) const;

  // Decodes a measured pulse against a calibrated reference pulse (the pulse
  // the same multivibrator produces for the base resistor).  Returns nullopt
  // when the pulse falls outside the ladder or beyond guard distance.
  std::optional<uint8_t> DecodePulse(Seconds measured, Seconds reference) const;

  // Quantizes a physical pulse to the measuring timer's resolution.
  Seconds Quantize(Seconds t) const;

  // Geometric ratio between adjacent levels (10^(1/96) for E96).
  double level_ratio() const { return level_ratio_; }

  // Nominal pulse for byte b (with nominal k and C): the design target.
  Seconds NominalPulseForByte(uint8_t b) const;

  const IdentCircuitConfig& config() const { return config_; }

 private:
  IdentCircuitConfig config_;
  double level_ratio_;
};

// Worst-case analysis used by the pulse-count ablation (Figure 3 rationale):
// encoding `bits` bits in a single pulse with symbol levels geometrically
// spaced by `level_ratio` requires a component span of level_ratio^(2^bits).
// Returns the worst-case pulse length given the base pulse, or infinity if
// the span overflows a double.
double SinglePulseWorstCaseSeconds(double base_pulse_seconds, double level_ratio, int bits);

}  // namespace micropnp

#endif  // SRC_HW_ID_CODEC_H_
