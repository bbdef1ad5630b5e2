// IEC 60063 preferred number series for resistors (E12/E24/E48/E96).
//
// μPnP peripheral identifiers are encoded with four off-the-shelf resistors
// (Section 3.1: "resistors are more precise and cost much less than
// capacitors").  The resistor-set designer picks the nearest standard E96
// (1 %) value for each identification byte.
//
// A lookup takes the target's logarithm once and compares it with a table of
// the series' base-value logarithms (filled by the same std::log calls on
// first use), so a decomposition costs one log10, one log and one pow.  A
// caller that needs several rungs above one base decomposes it once with
// NearestPosition and steps with ValueAt: IdentCodec designs a plug's four
// resistors that way.

#ifndef SRC_HW_ESERIES_H_
#define SRC_HW_ESERIES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/units.h"

namespace micropnp {

enum class ESeries {
  kE12,  // 10 % tolerance values
  kE24,  // 5 %
  kE48,  // 2 %
  kE96,  // 1 %
};

// The per-decade base values of the series (e.g. 96 entries in [1.0, 10.0)
// for E96).
std::span<const double> ESeriesBaseValues(ESeries series);

// Number of values per decade.
int ESeriesSize(ESeries series);

// Nominal manufacturing tolerance associated with the series (e.g. 0.01 for
// E96).
double ESeriesTolerance(ESeries series);

// A standard value's place in its series: base value `index` of decade
// `decade`, i.e. ESeriesBaseValues(series)[index] * 10^decade.
struct ESeriesPosition {
  int decade = 0;
  int index = 0;
};

// The position of the standard value nearest (in log space) to `ohms`,
// clamped like NearestStandardValue.
ESeriesPosition NearestPosition(ESeries series, Ohms ohms);

// The value `steps` series values above `from` (below when negative), across
// decades: LadderValue(series, first, i) is
// ValueAt(series, NearestPosition(series, first), i).
Ohms ValueAt(ESeries series, ESeriesPosition from, int steps);

// Returns the standard value closest (in log space, as is conventional) to
// `target`.  Supports targets in [1 Ω, 100 MΩ); values outside are clamped.
Ohms NearestStandardValue(ESeries series, Ohms target);

// Returns the `index`-th value of a geometric ladder built from consecutive
// series values starting at `first` (index 0 == nearest standard value to
// `first`).  This is how μPnP's 256 identification levels map onto real
// parts: level b is simply the b-th E96 value above the base resistor.
Ohms LadderValue(ESeries series, Ohms first, int index);

// Inverse of LadderValue: the ladder index whose value is nearest to `r`.
int LadderIndex(ESeries series, Ohms first, Ohms r);

}  // namespace micropnp

#endif  // SRC_HW_ESERIES_H_
