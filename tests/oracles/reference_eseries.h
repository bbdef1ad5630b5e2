// The seed's E-series lookups, kept as a test oracle.
//
// The reference decomposition searches a decade for the nearest base value
// by taking both logarithms afresh for every candidate, straight from the
// definition of "nearest in log space".  The production lookups
// (src/hw/eseries.h) take the target's logarithm once and compare it with a
// table of the base values' logarithms; the hardware tests hold the two to
// the same doubles, bit for bit.

#ifndef TESTS_ORACLES_REFERENCE_ESERIES_H_
#define TESTS_ORACLES_REFERENCE_ESERIES_H_

#include "src/common/units.h"
#include "src/hw/eseries.h"

namespace micropnp {

Ohms ReferenceNearestStandardValue(ESeries series, Ohms target);
Ohms ReferenceLadderValue(ESeries series, Ohms first, int index);
int ReferenceLadderIndex(ESeries series, Ohms first, Ohms r);

}  // namespace micropnp

#endif  // TESTS_ORACLES_REFERENCE_ESERIES_H_
