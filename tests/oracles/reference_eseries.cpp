#include "tests/oracles/reference_eseries.h"

#include <cmath>
#include <span>

namespace micropnp {
namespace {

// Decomposes a positive resistance into (decade exponent, index of nearest
// base value within the decade), measured in log space.
struct Decomposed {
  int decade;
  int index;
};

Decomposed Decompose(ESeries series, double ohms) {
  std::span<const double> base = ESeriesBaseValues(series);
  const int n = static_cast<int>(base.size());
  if (ohms < 1.0) {
    ohms = 1.0;
  }
  if (ohms > 1e8) {
    ohms = 1e8;
  }
  double lg = std::log10(ohms);
  int decade = static_cast<int>(std::floor(lg));
  double mantissa = ohms / std::pow(10.0, decade);  // [1, 10)
  // Nearest base value in log space; check neighbours across decade edges.
  int best_index = 0;
  double best_err = 1e9;
  for (int i = 0; i < n; ++i) {
    double err = std::fabs(std::log(mantissa) - std::log(base[i]));
    if (err < best_err) {
      best_err = err;
      best_index = i;
    }
  }
  // The value 10.0 (index 0 of the next decade) may be closer than base[n-1].
  double err_up = std::fabs(std::log(mantissa) - std::log(10.0));
  if (err_up < best_err) {
    return {decade + 1, 0};
  }
  return {decade, best_index};
}

double ValueAt(ESeries series, Decomposed d) {
  std::span<const double> base = ESeriesBaseValues(series);
  const int n = static_cast<int>(base.size());
  // Normalize index into [0, n).
  while (d.index < 0) {
    d.index += n;
    d.decade -= 1;
  }
  while (d.index >= n) {
    d.index -= n;
    d.decade += 1;
  }
  return base[d.index] * std::pow(10.0, d.decade);
}

}  // namespace

Ohms ReferenceNearestStandardValue(ESeries series, Ohms target) {
  return Ohms(ValueAt(series, Decompose(series, target.value())));
}

Ohms ReferenceLadderValue(ESeries series, Ohms first, int index) {
  Decomposed d = Decompose(series, first.value());
  d.index += index;
  return Ohms(ValueAt(series, d));
}

int ReferenceLadderIndex(ESeries series, Ohms first, Ohms r) {
  const int n = ESeriesSize(series);
  Decomposed base = Decompose(series, first.value());
  Decomposed target = Decompose(series, r.value());
  return (target.decade - base.decade) * n + (target.index - base.index);
}

}  // namespace micropnp
