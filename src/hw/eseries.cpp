#include "src/hw/eseries.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace micropnp {
namespace {

constexpr std::array<double, 12> kE12 = {1.0, 1.2, 1.5, 1.8, 2.2, 2.7,
                                         3.3, 3.9, 4.7, 5.6, 6.8, 8.2};

constexpr std::array<double, 24> kE24 = {1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0,
                                         2.2, 2.4, 2.7, 3.0, 3.3, 3.6, 3.9, 4.3,
                                         4.7, 5.1, 5.6, 6.2, 6.8, 7.5, 8.2, 9.1};

constexpr std::array<double, 48> kE48 = {
    1.00, 1.05, 1.10, 1.15, 1.21, 1.27, 1.33, 1.40, 1.47, 1.54, 1.62, 1.69,
    1.78, 1.87, 1.96, 2.05, 2.15, 2.26, 2.37, 2.49, 2.61, 2.74, 2.87, 3.01,
    3.16, 3.32, 3.48, 3.65, 3.83, 4.02, 4.22, 4.42, 4.64, 4.87, 5.11, 5.36,
    5.62, 5.90, 6.19, 6.49, 6.81, 7.15, 7.50, 7.87, 8.25, 8.66, 9.09, 9.53};

constexpr std::array<double, 96> kE96 = {
    1.00, 1.02, 1.05, 1.07, 1.10, 1.13, 1.15, 1.18, 1.21, 1.24, 1.27, 1.30,
    1.33, 1.37, 1.40, 1.43, 1.47, 1.50, 1.54, 1.58, 1.62, 1.65, 1.69, 1.74,
    1.78, 1.82, 1.87, 1.91, 1.96, 2.00, 2.05, 2.10, 2.15, 2.21, 2.26, 2.32,
    2.37, 2.43, 2.49, 2.55, 2.61, 2.67, 2.74, 2.80, 2.87, 2.94, 3.01, 3.09,
    3.16, 3.24, 3.32, 3.40, 3.48, 3.57, 3.65, 3.74, 3.83, 3.92, 4.02, 4.12,
    4.22, 4.32, 4.42, 4.53, 4.64, 4.75, 4.87, 4.99, 5.11, 5.23, 5.36, 5.49,
    5.62, 5.76, 5.90, 6.04, 6.19, 6.34, 6.49, 6.65, 6.81, 6.98, 7.15, 7.32,
    7.50, 7.68, 7.87, 8.06, 8.25, 8.45, 8.66, 8.87, 9.09, 9.31, 9.53, 9.76};

// The natural logarithms of a series' base values and of 10.0 (index 0 of
// the next decade).  Filled at run time by the same std::log calls a
// per-candidate search would make, so comparing against the table picks the
// same index bit for bit.
struct LogTable {
  std::array<double, kE96.size()> base{};  // the first ESeriesSize entries
  double ten = 0.0;
};

const LogTable& LogsOf(ESeries series) {
  static const std::array<LogTable, 4> tables = [] {
    std::array<LogTable, 4> out;
    for (ESeries s : {ESeries::kE12, ESeries::kE24, ESeries::kE48, ESeries::kE96}) {
      LogTable& table = out[static_cast<size_t>(s)];
      std::span<const double> base = ESeriesBaseValues(s);
      for (size_t i = 0; i < base.size(); ++i) {
        table.base[i] = std::log(base[i]);
      }
      table.ten = std::log(10.0);
    }
    return out;
  }();
  return tables[static_cast<size_t>(series)];
}

}  // namespace

std::span<const double> ESeriesBaseValues(ESeries series) {
  switch (series) {
    case ESeries::kE12:
      return kE12;
    case ESeries::kE24:
      return kE24;
    case ESeries::kE48:
      return kE48;
    case ESeries::kE96:
      return kE96;
  }
  return kE96;
}

int ESeriesSize(ESeries series) { return static_cast<int>(ESeriesBaseValues(series).size()); }

double ESeriesTolerance(ESeries series) {
  switch (series) {
    case ESeries::kE12:
      return 0.10;
    case ESeries::kE24:
      return 0.05;
    case ESeries::kE48:
      return 0.02;
    case ESeries::kE96:
      return 0.01;
  }
  return 0.01;
}

ESeriesPosition NearestPosition(ESeries series, Ohms ohms) {
  double value = ohms.value();
  if (value < 1.0) {
    value = 1.0;
  }
  if (value > 1e8) {
    value = 1e8;
  }
  const int decade = static_cast<int>(std::floor(std::log10(value)));
  const double log_mantissa = std::log(value / std::pow(10.0, decade));  // [1, 10)
  const LogTable& logs = LogsOf(series);
  // Nearest base value in log space; the first of equally near ones wins.
  const int n = ESeriesSize(series);
  int best_index = 0;
  double best_err = 1e9;
  for (int i = 0; i < n; ++i) {
    const double err = std::fabs(log_mantissa - logs.base[i]);
    if (err < best_err) {
      best_err = err;
      best_index = i;
    }
  }
  // The value 10.0 (index 0 of the next decade) may be closer than base[n-1].
  if (std::fabs(log_mantissa - logs.ten) < best_err) {
    return {decade + 1, 0};
  }
  return {decade, best_index};
}

Ohms ValueAt(ESeries series, ESeriesPosition from, int steps) {
  std::span<const double> base = ESeriesBaseValues(series);
  const int n = static_cast<int>(base.size());
  int decade = from.decade;
  int index = from.index + steps;
  // Normalize index into [0, n).
  while (index < 0) {
    index += n;
    decade -= 1;
  }
  while (index >= n) {
    index -= n;
    decade += 1;
  }
  return Ohms(base[index] * std::pow(10.0, decade));
}

Ohms NearestStandardValue(ESeries series, Ohms target) {
  return ValueAt(series, NearestPosition(series, target), 0);
}

Ohms LadderValue(ESeries series, Ohms first, int index) {
  return ValueAt(series, NearestPosition(series, first), index);
}

int LadderIndex(ESeries series, Ohms first, Ohms r) {
  const ESeriesPosition base = NearestPosition(series, first);
  const ESeriesPosition target = NearestPosition(series, r);
  return (target.decade - base.decade) * ESeriesSize(series) + (target.index - base.index);
}

}  // namespace micropnp
