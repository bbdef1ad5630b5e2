// Shared plumbing for the bench scenarios: one percentile rule, one JSON
// writer and one output-file writer.  Every BENCH_*.json has the layout
//
//   {"bench": NAME, "schema_version": V,
//    "deterministic": {"cells": [...]}, "wall_clock": {"cells": [...]}}
//
// with integers printed in full and reals with six decimals.  The
// deterministic half is compared byte for byte across runs and commits, so
// the format is part of the contract.

#ifndef BENCH_SCENARIOS_HARNESS_H_
#define BENCH_SCENARIOS_HARNESS_H_

#include <string>
#include <vector>

namespace micropnp {

// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted sample; 0 for
// an empty one.
double Percentile(const std::vector<double>& sorted, double p);

// One flat JSON object, built field by field: {"key": value, ...}.
// std::to_string prints integers in full and reals as "%f".
class JsonCell {
 public:
  template <typename Number>
  JsonCell& Field(const char* key, Number value) {
    body_ += (body_.size() > 1 ? ", \"" : "\"") + std::string(key) + "\": ";
    body_ += std::to_string(value);
    return *this;
  }
  std::string Close() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

// {"cells": [cell(results[0]), cell(results[1]), ...]}
template <typename Result, typename CellFn>
std::string CellsJson(const std::vector<Result>& results, CellFn cell) {
  std::string out = "{\"cells\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    out += (i == 0 ? "" : ", ") + cell(results[i]);
  }
  return out + "]}";
}

// The document around a deterministic and a wall-clock CellsJson.
std::string BenchJson(const char* bench, int schema_version, const std::string& deterministic,
                      const std::string& wall_clock);

// Writes `json` and a trailing newline to `path` and reports it on stdout;
// false when the file cannot be opened.
bool WriteJsonFile(const std::string& path, const std::string& json);

}  // namespace micropnp

#endif  // BENCH_SCENARIOS_HARNESS_H_
