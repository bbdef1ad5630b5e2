#include "bench/scenarios/harness.h"

#include <algorithm>
#include <cstdio>

namespace micropnp {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string BenchJson(const char* bench, int schema_version, const std::string& deterministic,
                      const std::string& wall_clock) {
  return "{\"bench\": \"" + std::string(bench) +
         "\", \"schema_version\": " + std::to_string(schema_version) +
         ", \"deterministic\": " + deterministic + ", \"wall_clock\": " + wall_clock + "}";
}

bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("!! could not write %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace micropnp
