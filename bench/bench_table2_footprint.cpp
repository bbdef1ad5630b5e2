// Table 2: "Detailed breakdown of µPnP's memory footprint" — flash and RAM
// of each software stack component on the ATMega128RFA1 (128 KB flash,
// 16 KB RAM), absolute and as a percentage of the platform.
//
// Measured values come from the footprint model in bench/paper/footprint.cpp:
// real dimensioning of this implementation (opcode count, queue depths,
// buffer sizes) with documented per-unit AVR code-size constants (see
// docs/BENCHMARKS.md, "Substitutions").

#include <cstdio>

#include "bench/paper/footprint.h"

namespace micropnp {
namespace {

struct PaperRow {
  const char* component;
  size_t flash;
  size_t ram;
};

constexpr PaperRow kPaper[] = {
    {"Peripheral Controller", 2243, 465}, {"uPnP Virtual Machine", 7028, 450},
    {"ADC Native Library", 2034, 268},    {"UART Native Library", 466, 15},
    {"I2C Native Library", 436, 18},      {"uPnP Network Stack", 2024, 302},
};

void Run() {
  std::printf("=== Table 2: uPnP software stack memory footprint ===\n\n");
  std::printf("%-24s | %21s | %21s\n", "", "Flash (bytes, %)", "RAM (bytes, %)");
  std::printf("%-24s | %10s %10s | %10s %10s\n", "component", "paper", "measured", "paper",
              "measured");

  std::vector<FootprintEntry> rows = EmbeddedFootprint();
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-24s | %10zu %6zu(%.1f%%) | %10zu %5zu(%.1f%%)\n", rows[i].component.c_str(),
                kPaper[i].flash, rows[i].flash_bytes, rows[i].flash_pct(), kPaper[i].ram,
                rows[i].ram_bytes, rows[i].ram_pct());
  }
  FootprintEntry total = EmbeddedFootprintTotal();
  std::printf("%-24s | %10d %6zu(%.1f%%) | %10d %5zu(%.1f%%)\n", "Total", 14231,
              total.flash_bytes, total.flash_pct(), 1518, total.ram_bytes, total.ram_pct());
  std::printf("\npaper total: 14231 B flash (10.8%%), 1518 B RAM (9.2%%)\n");
}

}  // namespace
}  // namespace micropnp

int main() {
  micropnp::Run();
  return 0;
}
