// Table 3: "Development efforts and memory footprint of device drivers" —
// SLoC and bytes of the μPnP DSL drivers vs the native C variants, for the
// four prototype peripherals.
//
// Measured here:
//   * DSL SLoC        — counted from the real bundled .updl sources;
//   * DSL bytes       — real compiled bytecode (code) and full OTA image;
//   * native SLoC     — counted from the real native driver sources in
//                        bench/paper/ (compiled with the tests and benches);
//   * native bytes    — manifest: the paper's avr-gcc measurements (no AVR
//                        toolchain offline; see docs/BENCHMARKS.md,
//                        "Substitutions").
//
// Headline claims: "µPnP drivers contain 52% fewer source lines of code and
// have a 94% smaller memory footprint."

#include <cstdio>

#include "bench/paper/sloc.h"
#include "bench/paper/table3.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/periph/peripheral.h"

namespace micropnp {
namespace {

struct PaperRow {
  DeviceTypeId device;
  int dsl_sloc;
  int dsl_bytes;
  int native_sloc;
  int native_bytes;
};

constexpr PaperRow kPaper[] = {
    {kTmp36TypeId, 15, 30, 64, 2956},
    {kHih4030TypeId, 19, 55, 65, 3304},
    {kId20LaTypeId, 43, 150, 89, 592},
    {kBmp180TypeId, 122, 234, 193, 652},
};

const PaperRow* PaperFor(DeviceTypeId id) {
  for (const PaperRow& row : kPaper) {
    if (row.device == id) {
      return &row;
    }
  }
  return nullptr;
}

void Run() {
  std::printf("=== Table 3: DSL vs native driver development effort and footprint ===\n\n");
  std::printf("%-22s | %-21s | %-21s | %-23s\n", "", "SLoC (paper/measured)", "DSL bytes (paper/",
              "native bytes (paper=");
  std::printf("%-22s | %-10s %-10s | %-10s %-10s | %-11s %-11s\n", "driver", "DSL", "native",
              "code", "OTA image", "manifest)", "(float lib?)");

  double dsl_sloc_sum = 0, native_sloc_sum = 0, dsl_bytes_sum = 0, native_bytes_sum = 0;
  int rows = 0;

  for (const NativeDriverInfo& native : NativeDrivers()) {
    const BundledDriver* dsl = FindBundledDriver(native.device_id);
    const PaperRow* paper = PaperFor(native.device_id);
    if (dsl == nullptr || paper == nullptr) {
      continue;
    }
    Result<DriverImage> image = CompileDriver(dsl->source);
    if (!image.ok()) {
      std::printf("%s: COMPILE FAILED: %s\n", dsl->name, image.status().ToString().c_str());
      continue;
    }
    const int dsl_sloc = CountSloc(dsl->source, SlocLanguage::kMicroPnpDsl);
    const int native_sloc = CountSloc(native.source, SlocLanguage::kC);

    std::printf("%-22s | %3d/%-6d %3d/%-6d | %3d/%-6zu %4zu       | %5zu %13s\n", native.name,
                paper->dsl_sloc, dsl_sloc, paper->native_sloc, native_sloc, paper->dsl_bytes,
                image->CodeSize(), image->SerializedSize(), native.avr_flash_bytes,
                native.uses_software_float ? "yes" : "no");

    dsl_sloc_sum += dsl_sloc;
    native_sloc_sum += native_sloc;
    dsl_bytes_sum += static_cast<double>(image->CodeSize());
    native_bytes_sum += static_cast<double>(native.avr_flash_bytes);
    ++rows;
  }

  const double sloc_reduction = 100.0 * (1.0 - dsl_sloc_sum / native_sloc_sum);
  const double bytes_reduction = 100.0 * (1.0 - dsl_bytes_sum / native_bytes_sum);
  std::printf("\naverages over %d drivers:\n", rows);
  std::printf("  paper:    DSL 50 SLoC / 117 B   vs native 103 SLoC / 1876 B\n");
  std::printf("  measured: DSL %.0f SLoC / %.0f B   vs native %.0f SLoC / %.0f B\n",
              dsl_sloc_sum / rows, dsl_bytes_sum / rows, native_sloc_sum / rows,
              native_bytes_sum / rows);
  std::printf("  paper claim:    52%% fewer SLoC, 94%% smaller footprint\n");
  std::printf("  measured claim: %.0f%% fewer SLoC, %.0f%% smaller footprint  [%s]\n",
              sloc_reduction, bytes_reduction,
              (sloc_reduction > 30.0 && bytes_reduction > 80.0) ? "shape holds" : "VIOLATED");
}

}  // namespace
}  // namespace micropnp

int main() {
  micropnp::Run();
  return 0;
}
