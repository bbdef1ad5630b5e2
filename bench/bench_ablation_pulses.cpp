// Ablation A1 (Section 3 design rationale): four short pulses vs one long
// pulse, and robustness vs component tolerance.
//
// The paper: "To avoid the pulse length becoming too long, µPnP uses a
// series of 4 short pulses instead of one long pulse to identify each
// sensor.  This approach keeps the worst-case pulse length short, while
// accounting for the inherent inaccuracy of passive components."
//
// Part 1 quantifies the worst-case pulse budget of k-bits-per-pulse designs;
// part 2 sweeps resistor tolerance and reports identification reliability,
// locating the failure onset of the default E96 design.

#include <cmath>
#include <cstdio>

#include "src/hw/control_board.h"
#include "src/hw/id_codec.h"

namespace micropnp {
namespace {

void PulseBudget() {
  std::printf("=== A1a: worst-case pulse budget vs bits encoded per pulse ===\n");
  std::printf("(geometric level spacing 1.0243 = E96; base pulse 38.3 us)\n\n");
  std::printf("%8s %10s %18s %22s\n", "bits", "pulses", "levels/pulse", "worst-case total time");
  for (int bits_per_pulse : {1, 2, 4, 8, 16, 32}) {
    const int pulses = 32 / bits_per_pulse;
    const double worst_one = SinglePulseWorstCaseSeconds(38.3e-6, 1.0243, bits_per_pulse);
    const double total = worst_one * pulses;
    if (std::isinf(total)) {
      std::printf("%8d %10d %18.0f %22s\n", bits_per_pulse, pulses,
                  std::pow(2.0, bits_per_pulse), "infeasible (overflow)");
    } else if (total > 86400.0) {
      std::printf("%8d %10d %18.0f %19.1f days\n", bits_per_pulse, pulses,
                  std::pow(2.0, bits_per_pulse), total / 86400.0);
    } else if (total > 1.0) {
      std::printf("%8d %10d %18.0f %20.2f s\n", bits_per_pulse, pulses,
                  std::pow(2.0, bits_per_pulse), total);
    } else {
      std::printf("%8d %10d %18.0f %19.1f ms\n", bits_per_pulse, pulses,
                  std::pow(2.0, bits_per_pulse), total * 1e3);
    }
  }
  std::printf("\n-> 8 bits/pulse (the paper's four-pulse design) is the largest feasible choice.\n");
}

void ToleranceSweep() {
  std::printf("\n=== A1b: identification reliability vs resistor tolerance ===\n");
  std::printf("(2000 random ids per point; guard-band rejections trigger a safe rescan)\n\n");
  std::printf("%12s %12s %14s %12s\n", "tolerance", "correct", "guard-rescan", "WRONG id");
  for (double tol : {0.001, 0.0025, 0.005, 0.0075, 0.010, 0.015, 0.020}) {
    Rng rng(42);
    IdentCircuitConfig circuit;
    circuit.resistor_tolerance = tol;
    ControlBoard board(circuit, rng);
    int correct = 0, rescan = 0, wrong = 0;
    const int kTrials = 2000;
    for (int i = 0; i < kTrials; ++i) {
      const DeviceTypeId id = rng.NextU32();
      (void)board.Connect(0, MakePlugForId(board.codec(), id, BusKind::kAdc, rng));
      ScanResult scan = board.Scan();
      (void)board.Disconnect(0);
      if (!scan.channels[0].id.has_value()) {
        ++rescan;
      } else if (*scan.channels[0].id == id) {
        ++correct;
      } else {
        ++wrong;
      }
    }
    std::printf("%11.2f%% %11.1f%% %13.1f%% %11.2f%%\n", tol * 100.0, 100.0 * correct / kTrials,
                100.0 * rescan / kTrials, 100.0 * wrong / kTrials);
  }
  std::printf("\n-> 0.5%%-grade E96 parts (the default) decode reliably; ~1.5-2%% parts break\n");
  std::printf("   the E96-step spacing, matching the paper's Section 3 tolerance argument.\n");
}

}  // namespace
}  // namespace micropnp

int main() {
  micropnp::PulseBudget();
  micropnp::ToleranceSweep();
  return 0;
}
