// Section 6.1 (hardware energy analysis, prose results):
//   "For each identification process, the time required varies between
//    220 ms and 300 ms.  The energy consumption therefore has a minimum
//    value of 2.48e-3 J and a maximum value of 6.756e-3 J."
//
// Reproduces the identification timing/energy windows by simulating many
// random device ids on the modeled control board, plus the two extreme ids.

#include <cstdio>

#include "bench/paper/energy_model.h"
#include "src/hw/control_board.h"

namespace micropnp {
namespace {

void Run() {
  std::printf("=== Section 6.1: identification time and energy ===\n\n");

  const int kSamples = 5000;
  IdentStats stats = SampleIdentification(kSamples, /*seed=*/20150421);

  std::printf("%-28s %14s %14s\n", "metric", "paper", "measured");
  std::printf("%-28s %14s %11.1f ms\n", "min identification time", "220 ms",
              stats.min_duration.value() * 1e3);
  std::printf("%-28s %14s %11.1f ms\n", "max identification time", "300 ms",
              stats.max_duration.value() * 1e3);
  std::printf("%-28s %14s %11.2f mJ\n", "min identification energy", "2.48 mJ",
              stats.min_energy.value() * 1e3);
  std::printf("%-28s %14s %11.2f mJ\n", "max identification energy", "6.756 mJ",
              stats.max_energy.value() * 1e3);
  std::printf("%-28s %14s %11.2f mJ\n", "mean identification energy", "-",
              stats.mean_energy.value() * 1e3);
  std::printf("\nreliability over %d random ids: %d wrong, %d guard-band rescans\n", kSamples,
              stats.decode_errors, stats.decode_failures);

  // Extreme ids with ideal components bound the window.
  Rng rng(5);
  IdentCircuitConfig circuit;
  circuit.resistor_tolerance = 0.0;
  circuit.vib.k_tolerance = 0.0;
  circuit.vib.c_tolerance = 0.0;
  circuit.vib.calibration_tolerance = 0.0;
  ControlBoard board(circuit, rng);

  std::printf("\nextreme identifiers (nominal components):\n");
  for (DeviceTypeId id : {DeviceTypeId{0x00000000}, DeviceTypeId{0xffffffff}}) {
    (void)board.Connect(0, MakePlugForId(board.codec(), id, BusKind::kAdc, rng));
    ScanResult scan = board.Scan();
    (void)board.Disconnect(0);
    std::printf("  id=0x%08x  time=%6.1f ms  energy=%5.2f mJ\n", id, scan.duration.value() * 1e3,
                scan.energy.value() * 1e3);
  }
}

}  // namespace
}  // namespace micropnp

int main() {
  micropnp::Run();
  return 0;
}
