#include "bench/paper/energy_model.h"

#include <algorithm>

#include "src/common/rng.h"
#include "src/hw/control_board.h"

namespace micropnp {

Joules InterconnectEnergyPerOperation(BusKind bus) {
  switch (bus) {
    case BusKind::kAdc:
      // One 10-bit conversion: ~13 ADC clocks at 125 kHz (104 us) with the
      // ADC block drawing ~0.3 mA at 3.3 V.
      return Joules(0.10e-6);
    case BusKind::kSpi:
      // 4-byte burst at 1 MHz (~32 us) with ~1.5 mA bus drive.
      return Joules(0.16e-6);
    case BusKind::kI2c:
      // 4-byte register read at 100 kHz (~0.5 ms transaction) with pull-ups
      // and MCU awake (~1.2 mA).
      return Joules(2.0e-6);
    case BusKind::kUart:
      // A 16-byte ID-20LA-style frame at 9600 baud (~16.7 ms) with the MCU
      // receiving (~0.8 mA).
      return Joules(44.0e-6);
  }
  return Joules(0.0);
}

IdentStats SampleIdentification(int samples, uint64_t seed) {
  IdentStats stats;
  stats.samples = samples;
  stats.min_duration = Seconds(1e9);
  stats.min_energy = Joules(1e9);
  double sum_duration = 0.0;
  double sum_energy = 0.0;

  Rng rng(seed);
  ControlBoard board(IdentCircuitConfig{}, rng);

  for (int i = 0; i < samples; ++i) {
    const DeviceTypeId id = rng.NextU32();
    PeripheralPlug plug = MakePlugForId(board.codec(), id, BusKind::kAdc, rng);
    // Paper setup: one peripheral on an otherwise empty 3-channel board.
    if (!board.Connect(0, plug).ok()) {
      continue;
    }
    ScanResult scan = board.Scan();
    (void)board.Disconnect(0);

    const ChannelScan& ch = scan.channels[0];
    if (!ch.id.has_value()) {
      ++stats.decode_failures;
    } else if (*ch.id != id) {
      ++stats.decode_errors;
    }

    stats.min_duration = std::min(stats.min_duration, scan.duration);
    stats.max_duration = std::max(stats.max_duration, scan.duration);
    stats.min_energy = std::min(stats.min_energy, scan.energy);
    stats.max_energy = std::max(stats.max_energy, scan.energy);
    sum_duration += scan.duration.value();
    sum_energy += scan.energy.value();
  }
  if (samples > 0) {
    stats.mean_duration = Seconds(sum_duration / samples);
    stats.mean_energy = Joules(sum_energy / samples);
  }
  return stats;
}

Joules UsbHostBaseline::YearlyEnergy(double changes_per_year, double comms_per_year) const {
  return Joules(idle_power().value() * kSecondsPerYear +
                energy_per_enumeration.value() * changes_per_year +
                energy_per_transfer.value() * comms_per_year);
}

YearlyEnergyPoint ComputeYearlyEnergy(double change_interval_minutes, double comm_period_seconds,
                                      BusKind bus, const IdentStats& ident,
                                      const UsbHostBaseline& usb) {
  YearlyEnergyPoint point;
  point.change_interval_minutes = change_interval_minutes;

  const double changes_per_year = kMinutesPerYear / change_interval_minutes;
  const double comms_per_year = kSecondsPerYear / comm_period_seconds;
  const double comm_energy = InterconnectEnergyPerOperation(bus).value() * comms_per_year;

  point.usb = usb.YearlyEnergy(changes_per_year, comms_per_year);
  point.upnp_mean = Joules(ident.mean_energy.value() * changes_per_year + comm_energy);
  point.upnp_min = Joules(ident.min_energy.value() * changes_per_year + comm_energy);
  point.upnp_max = Joules(ident.max_energy.value() * changes_per_year + comm_energy);
  return point;
}

}  // namespace micropnp
