// Energy models behind the Section 6.1 evaluation (Figure 12).
//
// The paper simulates a one-year deployment: peripherals communicate once
// every ten seconds over their native interconnect, and are plugged/unplugged
// at a configurable rate.  μPnP's board is power-gated, so its yearly energy
// is (identifications per year) x (energy per identification) plus the
// interconnect's per-communication energy.  The USB host baseline idles
// continuously at the host controller's minimum idle power.
//
// Interconnect per-operation energies are documented engineering estimates
// for the evaluation peripherals (ADC sample; I2C register read; UART frame
// at 9600 baud; SPI burst) on a 3.3 V system.  Their ordering
// (UART > I2C > SPI > ADC) produces the Figure 12 divergence of the μPnP
// curves at low change rates, where interconnect energy dominates.

#ifndef BENCH_PAPER_ENERGY_MODEL_H_
#define BENCH_PAPER_ENERGY_MODEL_H_

#include <cstdint>

#include "src/common/bus_kind.h"
#include "src/common/units.h"

namespace micropnp {

// Energy one peripheral communication costs on each interconnect.
Joules InterconnectEnergyPerOperation(BusKind bus);

// Statistics of the μPnP identification process gathered by simulating
// `samples` random device ids on a freshly manufactured board+peripheral.
struct IdentStats {
  Seconds min_duration;
  Seconds max_duration;
  Seconds mean_duration;
  Joules min_energy;
  Joules max_energy;
  Joules mean_energy;
  int decode_failures = 0;  // pulses landing in a guard band (rescan needed)
  int decode_errors = 0;    // decoded to the *wrong* id (should be ~0)
  int samples = 0;
};

IdentStats SampleIdentification(int samples, uint64_t seed);

// Arduino USB Host shield baseline (MAX3421E-class controller).  The paper
// uses "the minimum idle power consumption of the USB host controller",
// i.e. the controller is always powered, waiting for attach events.
struct UsbHostBaseline {
  Volts supply = Volts(3.3);
  Amps idle_current = MilliAmps(8.0);  // documented model constant
  Joules energy_per_transfer = Joules(2.0e-6);
  Joules energy_per_enumeration = Joules(150.0e-6);

  Watts idle_power() const { return Power(supply, idle_current); }

  // One-year energy with `changes_per_year` attach events and
  // `comms_per_year` data transfers.
  Joules YearlyEnergy(double changes_per_year, double comms_per_year) const;
};

// The Figure 12 simulation: one point of the μPnP curve.
struct YearlyEnergyPoint {
  double change_interval_minutes = 0.0;
  Joules usb;
  Joules upnp_mean;  // μPnP board + interconnect, mean identification energy
  Joules upnp_min;   // error bar: all-minimum resistor sets
  Joules upnp_max;   // error bar: all-maximum resistor sets
};

// Computes the yearly energy of μPnP with the given interconnect and of the
// USB baseline, for peripherals changed every `change_interval_minutes` and
// communicating every `comm_period_seconds` (paper: 10 s).  `ident` supplies
// the per-identification energy statistics.
YearlyEnergyPoint ComputeYearlyEnergy(double change_interval_minutes, double comm_period_seconds,
                                      BusKind bus, const IdentStats& ident,
                                      const UsbHostBaseline& usb);

}  // namespace micropnp

#endif  // BENCH_PAPER_ENERGY_MODEL_H_
