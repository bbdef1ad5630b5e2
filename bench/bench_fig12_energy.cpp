// Figure 12: "Energy consumption of USB versus µPnP combined with ADC, I2C,
// and UART interconnects" — one-year energy vs. the rate at which
// peripherals are plugged/unplugged (log-log).  Peripherals communicate once
// every ten seconds; the peripheral itself is ideal (consumes nothing beyond
// communication), the worst case for μPnP.
//
// Shape checks from the paper:
//   * USB host is flat (idle power dominates);
//   * μPnP scales linearly with the change rate;
//   * at hourly changes μPnP+ADC is >4 orders of magnitude below USB;
//   * the μPnP curves diverge at low change rates (interconnect floor).

#include <cmath>
#include <cstdio>

#include "bench/paper/energy_model.h"

namespace micropnp {
namespace {

void Run() {
  std::printf("=== Figure 12: one-year energy, USB host vs uPnP+{ADC,I2C,UART} ===\n");
  std::printf("(comm period 10 s; energy in Joules per year; log-spaced change rates)\n\n");

  IdentStats ident = SampleIdentification(2000, 20150421);
  UsbHostBaseline usb;

  std::printf("%14s %14s | %12s %12s %12s | %12s %12s\n", "rate (min)", "USB host", "uPnP+ADC",
              "uPnP+I2C", "uPnP+UART", "uPnP+ADC min", "uPnP+ADC max");
  for (double rate = 1.0; rate <= 1.1e6; rate *= 10.0) {
    YearlyEnergyPoint adc = ComputeYearlyEnergy(rate, 10.0, BusKind::kAdc, ident, usb);
    YearlyEnergyPoint i2c = ComputeYearlyEnergy(rate, 10.0, BusKind::kI2c, ident, usb);
    YearlyEnergyPoint uart = ComputeYearlyEnergy(rate, 10.0, BusKind::kUart, ident, usb);
    std::printf("%14.0f %14.3g | %12.4g %12.4g %12.4g | %12.4g %12.4g\n", rate, adc.usb.value(),
                adc.upnp_mean.value(), i2c.upnp_mean.value(), uart.upnp_mean.value(),
                adc.upnp_min.value(), adc.upnp_max.value());
  }

  YearlyEnergyPoint hourly = ComputeYearlyEnergy(60.0, 10.0, BusKind::kAdc, ident, usb);
  const double orders = std::log10(hourly.usb.value() / hourly.upnp_mean.value());
  std::printf("\npaper: 'in a situation where peripherals are changed on an hourly basis, the\n");
  std::printf("energy consumption of uPnP is over four orders of magnitude lower than USB'\n");
  std::printf("measured at 60 min: USB/uPnP+ADC = %.2g (%.2f orders of magnitude)  [%s]\n",
              hourly.usb.value() / hourly.upnp_mean.value(), orders,
              orders > 4.0 ? "holds" : "VIOLATED");

  YearlyEnergyPoint fast = ComputeYearlyEnergy(1.0, 10.0, BusKind::kAdc, ident, usb);
  YearlyEnergyPoint slow = ComputeYearlyEnergy(1000.0, 10.0, BusKind::kAdc, ident, usb);
  const double comm_floor =
      InterconnectEnergyPerOperation(BusKind::kAdc).value() * (kSecondsPerYear / 10.0);
  std::printf("linearity: ident-only energy ratio over 1000x rate change = %.1f (expect ~1000)\n",
              (fast.upnp_mean.value() - comm_floor) / (slow.upnp_mean.value() - comm_floor));
}

}  // namespace
}  // namespace micropnp

int main() {
  micropnp::Run();
  return 0;
}
