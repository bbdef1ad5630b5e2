// Per-channel bus multiplexer.
//
// After identification, the control board switches the connector's
// communication pins onto the bus the peripheral speaks (Section 3.1).  A
// ChannelBus owns one port of each kind for a physical channel; `Select`
// models the mux: exactly one port kind is live at a time, and the runtime's
// native libraries refuse to touch a deselected port.  Peripherals and native
// libraries keep pointers to the ports, so a ChannelBus never copies or
// moves: its owner holds it in place.

#ifndef SRC_BUS_CHANNEL_BUS_H_
#define SRC_BUS_CHANNEL_BUS_H_

#include <optional>

#include "src/bus/adc.h"
#include "src/bus/i2c.h"
#include "src/bus/spi.h"
#include "src/bus/uart.h"
#include "src/common/bus_kind.h"

namespace micropnp {

class ChannelBus {
 public:
  explicit ChannelBus(Scheduler& scheduler)
      : adc_(scheduler), i2c_(scheduler), spi_(scheduler), uart_(scheduler) {}
  ChannelBus(const ChannelBus&) = delete;
  ChannelBus& operator=(const ChannelBus&) = delete;

  // Switches the mux.  Deselecting (nullopt) disconnects all ports.
  void Select(std::optional<BusKind> kind) { selected_ = kind; }
  std::optional<BusKind> selected() const { return selected_; }
  bool IsSelected(BusKind kind) const { return selected_ == kind; }

  AdcPort& adc() { return adc_; }
  I2cPort& i2c() { return i2c_; }
  SpiPort& spi() { return spi_; }
  UartPort& uart() { return uart_; }

  const AdcPort& adc() const { return adc_; }
  const I2cPort& i2c() const { return i2c_; }
  const SpiPort& spi() const { return spi_; }
  const UartPort& uart() const { return uart_; }

 private:
  std::optional<BusKind> selected_;
  AdcPort adc_;
  I2cPort i2c_;
  SpiPort spi_;
  UartPort uart_;
};

}  // namespace micropnp

#endif  // SRC_BUS_CHANNEL_BUS_H_
