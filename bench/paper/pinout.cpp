#include "bench/paper/pinout.h"

namespace micropnp {

std::string CommPinSignal(BusKind bus, int pin) {
  if (pin < kCommPinFirst || pin > kCommPinLast) {
    return "N/C";
  }
  const int index = pin - kCommPinFirst;  // 0..2
  switch (bus) {
    case BusKind::kAdc: {
      const char* signals[3] = {"Analog Signal", "N/C", "N/C"};
      return signals[index];
    }
    case BusKind::kI2c: {
      const char* signals[3] = {"SDA", "SCL", "N/C"};
      return signals[index];
    }
    case BusKind::kSpi: {
      const char* signals[3] = {"MOSI", "MISO", "SCK"};
      return signals[index];
    }
    case BusKind::kUart: {
      const char* signals[3] = {"TX", "RX", "N/C"};
      return signals[index];
    }
  }
  return "N/C";
}

std::array<std::string, 3> CommPinRow(BusKind bus) {
  return {CommPinSignal(bus, 10), CommPinSignal(bus, 11), CommPinSignal(bus, 12)};
}

}  // namespace micropnp
