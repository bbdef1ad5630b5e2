// UART interconnect model.
//
// Point-to-point asynchronous serial, the interconnect of the ID-20LA RFID
// reader.  Bytes sent by the device arrive at the host after the wire time
// implied by the frame format (start + data + parity + stop bits at the
// configured baud rate), delivered through the scheduler so drivers see the
// same split-phase, interrupt-per-byte behaviour the paper's DSL models with
// `newdata` events (Listing 1).
//
// The port enforces exclusive host-side ownership: a second driver calling
// Init() while the port is claimed gets kBusy, mirroring the `uartInUse`
// error event of Listing 1.
//
// The RX FIFO is the hardware's: a fixed ring of kRxFifoDepth bytes held
// inline in the port, so every channel's port costs no heap whether or not
// a UART peripheral is ever plugged.

#ifndef SRC_BUS_UART_H_
#define SRC_BUS_UART_H_

#include <cstdint>
#include <functional>

#include "src/common/bytes.h"
#include "src/common/fixed_ring.h"
#include "src/common/status.h"
#include "src/sim/clock.h"
#include "src/sim/scheduler.h"

namespace micropnp {

enum class UartParity : uint8_t { kNone = 0, kEven = 1, kOdd = 2 };
enum class UartStopBits : uint8_t { kOne = 1, kTwo = 2 };

struct UartConfig {
  uint32_t baud = 9600;
  UartParity parity = UartParity::kNone;
  UartStopBits stop_bits = UartStopBits::kOne;
  uint8_t data_bits = 8;

  bool Valid() const;
  // Seconds on the wire for one framed byte.
  double ByteTimeSeconds() const;
};

// Device-side endpoint (the peripheral's TX/RX).
class UartEndpoint {
 public:
  virtual ~UartEndpoint() = default;
  // Host wrote a byte towards the device.
  virtual void OnHostByte(uint8_t byte, SimTime now) = 0;
};

class UartPort {
 public:
  explicit UartPort(Scheduler& scheduler) : scheduler_(scheduler) {}

  // --- host (driver) side -------------------------------------------------
  // Claims and configures the port.  kBusy if already claimed, kInvalidArgument
  // for unsupported configurations (e.g. 0 baud, 9 data bits).
  Status Init(const UartConfig& config);
  // Releases the port and restores platform defaults.
  void Reset();
  bool initialized() const { return initialized_; }
  const UartConfig& config() const { return config_; }

  // Byte-received callback (the `newdata` interrupt).  Fires once per byte
  // at its wire-arrival time.
  using RxHandler = std::function<void(uint8_t)>;
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  // Host transmits towards the device; delivery is scheduled after the wire
  // time of the queued bytes.
  Status HostSend(uint8_t byte);

  // --- device (peripheral) side -------------------------------------------
  void AttachDevice(UartEndpoint* device) { device_ = device; }
  void DetachDevice() { device_ = nullptr; }

  // Device transmits towards the host.  Bytes arrive back-to-back at wire
  // speed; if the host has no handler installed they queue in the RX FIFO
  // (capacity-limited, like a real UART's hardware buffer — overflow drops
  // the newest byte and counts an overrun).
  void DeviceSend(uint8_t byte);
  void DeviceSendFrame(ByteSpan bytes);

  // Drains one byte from the RX FIFO (polling-style access used by tests).
  Result<uint8_t> ReadByte();
  size_t rx_available() const { return rx_fifo_.size(); }
  uint64_t overruns() const { return overruns_; }

  static constexpr size_t kRxFifoDepth = 64;

 private:
  void DeliverToHost(uint8_t byte);

  Scheduler& scheduler_;
  UartConfig config_;
  bool initialized_ = false;
  RxHandler rx_handler_;
  UartEndpoint* device_ = nullptr;
  FixedRing<uint8_t, kRxFifoDepth> rx_fifo_;
  uint64_t overruns_ = 0;
  // Wire becomes free at this time; queued sends serialize after it.
  SimTime device_tx_free_at_;
  SimTime host_tx_free_at_;
};

}  // namespace micropnp

#endif  // SRC_BUS_UART_H_
