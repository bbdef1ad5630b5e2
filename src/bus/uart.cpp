#include "src/bus/uart.h"

namespace micropnp {

bool UartConfig::Valid() const {
  if (baud == 0 || baud > 2'000'000) {
    return false;
  }
  if (data_bits < 5 || data_bits > 8) {
    return false;
  }
  return true;
}

double UartConfig::ByteTimeSeconds() const {
  const double parity_bits = (parity == UartParity::kNone) ? 0.0 : 1.0;
  const double bits =
      1.0 + static_cast<double>(data_bits) + parity_bits + static_cast<double>(stop_bits);
  return bits / static_cast<double>(baud);
}

Status UartPort::Init(const UartConfig& config) {
  if (initialized_) {
    return BusyError("uart in use");
  }
  if (!config.Valid()) {
    return InvalidArgument("unsupported uart configuration");
  }
  config_ = config;
  initialized_ = true;
  return OkStatus();
}

void UartPort::Reset() {
  initialized_ = false;
  rx_handler_ = nullptr;
  rx_fifo_.clear();
  config_ = UartConfig{};
}

Status UartPort::HostSend(uint8_t byte) {
  if (!initialized_) {
    return FailedPrecondition("uart not initialized");
  }
  const SimDuration wire = SimTime::FromSeconds(config_.ByteTimeSeconds());
  SimTime start = scheduler_.now();
  if (host_tx_free_at_ > start) {
    start = host_tx_free_at_;
  }
  host_tx_free_at_ = start + wire;
  UartEndpoint* device = device_;
  scheduler_.ScheduleAt(host_tx_free_at_, [this, device, byte] {
    if (device != nullptr && device == device_) {
      device->OnHostByte(byte, scheduler_.now());
    }
  });
  return OkStatus();
}

void UartPort::DeviceSend(uint8_t byte) {
  const SimDuration wire = SimTime::FromSeconds(config_.ByteTimeSeconds());
  SimTime start = scheduler_.now();
  if (device_tx_free_at_ > start) {
    start = device_tx_free_at_;
  }
  device_tx_free_at_ = start + wire;
  scheduler_.ScheduleAt(device_tx_free_at_, [this, byte] { DeliverToHost(byte); });
}

void UartPort::DeviceSendFrame(ByteSpan bytes) {
  for (uint8_t b : bytes) {
    DeviceSend(b);
  }
}

void UartPort::DeliverToHost(uint8_t byte) {
  if (!initialized_) {
    return;  // nobody listening; byte lost on the floor
  }
  if (rx_handler_) {
    rx_handler_(byte);
    return;
  }
  if (rx_fifo_.full()) {
    ++overruns_;
    return;
  }
  rx_fifo_.push_back(byte);
}

Result<uint8_t> UartPort::ReadByte() {
  if (rx_fifo_.empty()) {
    return Unavailable("rx fifo empty");
  }
  uint8_t b = rx_fifo_.front();
  rx_fifo_.pop_front();
  return b;
}

}  // namespace micropnp
