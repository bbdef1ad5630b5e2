// Unit tests for the interconnect simulations (ADC, I2C, SPI, UART) and the
// per-channel bus mux.

#include <gtest/gtest.h>

#include <vector>

#include "src/bus/adc.h"
#include "src/bus/channel_bus.h"
#include "src/bus/i2c.h"
#include "src/bus/spi.h"
#include "src/bus/uart.h"

namespace micropnp {
namespace {

// ------------------------------------------------------------------ adc ----

class FixedSource : public AnalogSource {
 public:
  explicit FixedSource(double volts) : volts_(volts) {}
  Volts VoltageAt(SimTime /*now*/) override { return Volts(volts_); }
  double volts_;
};

TEST(Adc, SampleQuantizesVoltage) {
  Scheduler sched;
  AdcPort adc(sched);
  FixedSource source(1.65);  // half of vref 3.3
  adc.AttachSource(&source);
  Result<uint16_t> code = adc.Sample();
  ASSERT_TRUE(code.ok());
  EXPECT_NEAR(*code, 511.5, 1.0);  // mid-scale of 10 bits
  EXPECT_NEAR(adc.CodeToVoltage(*code).value(), 1.65, 0.01);
}

TEST(Adc, SampleWithoutSourceFails) {
  Scheduler sched;
  AdcPort adc(sched);
  EXPECT_EQ(adc.Sample().status().code(), StatusCode::kUnavailable);
}

TEST(Adc, ClipsOutOfRangeVoltages) {
  Scheduler sched;
  AdcPort adc(sched);
  FixedSource source(5.0);
  adc.AttachSource(&source);
  EXPECT_EQ(*adc.Sample(), 1023);
  source.volts_ = -1.0;
  EXPECT_EQ(*adc.Sample(), 0);
}

TEST(Adc, ResolutionConfigurable) {
  Scheduler sched;
  AdcPort adc(sched);
  AdcConfig config;
  config.resolution_bits = 12;
  adc.Configure(config);
  FixedSource source(3.3);
  adc.AttachSource(&source);
  EXPECT_EQ(*adc.Sample(), 4095);
}

TEST(Adc, CountsConversions) {
  Scheduler sched;
  AdcPort adc(sched);
  FixedSource source(1.0);
  adc.AttachSource(&source);
  (void)adc.Sample();
  (void)adc.Sample();
  EXPECT_EQ(adc.conversions(), 2u);
}

// ------------------------------------------------------------------ i2c ----

// Echo device: stores last write, serves it back on read.
class EchoI2cDevice : public I2cDevice {
 public:
  explicit EchoI2cDevice(uint8_t addr) : addr_(addr) {}
  uint8_t address() const override { return addr_; }
  Status OnWrite(ByteSpan data, SimTime /*now*/) override {
    last_write_.assign(data.begin(), data.end());
    return OkStatus();
  }
  Result<std::vector<uint8_t>> OnRead(size_t count, SimTime /*now*/) override {
    std::vector<uint8_t> out = last_write_;
    out.resize(count, 0xee);
    return out;
  }
  std::vector<uint8_t> last_write_;

 private:
  uint8_t addr_;
};

TEST(I2c, WriteReadRoundTrip) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice dev(0x42);
  ASSERT_TRUE(i2c.Attach(&dev).ok());

  const uint8_t payload[] = {0x10, 0x20};
  ASSERT_TRUE(i2c.Write(0x42, ByteSpan(payload, 2)).ok());
  EXPECT_EQ(dev.last_write_, (std::vector<uint8_t>{0x10, 0x20}));

  Result<std::vector<uint8_t>> read = i2c.Read(0x42, 2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<uint8_t>{0x10, 0x20}));
}

TEST(I2c, AbsentAddressNacks) {
  Scheduler sched;
  I2cPort i2c(sched);
  const uint8_t payload[] = {0x00};
  EXPECT_EQ(i2c.Write(0x50, ByteSpan(payload, 1)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(i2c.Read(0x50, 1).status().code(), StatusCode::kUnavailable);
}

TEST(I2c, AddressCollisionRejected) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice a(0x42), b(0x42);
  ASSERT_TRUE(i2c.Attach(&a).ok());
  EXPECT_EQ(i2c.Attach(&b).code(), StatusCode::kAlreadyExists);
}

TEST(I2c, MultipleDevicesCoexist) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice a(0x42), b(0x43);
  ASSERT_TRUE(i2c.Attach(&a).ok());
  ASSERT_TRUE(i2c.Attach(&b).ok());
  const uint8_t pa[] = {0xaa};
  const uint8_t pb[] = {0xbb};
  ASSERT_TRUE(i2c.Write(0x42, ByteSpan(pa, 1)).ok());
  ASSERT_TRUE(i2c.Write(0x43, ByteSpan(pb, 1)).ok());
  EXPECT_EQ(a.last_write_[0], 0xaa);
  EXPECT_EQ(b.last_write_[0], 0xbb);
  ASSERT_TRUE(i2c.Detach(&a).ok());
  EXPECT_EQ(i2c.Write(0x42, ByteSpan(pa, 1)).code(), StatusCode::kUnavailable);
}

TEST(I2c, WriteReadUsesRepeatedStart) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice dev(0x10);
  ASSERT_TRUE(i2c.Attach(&dev).ok());
  const uint8_t reg[] = {0xf6};
  Result<std::vector<uint8_t>> out = i2c.WriteRead(0x10, ByteSpan(reg, 1), 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], 0xf6);
}

TEST(I2c, TransactionTimeScalesWithBytes) {
  Scheduler sched;
  I2cPort i2c(sched);
  // 100 kHz: 1 byte + address = 2 * 9 + 2 cycles = 200 us.
  EXPECT_NEAR(i2c.TransactionTime(1).millis(), 0.2, 0.01);
  EXPECT_GT(i2c.TransactionTime(16).nanos(), i2c.TransactionTime(1).nanos());
}

// ------------------------------------------------------------------ spi ----

class AddOneSpiDevice : public SpiDevice {
 public:
  uint8_t Exchange(uint8_t mosi, SimTime /*now*/) override {
    return static_cast<uint8_t>(mosi + 1);
  }
  void OnSelect(SimTime /*now*/) override { ++selects_; }
  void OnDeselect(SimTime /*now*/) override { ++deselects_; }
  int selects_ = 0;
  int deselects_ = 0;
};

TEST(Spi, FullDuplexTransfer) {
  Scheduler sched;
  SpiPort spi(sched);
  AddOneSpiDevice dev;
  spi.AttachDevice(&dev);
  const uint8_t tx[] = {1, 2, 3};
  Result<std::vector<uint8_t>> rx = spi.Transfer(ByteSpan(tx, 3));
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(*rx, (std::vector<uint8_t>{2, 3, 4}));
  EXPECT_EQ(dev.selects_, 1);
  EXPECT_EQ(dev.deselects_, 1);
}

TEST(Spi, TransferWithoutDeviceFails) {
  Scheduler sched;
  SpiPort spi(sched);
  const uint8_t tx[] = {1};
  EXPECT_EQ(spi.Transfer(ByteSpan(tx, 1)).status().code(), StatusCode::kUnavailable);
}

TEST(Spi, TransferTimeFollowsClock) {
  Scheduler sched;
  SpiPort spi(sched);
  // 4 bytes at 1 MHz = 32 us.
  EXPECT_NEAR(spi.TransferTime(4).micros(), 32.0, 0.1);
}

// ----------------------------------------------------------------- uart ----

TEST(UartConfig, ValidityAndByteTime) {
  UartConfig config;  // 9600 8N1
  EXPECT_TRUE(config.Valid());
  // 10 bits at 9600 baud ~ 1.0417 ms.
  EXPECT_NEAR(config.ByteTimeSeconds(), 10.0 / 9600.0, 1e-9);

  config.parity = UartParity::kEven;
  config.stop_bits = UartStopBits::kTwo;
  EXPECT_NEAR(config.ByteTimeSeconds(), 12.0 / 9600.0, 1e-9);

  config.baud = 0;
  EXPECT_FALSE(config.Valid());
  config.baud = 9600;
  config.data_bits = 9;
  EXPECT_FALSE(config.Valid());
}

TEST(Uart, InitClaimsExclusively) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  EXPECT_EQ(uart.Init(UartConfig{}).code(), StatusCode::kBusy);  // `uartInUse`
  uart.Reset();
  EXPECT_TRUE(uart.Init(UartConfig{}).ok());
}

TEST(Uart, InitRejectsInvalidConfig) {
  Scheduler sched;
  UartPort uart(sched);
  UartConfig bad;
  bad.baud = 0;
  EXPECT_EQ(uart.Init(bad).code(), StatusCode::kInvalidArgument);
}

TEST(Uart, DeviceBytesArriveAtWireSpeed) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());

  std::vector<std::pair<uint8_t, double>> received;  // byte, arrival ms
  uart.set_rx_handler([&](uint8_t b) { received.emplace_back(b, sched.now().millis()); });

  uart.DeviceSend('A');
  uart.DeviceSend('B');
  sched.Run();

  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].first, 'A');
  EXPECT_EQ(received[1].first, 'B');
  const double byte_ms = 10.0 / 9600.0 * 1e3;
  EXPECT_NEAR(received[0].second, byte_ms, 0.01);
  EXPECT_NEAR(received[1].second, 2 * byte_ms, 0.01);  // serialized on the wire
}

TEST(Uart, FifoBuffersWhenNoHandler) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  uart.DeviceSend(0x11);
  uart.DeviceSend(0x22);
  sched.Run();
  EXPECT_EQ(uart.rx_available(), 2u);
  EXPECT_EQ(*uart.ReadByte(), 0x11);
  EXPECT_EQ(*uart.ReadByte(), 0x22);
  EXPECT_EQ(uart.ReadByte().status().code(), StatusCode::kUnavailable);
}

TEST(Uart, FifoOverrunDropsAndCounts) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  for (size_t i = 0; i < UartPort::kRxFifoDepth + 5; ++i) {
    uart.DeviceSend(static_cast<uint8_t>(i));
  }
  sched.Run();
  EXPECT_EQ(uart.rx_available(), UartPort::kRxFifoDepth);
  EXPECT_EQ(uart.overruns(), 5u);
}

TEST(Uart, FifoKeepsOrderAcrossTheRingEnd) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  int next_sent = 0;
  auto send = [&](int count) {
    for (int i = 0; i < count; ++i) {
      uart.DeviceSend(static_cast<uint8_t>(next_sent++));
    }
    sched.Run();
  };
  int next_read = 0;
  auto read = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Result<uint8_t> byte = uart.ReadByte();
      ASSERT_TRUE(byte.ok());
      EXPECT_EQ(*byte, static_cast<uint8_t>(next_read++));
    }
  };
  send(40);
  read(30);
  // 10 held from offset 30; 50 more run past the end of the 64-byte FIFO.
  send(50);
  EXPECT_EQ(uart.rx_available(), 60u);
  EXPECT_EQ(uart.overruns(), 0u);
  // The FIFO fills at 64: of 10 more, the newest 6 are dropped and counted.
  send(10);
  EXPECT_EQ(uart.rx_available(), UartPort::kRxFifoDepth);
  EXPECT_EQ(uart.overruns(), 6u);
  read(static_cast<int>(UartPort::kRxFifoDepth));
  EXPECT_EQ(next_read, 94);
  EXPECT_EQ(uart.ReadByte().status().code(), StatusCode::kUnavailable);
}

TEST(Uart, BytesLostWhenUninitialized) {
  Scheduler sched;
  UartPort uart(sched);
  uart.DeviceSend(0x7f);  // nobody configured the port
  sched.Run();
  EXPECT_EQ(uart.rx_available(), 0u);
}

class CaptureEndpoint : public UartEndpoint {
 public:
  void OnHostByte(uint8_t byte, SimTime /*now*/) override { bytes_.push_back(byte); }
  std::vector<uint8_t> bytes_;
};

TEST(Uart, HostToDeviceDirection) {
  Scheduler sched;
  UartPort uart(sched);
  CaptureEndpoint device;
  uart.AttachDevice(&device);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  ASSERT_TRUE(uart.HostSend('x').ok());
  sched.Run();
  EXPECT_EQ(device.bytes_, (std::vector<uint8_t>{'x'}));
}

TEST(Uart, HostSendRequiresInit) {
  Scheduler sched;
  UartPort uart(sched);
  EXPECT_EQ(uart.HostSend('x').code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------- channel bus ----

TEST(ChannelBus, MuxSelectsOneKind) {
  Scheduler sched;
  ChannelBus bus(sched);
  EXPECT_EQ(bus.selected(), std::nullopt);
  bus.Select(BusKind::kUart);
  EXPECT_TRUE(bus.IsSelected(BusKind::kUart));
  EXPECT_FALSE(bus.IsSelected(BusKind::kAdc));
  bus.Select(std::nullopt);
  EXPECT_FALSE(bus.IsSelected(BusKind::kUart));
}

}  // namespace
}  // namespace micropnp
