#include "src/rt/native_libs.h"

namespace micropnp {

std::unique_ptr<NativeLibrary> MakeNativeLibrary(LibraryId id, const NativeLibContext& ctx) {
  switch (id) {
    case kLibAdc:
      return std::make_unique<AdcNativeLibrary>(ctx);
    case kLibUart:
      return std::make_unique<UartNativeLibrary>(ctx);
    case kLibI2c:
      return std::make_unique<I2cNativeLibrary>(ctx);
    case kLibSpi:
      return std::make_unique<SpiNativeLibrary>(ctx);
    case kLibTimer:
      return std::make_unique<TimerNativeLibrary>(ctx);
    default:
      return nullptr;
  }
}

NativeLibrary::~NativeLibrary() {
  for (const Scheduler::EventId id : completions_) {
    ctx_.scheduler->Cancel(id);
  }
}

void NativeLibrary::ScheduleCompletion(SimDuration delay, Scheduler::Action completion) {
  // Forgetting the completions that already ran keeps the list as long as
  // the I/O in flight, and its capacity reused, so steady I/O allocates here
  // only the first time.
  std::erase_if(completions_,
                [this](Scheduler::EventId id) { return !ctx_.scheduler->IsPending(id); });
  completions_.push_back(ctx_.scheduler->ScheduleAfter(delay, std::move(completion)));
}

// ------------------------------------------------------------------- adc ---

void AdcNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  switch (fn) {
    case kAdcInit: {
      if (!ctx_.bus->IsSelected(BusKind::kAdc)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      const int32_t resolution = args.size() > 1 ? args[1] : 10;
      if (resolution != 8 && resolution != 10 && resolution != 12) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      AdcConfig config;
      config.resolution_bits = static_cast<int>(resolution);
      ctx_.bus->adc().Configure(config);
      initialized_ = true;
      return;
    }
    case kAdcReset:
      initialized_ = false;
      return;
    case kAdcRead: {
      if (!initialized_) {
        PostErrorToDriver(kErrorAdcInUse);
        return;
      }
      Result<uint16_t> code = ctx_.bus->adc().Sample();
      if (!code.ok()) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      const int32_t value = *code;
      // Split phase: the conversion result arrives after the ADC's
      // conversion time, as a newdata event.
      ScheduleCompletion(ctx_.bus->adc().conversion_time(),
                         [this, value] { PostToDriver(Event::Of(kEventNewData, value)); });
      return;
    }
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

// ------------------------------------------------------------------ uart ---

void UartNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  UartPort& uart = ctx_.bus->uart();
  switch (fn) {
    case kUartInit: {
      if (!ctx_.bus->IsSelected(BusKind::kUart)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      UartConfig config;
      config.baud = args.size() > 0 ? static_cast<uint32_t>(args[0]) : 9600;
      config.parity = static_cast<UartParity>(args.size() > 1 ? args[1] : 0);
      config.stop_bits = static_cast<UartStopBits>(args.size() > 2 ? args[2] : 1);
      config.data_bits = static_cast<uint8_t>(args.size() > 3 ? args[3] : 8);
      Status status = uart.Init(config);
      if (status.code() == StatusCode::kBusy) {
        PostErrorToDriver(kErrorUartInUse);  // Listing 1: error uartInUse()
        return;
      }
      if (!status.ok()) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      claimed_ = true;
      return;
    }
    case kUartReset:
      Teardown();
      return;
    case kUartRead:
      if (!claimed_) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      listening_ = true;
      frame_open_ = false;
      uart.set_rx_handler([this](uint8_t byte) { OnByte(byte); });
      return;
    case kUartWrite: {
      if (!claimed_) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      Status status = uart.HostSend(static_cast<uint8_t>(args.size() > 0 ? args[0] & 0xff : 0));
      if (!status.ok()) {
        PostErrorToDriver(kErrorInvalidConfiguration);
      }
      return;
    }
    case kUartStop:
      listening_ = false;
      frame_open_ = false;
      ++timeout_generation_;
      uart.set_rx_handler(nullptr);
      return;
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

void UartNativeLibrary::OnByte(uint8_t byte) {
  if (!listening_) {
    return;
  }
  if (!frame_open_) {
    frame_open_ = true;
  }
  ArmTimeout();
  PostToDriver(Event::Of(kEventNewData, static_cast<int32_t>(byte)));
}

void UartNativeLibrary::ArmTimeout() {
  const uint64_t generation = ++timeout_generation_;
  ScheduleCompletion(SimTime::FromMillis(kInterByteTimeoutMs), [this, generation] {
    if (generation == timeout_generation_ && listening_ && frame_open_) {
      frame_open_ = false;
      PostErrorToDriver(kErrorTimeout);  // frame stalled mid-way
    }
  });
}

void UartNativeLibrary::Teardown() {
  if (claimed_) {
    ctx_.bus->uart().Reset();
    claimed_ = false;
  }
  listening_ = false;
  frame_open_ = false;
  ++timeout_generation_;
}

// ------------------------------------------------------------------- i2c ---

void I2cNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  I2cPort& i2c = ctx_.bus->i2c();
  switch (fn) {
    case kI2cInit: {
      if (!ctx_.bus->IsSelected(BusKind::kI2c)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      I2cConfig config;
      config.clock_hz = static_cast<uint32_t>((args.size() > 0 ? args[0] : 100) * 1000);
      i2c.Configure(config);
      initialized_ = true;
      return;
    }
    case kI2cReset:
      initialized_ = false;
      return;
    case kI2cWrite: {
      if (!initialized_) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      const uint8_t payload[2] = {static_cast<uint8_t>(args[1] & 0xff),
                                  static_cast<uint8_t>(args[2] & 0xff)};
      Status status = i2c.Write(static_cast<uint8_t>(args[0] & 0x7f), ByteSpan(payload, 2));
      if (!status.ok()) {
        PostErrorToDriver(kErrorBusError);
      }
      return;
    }
    case kI2cRead8:
      Read(args[0], args[1], 1);
      return;
    case kI2cRead16:
      Read(args[0], args[1], 2);
      return;
    case kI2cRead24:
      Read(args[0], args[1], 3);
      return;
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

void I2cNativeLibrary::Read(int32_t addr, int32_t reg, int bytes) {
  if (!initialized_) {
    PostErrorToDriver(kErrorInvalidConfiguration);
    return;
  }
  I2cPort& i2c = ctx_.bus->i2c();
  const uint8_t pointer = static_cast<uint8_t>(reg & 0xff);
  Result<std::vector<uint8_t>> data =
      i2c.WriteRead(static_cast<uint8_t>(addr & 0x7f), ByteSpan(&pointer, 1),
                    static_cast<size_t>(bytes));
  if (!data.ok()) {
    PostErrorToDriver(kErrorBusError);
    return;
  }
  int32_t value = 0;
  for (uint8_t byte : *data) {
    value = static_cast<int32_t>((static_cast<uint32_t>(value) << 8) | byte);
  }
  // Result arrives after the wire time of the transaction.
  const SimDuration wire = i2c.TransactionTime(static_cast<size_t>(bytes) + 1, 2);
  ScheduleCompletion(wire, [this, value] { PostToDriver(Event::Of(kEventNewData, value)); });
}

// ------------------------------------------------------------------- spi ---

void SpiNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  SpiPort& spi = ctx_.bus->spi();
  switch (fn) {
    case kSpiInit: {
      if (!ctx_.bus->IsSelected(BusKind::kSpi)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      SpiConfig config;
      config.clock_hz = static_cast<uint32_t>((args.size() > 0 ? args[0] : 1000) * 1000);
      config.mode = static_cast<uint8_t>(args.size() > 1 ? args[1] & 3 : 0);
      spi.Configure(config);
      initialized_ = true;
      return;
    }
    case kSpiReset:
      initialized_ = false;
      return;
    case kSpiTransfer2: {
      if (!initialized_) {
        PostErrorToDriver(kErrorSpiInUse);
        return;
      }
      const uint8_t tx[2] = {static_cast<uint8_t>(args[0] & 0xff),
                             static_cast<uint8_t>(args[1] & 0xff)};
      Result<std::vector<uint8_t>> rx = spi.Transfer(ByteSpan(tx, 2));
      if (!rx.ok()) {
        PostErrorToDriver(kErrorBusError);
        return;
      }
      const int32_t value = static_cast<int32_t>(((*rx)[0] << 8) | (*rx)[1]);
      ScheduleCompletion(spi.TransferTime(2), [this, value] {
        PostToDriver(Event::Of(kEventNewData, value));
      });
      return;
    }
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

// ----------------------------------------------------------------- timer ---

void TimerNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  switch (fn) {
    case kTimerStart: {
      const double period_ms = args.size() > 0 ? static_cast<double>(args[0]) : 1000.0;
      if (period_ms <= 0.0) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      running_ = true;
      const uint64_t generation = ++generation_;
      ScheduleCompletion(SimTime::FromMillis(period_ms),
                         [this, generation, period_ms] { Tick(generation, period_ms); });
      return;
    }
    case kTimerStop:
      running_ = false;
      ++generation_;
      return;
    case kTimerOnce: {
      const double delay_ms = args.size() > 0 ? static_cast<double>(args[0]) : 0.0;
      const uint64_t generation = generation_;
      ScheduleCompletion(SimTime::FromMillis(delay_ms), [this, generation] {
        if (generation == generation_) {
          PostToDriver(Event::Of(kEventTick));
        }
      });
      return;
    }
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

void TimerNativeLibrary::Tick(uint64_t generation, double period_ms) {
  if (!running_ || generation != generation_) {
    return;
  }
  PostToDriver(Event::Of(kEventTick));
  ScheduleCompletion(SimTime::FromMillis(period_ms),
                     [this, generation, period_ms] { Tick(generation, period_ms); });
}

void TimerNativeLibrary::Teardown() {
  running_ = false;
  ++generation_;
}

}  // namespace micropnp
