// Native interconnect libraries (Section 4.2).
//
// "A set of native interconnect libraries implement all low-level platform
// specific I/O calls ... Every library exposes its API towards drivers as a
// series of standard event handlers."
//
// Each library instance is bound to one driver slot and one channel bus.
// Invocations are split-phase: the call returns immediately; results
// (`newdata`, `tick`) and faults (error events) are posted to the event
// router addressed to the owning driver, arriving after the simulated wire /
// conversion time.

#ifndef SRC_RT_NATIVE_LIBS_H_
#define SRC_RT_NATIVE_LIBS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/bus/channel_bus.h"
#include "src/dsl/native_interface.h"
#include "src/rt/event.h"
#include "src/rt/event_router.h"
#include "src/sim/scheduler.h"

namespace micropnp {

// Shared wiring every library needs.
struct NativeLibContext {
  Scheduler* scheduler = nullptr;
  ChannelBus* bus = nullptr;
  EventRouter* router = nullptr;
  int driver_slot = 0;
};

class NativeLibrary {
 public:
  explicit NativeLibrary(const NativeLibContext& ctx) : ctx_(ctx) {}
  // Cancels the completions still pending, so none runs on a destroyed
  // library or reaches a driver activated later on the same channel.
  virtual ~NativeLibrary();
  NativeLibrary(const NativeLibrary&) = delete;
  NativeLibrary& operator=(const NativeLibrary&) = delete;

  virtual LibraryId id() const = 0;
  // Handles a kSignalLib instruction.  Problems surface as error events
  // posted to the driver, not as return values (Section 4.1 error handling).
  virtual void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) = 0;
  // Driver being destroyed: release claimed hardware, cancel timers.
  virtual void Teardown() {}

 protected:
  void PostToDriver(const Event& e) { ctx_.router->Post(ctx_.driver_slot, e); }
  void PostErrorToDriver(EventId error) { ctx_.router->PostError(ctx_.driver_slot, Event::Of(error)); }
  // Runs `completion` `delay` from now unless this library is destroyed
  // first.  Every split-phase completion is scheduled through here.
  void ScheduleCompletion(SimDuration delay, Scheduler::Action completion);

  NativeLibContext ctx_;

 private:
  std::vector<Scheduler::EventId> completions_;  // scheduled; pruned once run
};

// Factory used by the driver host when instantiating a driver's imports.
std::unique_ptr<NativeLibrary> MakeNativeLibrary(LibraryId id, const NativeLibContext& ctx);

// --- concrete libraries (exposed for focused unit tests) --------------------

class AdcNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibAdc; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;
  void Teardown() override { initialized_ = false; }

 private:
  bool initialized_ = false;
};

class UartNativeLibrary : public NativeLibrary {
 public:
  // Inter-byte timeout while a frame is being assembled (Listing 1's
  // `timeOut` error).
  static constexpr double kInterByteTimeoutMs = 200.0;

  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibUart; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;
  void Teardown() override;

 private:
  void OnByte(uint8_t byte);
  void ArmTimeout();

  bool claimed_ = false;
  bool listening_ = false;
  bool frame_open_ = false;
  uint64_t timeout_generation_ = 0;
};

class I2cNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibI2c; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;

 private:
  void Read(int32_t addr, int32_t reg, int bytes);
  bool initialized_ = false;
};

class SpiNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibSpi; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;

 private:
  bool initialized_ = false;
};

class TimerNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibTimer; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;
  void Teardown() override;

 private:
  void Tick(uint64_t generation, double period_ms);

  uint64_t generation_ = 0;  // bumping cancels outstanding ticks
  bool running_ = false;
};

}  // namespace micropnp

#endif  // SRC_RT_NATIVE_LIBS_H_
