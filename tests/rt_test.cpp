// Tests for the μPnP execution environment: event router, VM, native
// libraries, driver manager, peripheral controller, footprint model — plus
// end-to-end runs of every bundled driver against its simulated peripheral.

#include <gtest/gtest.h>

#include <cmath>

#include "bench/paper/footprint.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/periph/bmp180.h"
#include "src/periph/hih4030.h"
#include "src/periph/id20la.h"
#include "src/periph/relay.h"
#include "src/periph/tmp36.h"
#include "src/rt/driver_manager.h"
#include "src/rt/event_router.h"
#include "src/rt/peripheral_controller.h"
#include "src/rt/vm.h"
#include "tests/oracles/reference_vm.h"

namespace micropnp {
namespace {

// --------------------------------------------------------------- router ----

TEST(EventRouter, FifoOrderForRegularEvents) {
  EventRouter router;
  for (int i = 0; i < 5; ++i) {
    router.Post(0, Event::Of(kEventRead, i));
  }
  std::vector<int32_t> order;
  router.ProcessAll([&](int, const Event& e) { order.push_back(e.args[0]); });
  EXPECT_EQ(order, (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST(EventRouter, ErrorEventsPreempt) {
  // Section 4.2: "a regular FIFO queue for event processing and a priority
  // queue for dispatching error messages".
  EventRouter router;
  router.Post(0, Event::Of(kEventRead));
  router.Post(0, Event::Of(kErrorTimeout));  // auto-routes to priority queue
  std::vector<EventId> order;
  router.ProcessAll([&](int, const Event& e) { order.push_back(e.id); });
  EXPECT_EQ(order, (std::vector<EventId>{kErrorTimeout, kEventRead}));
}

TEST(EventRouter, QueueOverflowDropsAndCounts) {
  EventRouter router;
  for (size_t i = 0; i < EventRouter::kQueueDepth + 3; ++i) {
    router.Post(0, Event::Of(kEventRead));
  }
  EXPECT_EQ(router.pending(), EventRouter::kQueueDepth);
  EXPECT_EQ(router.events_dropped(), 3u);
}

TEST(EventRouter, BothQueuesKeepOrderAndDepthAcrossWraps) {
  EventRouter router;
  std::vector<std::pair<EventId, int32_t>> order;
  auto sink = [&](int, const Event& e) { order.emplace_back(e.id, e.args[0]); };
  // Move both queues' heads to the middle of their rings.
  for (int32_t i = 0; i < 10; ++i) {
    router.Post(0, Event::Of(kEventRead, i));
    router.PostError(0, Event::Of(kErrorTimeout, i));
  }
  EXPECT_EQ(router.ProcessAll(sink), 20u);
  order.clear();

  // 12 more in each queue run past the end of both rings.  Errors still go
  // first, and each queue keeps its FIFO order.
  for (int32_t i = 0; i < 12; ++i) {
    router.Post(0, Event::Of(kEventRead, 100 + i));
    router.PostError(0, Event::Of(kErrorTimeout, 200 + i));
  }
  EXPECT_EQ(router.ProcessAll(sink), 24u);
  ASSERT_EQ(order.size(), 24u);
  for (int32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(order[i], std::make_pair(kErrorTimeout, 200 + i));
    EXPECT_EQ(order[12 + i], std::make_pair(kEventRead, 100 + i));
  }
  order.clear();

  // From a wrapped head, each queue still holds exactly kQueueDepth: the
  // 17th post of each is dropped and counted.
  constexpr int32_t kDepth = static_cast<int32_t>(EventRouter::kQueueDepth);
  for (int32_t i = 0; i <= kDepth; ++i) {
    EXPECT_EQ(router.Post(0, Event::Of(kEventRead, 300 + i)), i < kDepth);
    EXPECT_EQ(router.PostError(0, Event::Of(kErrorTimeout, 400 + i)), i < kDepth);
  }
  EXPECT_EQ(router.pending(), 2 * EventRouter::kQueueDepth);
  EXPECT_EQ(router.events_dropped(), 2u);
  EXPECT_EQ(router.ProcessAll(sink), 2 * EventRouter::kQueueDepth);
  ASSERT_EQ(order.size(), 2 * EventRouter::kQueueDepth);
  for (int32_t i = 0; i < kDepth; ++i) {
    EXPECT_EQ(order[i], std::make_pair(kErrorTimeout, 400 + i));
    EXPECT_EQ(order[kDepth + i], std::make_pair(kEventRead, 300 + i));
  }
  EXPECT_TRUE(router.idle());
}

TEST(EventRouter, PerEventCostMatchesSection62) {
  // 77.79 us per routed event at 16 MHz.
  EventRouter router;
  const int kEvents = 1000;
  for (int batch = 0; batch < kEvents / 8; ++batch) {
    for (int i = 0; i < 8; ++i) {
      router.Post(0, Event::Of(kEventRead));
    }
    router.ProcessAll([](int, const Event&) {});
  }
  const double us_per_event = router.MicrosAtMcuClock() / kEvents;
  EXPECT_NEAR(us_per_event, 77.79, 1.0);
}

TEST(EventRouter, CostScalesLinearly) {
  EventRouter a, b;
  auto run = [](EventRouter& r, int n) {
    for (int i = 0; i < n; ++i) {
      r.Post(0, Event::Of(kEventRead));
      r.ProcessAll([](int, const Event&) {});
    }
  };
  run(a, 100);
  run(b, 1000);
  EXPECT_NEAR(static_cast<double>(b.cycles()) / static_cast<double>(a.cycles()), 10.0, 0.01);
}

TEST(EventRouter, WakeupHookFiresOnPost) {
  EventRouter router;
  int wakeups = 0;
  router.set_on_post([&] { ++wakeups; });
  router.Post(0, Event::Of(kEventRead));
  router.PostError(0, Event::Of(kErrorTimeout));
  EXPECT_EQ(wakeups, 2);
}

TEST(EventRouter, ProcessAllBoundedByEntriesAtEntry) {
  // A sink that posts a new event on every dispatch must not livelock the
  // drain: ProcessAll handles only what was pending when it was called.
  EventRouter router;
  router.Post(0, Event::Of(kEventRead));
  router.Post(0, Event::Of(kEventRead));
  size_t reposts = 0;
  const size_t drained = router.ProcessAll([&](int, const Event&) {
    router.Post(0, Event::Of(kEventTick));
    ++reposts;
  });
  EXPECT_EQ(drained, 2u);
  EXPECT_EQ(reposts, 2u);
  EXPECT_EQ(router.pending(), 2u);  // the re-posts wait for the next drain
}

TEST(EventRouter, SelfRepostingDriverDrainTerminates) {
  // End-to-end shape of the livelock: a driver whose handler re-signals
  // itself on every dispatch.  Each drain terminates; pending work carries
  // over instead of spinning forever inside one call.
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  ChannelBus bus(sched);
  Result<DriverImage> image = CompileDriver(R"(
device 1;
int32_t n;
event init():
    signal this.spin();
event destroy():
    n = 0;
event spin():
    n += 1;
    signal this.spin();
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_TRUE(manager.InstallImage(*image).ok());
  ASSERT_TRUE(manager.Activate(0, image->device_id, bus).ok());

  // Every pump must return after a bounded number of dispatches.
  for (int pump = 0; pump < 10; ++pump) {
    EXPECT_LE(manager.DispatchPending(), EventRouter::kQueueDepth);
  }
  EXPECT_GE(manager.HostForChannel(0)->vm().global(0), 9);  // it did make progress
  ASSERT_TRUE(manager.Deactivate(0).ok());
}

// ------------------------------------------------------------------- vm ----

// Compiles a snippet wrapped in a minimal driver, decodes it, and runs
// handlers against a recording VmHost.
class VmFixture : public VmHost {
 public:
  explicit VmFixture(const std::string& source) {
    Result<DriverImage> image = CompileDriver(source);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    if (!image.ok()) {
      return;
    }
    Result<std::shared_ptr<const DecodedImage>> decoded = DecodedImage::DecodeShared(*image);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (decoded.ok()) {
      vm_ = std::make_unique<Vm>(*decoded);
    }
  }

  Vm::ExecResult Run(const Event& event) { return vm_->Dispatch(event, this); }

  void OnSelfSignal(const Event& e) override { self_signals_.push_back(e); }
  void OnLibSignal(LibraryId lib, LibraryFunctionId fn,
                   std::span<const int32_t> args) override {
    lib_calls_.push_back({lib, fn, std::vector<int32_t>(args.begin(), args.end())});
  }

  struct LibCall {
    LibraryId lib;
    LibraryFunctionId fn;
    std::vector<int32_t> args;
  };

  std::unique_ptr<Vm> vm_;
  std::vector<Event> self_signals_;
  std::vector<LibCall> lib_calls_;
};

TEST(Vm, ArithmeticAndReturn) {
  VmFixture fx(R"(
device 1;
int32_t r;
event init():
    r = (7 * 6 - 2) / 4;
event destroy():
    r = 0;
event read():
    return r % 7;
)");
  ASSERT_NE(fx.vm_, nullptr);
  EXPECT_EQ(fx.Run(Event::Of(kEventInit)).outcome, Vm::Outcome::kDone);
  EXPECT_EQ(fx.vm_->global(0), 10);
  Vm::ExecResult r = fx.Run(Event::Of(kEventRead));
  EXPECT_EQ(r.outcome, Vm::Outcome::kValue);
  EXPECT_EQ(r.value, 3);
}

TEST(Vm, TypeTruncationOnStore) {
  VmFixture fx(R"(
device 1;
uint8_t u8;
int8_t s8;
int16_t s16;
bool b;
event init():
    u8 = 260;
    s8 = 130;
    s16 = 70000;
    b = 42;
event destroy():
    u8 = 0;
)");
  fx.Run(Event::Of(kEventInit));
  EXPECT_EQ(fx.vm_->global(0), 4);       // 260 & 0xff
  EXPECT_EQ(fx.vm_->global(1), -126);    // 130 as int8
  EXPECT_EQ(fx.vm_->global(2), 4464);    // 70000 as int16
  EXPECT_EQ(fx.vm_->global(3), 1);       // bool normalizes
}

TEST(Vm, ControlFlowLoops) {
  VmFixture fx(R"(
device 1;
int32_t sum, i;
event init():
    sum = 0;
    i = 1;
    while i <= 10:
        sum += i;
        i += 1;
event destroy():
    sum = 0;
event read():
    return sum;
)");
  fx.Run(Event::Of(kEventInit));
  EXPECT_EQ(fx.Run(Event::Of(kEventRead)).value, 55);
}

TEST(Vm, ShortCircuitLogic) {
  VmFixture fx(R"(
device 1;
int32_t r;
event init():
    if 1 == 1 or 1 / 0 == 0:
        r = 1;
event destroy():
    r = 0;
)");
  // Without short-circuit, `1/0` would trap.
  Vm::ExecResult result = fx.Run(Event::Of(kEventInit));
  EXPECT_EQ(result.outcome, Vm::Outcome::kDone);
  EXPECT_EQ(fx.vm_->global(0), 1);
}

TEST(Vm, ArrayStoreLoadWithPostIncrement) {
  VmFixture fx(R"(
device 1;
uint8_t idx, buf[4];
event init():
    idx = 0;
    buf[idx++] = 10;
    buf[idx++] = 20;
event destroy():
    idx = 0;
event read():
    return buf[0] + buf[1] + idx;
)");
  fx.Run(Event::Of(kEventInit));
  EXPECT_EQ(fx.Run(Event::Of(kEventRead)).value, 32);
}

TEST(Vm, ReturnArrayViewsVmBuffer) {
  VmFixture fx(R"(
device 1;
uint8_t buf[3];
event init():
    buf[0] = 1;
    buf[1] = 2;
    buf[2] = 3;
event destroy():
    buf[0] = 0;
event read():
    return buf;
)");
  fx.Run(Event::Of(kEventInit));
  Vm::ExecResult r = fx.Run(Event::Of(kEventRead));
  EXPECT_EQ(r.outcome, Vm::Outcome::kArray);
  // Zero-allocation result: a view into the VM's own array storage.
  EXPECT_EQ(std::vector<uint8_t>(r.array.begin(), r.array.end()),
            (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.array.data(), fx.vm_->array(0).data());
}

// The runtime traps below use an event argument as the dangerous value: the
// abstract interpreter cannot prove the site unsafe (the argument is
// arbitrary), so the image installs and the check stays as a runtime trap.
// The provable variants (a constant zero divisor, a constant out-of-bounds
// index, `while true:`) are now rejected at decode time — see
// tests/abstract_interp_test.cpp.

TEST(Vm, DivisionByZeroTraps) {
  VmFixture fx(R"(
device 1;
int32_t r;
event init():
    r = 0;
event destroy():
    r = 0;
event write(int32_t value):
    r = 5 / value;
)");
  EXPECT_EQ(fx.Run(Event::Of(kEventWrite, 5)).outcome, Vm::Outcome::kDone);
  Vm::ExecResult result = fx.Run(Event::Of(kEventWrite, 0));
  EXPECT_EQ(result.outcome, Vm::Outcome::kTrap);
  EXPECT_NE(result.trap.message().find("division by zero"), std::string::npos);
}

TEST(Vm, ArrayBoundsTrap) {
  VmFixture fx(R"(
device 1;
uint8_t buf[2];
event init():
    buf[0] = 0;
event destroy():
    buf[0] = 0;
event write(int32_t value):
    buf[value] = 1;
)");
  EXPECT_EQ(fx.Run(Event::Of(kEventWrite, 1)).outcome, Vm::Outcome::kDone);
  EXPECT_EQ(fx.Run(Event::Of(kEventWrite, 9)).outcome, Vm::Outcome::kTrap);
}

TEST(Vm, WatchdogStopsRunawayHandler) {
  VmFixture fx(R"(
device 1;
int32_t i;
event init():
    i = 0;
event destroy():
    i = 0;
event write(int32_t value):
    while value != 0:
        i += 1;
)");
  EXPECT_EQ(fx.Run(Event::Of(kEventWrite, 0)).outcome, Vm::Outcome::kDone);
  Vm::ExecResult result = fx.Run(Event::Of(kEventWrite, 1));
  EXPECT_EQ(result.outcome, Vm::Outcome::kTrap);
  EXPECT_NE(result.trap.message().find("watchdog"), std::string::npos);
}

TEST(Vm, NoHandlerOutcome) {
  VmFixture fx(R"(
device 1;
int32_t x;
event init():
    x = 0;
event destroy():
    x = 0;
)");
  EXPECT_EQ(fx.Run(Event::Of(kEventRead)).outcome, Vm::Outcome::kNoHandler);
}

TEST(Vm, SignalsReachSinks) {
  VmFixture fx(R"(
device 1;
import adc;
event init():
    signal adc.init(ADC_REF_VDD, ADC_RES_10BIT);
    signal this.helper();
event destroy():
    signal adc.reset();
event helper():
    signal adc.read();
)");
  fx.Run(Event::Of(kEventInit));
  ASSERT_EQ(fx.lib_calls_.size(), 1u);
  EXPECT_EQ(fx.lib_calls_[0].lib, kLibAdc);
  EXPECT_EQ(fx.lib_calls_[0].fn, kAdcInit);
  EXPECT_EQ(fx.lib_calls_[0].args, (std::vector<int32_t>{0, 10}));
  ASSERT_EQ(fx.self_signals_.size(), 1u);
  EXPECT_EQ(fx.self_signals_[0].id, kEventCustomBase);
}

TEST(Vm, CycleAccountingAccumulates) {
  VmFixture fx(R"(
device 1;
int32_t x;
event init():
    x = 1 + 2;
event destroy():
    x = 0;
)");
  Vm::ExecResult r = fx.Run(Event::Of(kEventInit));
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GT(r.cycles, r.instructions);  // every op costs > 1 cycle
  EXPECT_EQ(fx.vm_->total_instructions(), r.instructions);
}

// Section 6.2 guard: the decoded dispatch loop must charge exactly the same
// instruction and cycle counts as the seed byte-walking interpreter, for
// every bundled driver and the whole lifecycle event vocabulary.
TEST(Vm, DecodedAccountingBitIdenticalToReference) {
  // A null host: signals vanish, which keeps both paths deterministic.
  struct NullHost final : VmHost {
    void OnSelfSignal(const Event&) override {}
    void OnLibSignal(LibraryId, LibraryFunctionId, std::span<const int32_t>) override {}
  } host;

  for (const BundledDriver& d : BundledDrivers()) {
    Result<DriverImage> image = CompileDriver(d.source);
    ASSERT_TRUE(image.ok()) << d.name;
    Result<std::shared_ptr<const DecodedImage>> decoded = DecodedImage::DecodeShared(*image);
    ASSERT_TRUE(decoded.ok()) << d.name << ": " << decoded.status().ToString();

    Vm fast(*decoded);
    ReferenceVm reference(*image);
    const Event events[] = {Event::Of(kEventInit),        Event::Of(kEventRead),
                            Event::Of(kEventWrite, 1),    Event::Of(kEventNewData, 512),
                            Event::Of(kEventTick),        Event::Of(kEventDestroy)};
    for (const Event& event : events) {
      Vm::ExecResult a = fast.Dispatch(event, &host);
      Vm::ExecResult b = reference.Dispatch(event, &host);
      EXPECT_EQ(a.instructions, b.instructions) << d.name << " event " << int(event.id);
      EXPECT_EQ(a.cycles, b.cycles) << d.name << " event " << int(event.id);
      EXPECT_EQ(a.outcome, b.outcome) << d.name << " event " << int(event.id);
      EXPECT_EQ(a.value, b.value) << d.name << " event " << int(event.id);
    }
    EXPECT_EQ(fast.total_instructions(), reference.total_instructions()) << d.name;
    EXPECT_EQ(fast.total_cycles(), reference.total_cycles()) << d.name;
    for (size_t g = 0; g < image->scalar_types.size(); ++g) {
      EXPECT_EQ(fast.global(g), reference.global(g)) << d.name << " global " << g;
    }
  }
}

// Regression for the seed's handler-argument copy: the loop guarded on
// event.args.size() but consulted event.argc, and never clamped the
// handler's declared count to the 4 local slots.  An event claiming more
// arguments than it carries must bind only what exists; extras read as zero.
TEST(Vm, HandlerArgumentBindingClampsToLocalsAndEvent) {
  VmFixture fx(R"(
device 1;
event init():
    signal this.sum(1, 2, 3, 4);
event destroy():
    signal this.sum(0, 0, 0, 0);
event sum(int32_t a, int32_t b, int32_t c, int32_t d):
    return a + b + c + d;
)");
  ASSERT_NE(fx.vm_, nullptr);

  // Four declared, four provided.
  Event full;
  full.id = kEventCustomBase;
  full.argc = 4;
  full.args = {10, 20, 30, 40};
  EXPECT_EQ(fx.Run(full).value, 100);

  // An event whose argc over-claims what the 4-slot payload can carry.
  Event overclaimed = full;
  overclaimed.argc = 9;
  EXPECT_EQ(fx.Run(overclaimed).value, 100);

  // Fewer arguments than the handler declares: missing ones read as zero.
  Event partial;
  partial.id = kEventCustomBase;
  partial.argc = 2;
  partial.args = {10, 20, 999, 999};
  EXPECT_EQ(fx.Run(partial).value, 30);

  // The seed interpreter applies the same clamp.
  ReferenceVm reference(fx.vm_->image());
  EXPECT_EQ(reference.Dispatch(overclaimed, nullptr).value, 100);
  EXPECT_EQ(reference.Dispatch(partial, nullptr).value, 30);
}

// ----------------------------------------------- end-to-end driver runs ----

// Full runtime harness: controller + manager with all bundled drivers
// installed; plugging a peripheral auto-activates its driver.
class RuntimeHarness {
 public:
  RuntimeHarness()
      : rng_(42), manager_(scheduler_, router_, cache_), controller_(scheduler_, rng_) {
    for (const BundledDriver& d : BundledDrivers()) {
      Result<DriverImage> image = CompileDriver(d.source);
      EXPECT_TRUE(image.ok()) << d.name << ": " << image.status().ToString();
      if (image.ok()) {
        EXPECT_TRUE(manager_.InstallImage(*image).ok());
      }
    }
    controller_.set_change_listener([this](ChannelId ch, DeviceTypeId id, bool connected) {
      if (connected) {
        EXPECT_TRUE(manager_.Activate(ch, id, controller_.bus(ch)).ok());
      } else {
        EXPECT_TRUE(manager_.Deactivate(ch).ok());
      }
    });
  }

  // Plugs and waits for identification + driver init.
  void PlugAndSettle(ChannelId ch, Peripheral* p) {
    ASSERT_TRUE(controller_.Plug(ch, p).ok());
    scheduler_.RunUntil(scheduler_.now() + SimTime::FromMillis(400));
    ASSERT_NE(manager_.HostForChannel(ch), nullptr) << "driver did not activate";
  }

  // Issues a remote-style read and runs the simulation until a value is
  // produced or the deadline passes.
  std::optional<ProducedValue> Read(ChannelId ch, double deadline_ms = 1000.0) {
    DriverHost* host = manager_.HostForChannel(ch);
    if (host == nullptr) {
      return std::nullopt;
    }
    std::optional<ProducedValue> produced;
    host->set_result_handler([&](const ProducedValue& v) { produced = v; });
    router_.Post(ch, Event::Of(kEventRead));
    const SimTime deadline = scheduler_.now() + SimTime::FromMillis(deadline_ms);
    while (!produced.has_value() && (scheduler_.now() < deadline) && !scheduler_.empty()) {
      scheduler_.Step();
    }
    return produced;
  }

  Scheduler scheduler_;
  EventRouter router_;
  Rng rng_;
  Environment env_;
  DecodeCache cache_;
  DriverManager manager_;
  PeripheralController controller_;
};

TEST(EndToEnd, Tmp36DriverMeasuresEnvironmentTemperature) {
  RuntimeHarness h;
  Tmp36 sensor(h.env_);
  h.PlugAndSettle(0, &sensor);
  std::optional<ProducedValue> v = h.Read(0);
  ASSERT_TRUE(v.has_value());
  const double celsius = static_cast<double>(v->scalar) / 10.0;  // driver returns 0.1 degC
  EXPECT_NEAR(celsius, h.env_.TemperatureC(h.scheduler_.now()), 0.5);
}

TEST(EndToEnd, Hih4030DriverMeasuresHumidity) {
  RuntimeHarness h;
  Hih4030 sensor(h.env_);
  h.PlugAndSettle(0, &sensor);
  std::optional<ProducedValue> v = h.Read(0);
  ASSERT_TRUE(v.has_value());
  const double rh = static_cast<double>(v->scalar) / 10.0;
  EXPECT_NEAR(rh, h.env_.HumidityPct(h.scheduler_.now()), 1.5);
}

TEST(EndToEnd, Bmp180DriverRunsFullCompensationPipeline) {
  RuntimeHarness h;
  Bmp180 sensor(h.env_);
  h.PlugAndSettle(0, &sensor);
  std::optional<ProducedValue> v = h.Read(0);
  ASSERT_TRUE(v.has_value());
  // First read includes full calibration readout (11 register reads).
  EXPECT_NEAR(static_cast<double>(v->scalar), h.env_.PressurePa(h.scheduler_.now()), 40.0);

  // Second read skips calibration and still works.
  std::optional<ProducedValue> v2 = h.Read(0);
  ASSERT_TRUE(v2.has_value());
  EXPECT_NEAR(static_cast<double>(v2->scalar), h.env_.PressurePa(h.scheduler_.now()), 40.0);
}

TEST(EndToEnd, Id20LaDriverAssemblesCardFrames) {
  RuntimeHarness h;
  Id20La reader;
  h.PlugAndSettle(0, &reader);

  DriverHost* host = h.manager_.HostForChannel(0);
  std::optional<ProducedValue> produced;
  host->set_result_handler([&](const ProducedValue& v) { produced = v; });

  h.router_.Post(0, Event::Of(kEventRead));  // arm the reader
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(5));

  RfidCard card = {0x4a, 0x00, 0xd2, 0x3f, 0x81};
  ASSERT_TRUE(reader.PresentCard(card));
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(50));

  ASSERT_TRUE(produced.has_value());
  ASSERT_TRUE(produced->is_array);
  const std::string payload(produced->bytes.begin(), produced->bytes.end());
  EXPECT_EQ(payload, Id20LaPayload(card));
  EXPECT_TRUE(ValidateId20LaPayload(payload));
}

TEST(EndToEnd, RelayDriverWritesAndReadsBack) {
  RuntimeHarness h;
  Relay relay;
  h.PlugAndSettle(0, &relay);

  h.router_.Post(0, Event::Of(kEventWrite, 1));
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(5));
  EXPECT_TRUE(relay.closed());

  std::optional<ProducedValue> v = h.Read(0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->scalar, 1);

  h.router_.Post(0, Event::Of(kEventWrite, 0));
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(5));
  EXPECT_FALSE(relay.closed());
  EXPECT_EQ(relay.switch_count(), 2u);
}

TEST(EndToEnd, UnplugFiresDestroyAndReleasesUart) {
  RuntimeHarness h;
  Id20La reader;
  h.PlugAndSettle(0, &reader);
  EXPECT_TRUE(h.controller_.bus(0).uart().initialized());  // driver claimed it

  ASSERT_TRUE(h.controller_.Unplug(0).ok());
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(400));
  EXPECT_EQ(h.manager_.HostForChannel(0), nullptr);
  EXPECT_FALSE(h.controller_.bus(0).uart().initialized());  // destroy released it
}

TEST(EndToEnd, HotSwapBetweenPeripheralTypes) {
  RuntimeHarness h;
  Tmp36 temp(h.env_);
  h.PlugAndSettle(0, &temp);
  EXPECT_EQ(h.manager_.HostForChannel(0)->device_id(), kTmp36TypeId);

  ASSERT_TRUE(h.controller_.Unplug(0).ok());
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(400));

  Bmp180 pressure(h.env_);
  h.PlugAndSettle(0, &pressure);
  EXPECT_EQ(h.manager_.HostForChannel(0)->device_id(), kBmp180TypeId);
  std::optional<ProducedValue> v = h.Read(0);
  ASSERT_TRUE(v.has_value());
}

TEST(EndToEnd, ThreePeripheralsConcurrently) {
  RuntimeHarness h;
  Tmp36 temp(h.env_);
  Hih4030 humidity(h.env_);
  Relay relay;
  ASSERT_TRUE(h.controller_.Plug(0, &temp).ok());
  ASSERT_TRUE(h.controller_.Plug(1, &humidity).ok());
  ASSERT_TRUE(h.controller_.Plug(2, &relay).ok());
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(800));
  EXPECT_EQ(h.manager_.active_hosts(), 3u);
  EXPECT_TRUE(h.Read(0).has_value());
  EXPECT_TRUE(h.Read(1).has_value());
  EXPECT_TRUE(h.Read(2).has_value());
}

TEST(EndToEnd, UartInUseErrorReachesSecondDriver) {
  // Two UART drivers on the same channel bus cannot coexist; the second
  // init must raise uartInUse (Listing 1's error path).  We simulate by
  // claiming the port before the driver initializes.
  RuntimeHarness h;
  Id20La reader;
  ASSERT_TRUE(h.controller_.Plug(0, &reader).ok());
  ASSERT_TRUE(h.controller_.bus(0).uart().Init(UartConfig{}).ok());  // usurp the port
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(400));
  // Driver activated but its init hit uartInUse -> driver signalled destroy.
  DriverHost* host = h.manager_.HostForChannel(0);
  ASSERT_NE(host, nullptr);
  EXPECT_GE(host->events_handled(), 2u);  // init + uartInUse at minimum
}

// ------------------------------------------------------- driver manager ----

TEST(DriverManager, InstallRemoveDiscover) {
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  Result<DriverImage> image = CompileDriver(BundledDrivers()[0].source);
  ASSERT_TRUE(image.ok());

  EXPECT_FALSE(manager.HasDriverFor(image->device_id));
  ASSERT_TRUE(manager.InstallImage(*image).ok());
  EXPECT_TRUE(manager.HasDriverFor(image->device_id));
  EXPECT_EQ(manager.InstalledDrivers().size(), 1u);
  ASSERT_TRUE(manager.RemoveImage(image->device_id).ok());
  EXPECT_EQ(manager.RemoveImage(image->device_id).code(), StatusCode::kNotFound);
}

TEST(DriverManager, RejectsReservedDeviceIds) {
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  DriverImage image;
  image.device_id = kDeviceTypeAllPeripherals;
  EXPECT_FALSE(manager.InstallImage(image).ok());
  image.device_id = kDeviceTypeAllClients;
  EXPECT_FALSE(manager.InstallImage(image).ok());
}

TEST(DriverManager, CannotRemoveImageInUse) {
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  ChannelBus bus(sched);
  Result<DriverImage> image = CompileDriver(BundledDrivers()[0].source);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(manager.InstallImage(*image).ok());
  ASSERT_TRUE(manager.Activate(0, image->device_id, bus).ok());
  EXPECT_EQ(manager.RemoveImage(image->device_id).code(), StatusCode::kBusy);
  ASSERT_TRUE(manager.Deactivate(0).ok());
  EXPECT_TRUE(manager.RemoveImage(image->device_id).ok());
}

TEST(DriverManager, DecodeCacheSkipsVerifyOnReinstall) {
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  Result<DriverImage> image = CompileDriver(BundledDrivers()[0].source);
  ASSERT_TRUE(image.ok());

  ASSERT_TRUE(manager.InstallImage(*image).ok());
  EXPECT_EQ(manager.decode_cache_hits(), 0u);

  // Re-deploying byte-identical bytes hits the CRC-keyed cache...
  ASSERT_TRUE(manager.InstallImage(*image).ok());
  EXPECT_EQ(manager.decode_cache_hits(), 1u);

  // ...even across a remove (re-plugging the same device type is free).
  ASSERT_TRUE(manager.RemoveImage(image->device_id).ok());
  ASSERT_TRUE(manager.InstallImage(*image).ok());
  EXPECT_EQ(manager.decode_cache_hits(), 2u);

  // Every host for the device type shares one decoded image.
  ChannelBus bus_a(sched), bus_b(sched);
  ASSERT_TRUE(manager.Activate(0, image->device_id, bus_a).ok());
  ASSERT_TRUE(manager.Activate(1, image->device_id, bus_b).ok());
  EXPECT_EQ(&manager.HostForChannel(0)->vm().decoded(),
            &manager.HostForChannel(1)->vm().decoded());
}

TEST(DriverManager, InstallRejectsStaticallyInvalidImage) {
  // Load-time verification: a corrupt image is refused at DEPLOY time with a
  // Status, never discovered mid-handler.
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  Result<DriverImage> image = CompileDriver(BundledDrivers()[0].source);
  ASSERT_TRUE(image.ok());
  DriverImage corrupt = *image;
  corrupt.code[0] = 0xee;  // not an opcode
  const Status status = manager.InstallImage(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("invalid opcode"), std::string::npos);
  EXPECT_FALSE(manager.HasDriverFor(corrupt.device_id));
}

TEST(DriverManager, ActivateWithoutImageFails) {
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  ChannelBus bus(sched);
  EXPECT_EQ(manager.Activate(0, 0xdeadbeef, bus).code(), StatusCode::kNotFound);
}

TEST(DriverManager, ActivateOnAChannelTheBoardLacksFails) {
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  ChannelBus bus(sched);
  Result<DriverImage> image = CompileDriver(BundledDrivers()[0].source);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(manager.InstallImage(*image).ok());
  EXPECT_EQ(manager.Activate(ControlBoard::kNumChannels, image->device_id, bus).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(manager.HostForChannel(ControlBoard::kNumChannels), nullptr);
  EXPECT_EQ(manager.active_hosts(), 0u);
}

// Deactivation destroys the driver's native libraries.  A completion one of
// them scheduled and that is still pending must die with it: it must neither
// run on the freed library nor reach the next driver activated on the channel.
TEST(DriverManager, DeactivateDropsAdcConversionInFlight) {
  RuntimeHarness h;
  Tmp36 sensor(h.env_);
  h.PlugAndSettle(0, &sensor);
  h.router_.Post(0, Event::Of(kEventRead));
  // The read handler starts a 104 us conversion; deactivate halfway through.
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMicros(50));
  ASSERT_TRUE(h.manager_.Deactivate(0).ok());

  ASSERT_TRUE(h.manager_.Activate(0, kTmp36TypeId, h.controller_.bus(0)).ok());
  int produced = 0;
  h.manager_.HostForChannel(0)->set_result_handler([&](const ProducedValue&) { ++produced; });
  h.scheduler_.RunUntil(h.scheduler_.now() + SimTime::FromMillis(10));
  EXPECT_EQ(produced, 0);
}

TEST(DriverManager, DeactivateDropsArmedOnceTimer) {
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  ChannelBus bus(sched);
  Result<DriverImage> image = CompileDriver(R"(
device 1;
import timer;
int32_t n;
event init():
    n = 0;
event destroy():
    signal timer.stop();
event read():
    signal timer.once(5);
event tick():
    return 1;
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_TRUE(manager.InstallImage(*image).ok());
  ASSERT_TRUE(manager.Activate(0, image->device_id, bus).ok());
  router.Post(0, Event::Of(kEventRead));
  sched.RunUntil(sched.now() + SimTime::FromMillis(1));  // timer.once(5) armed
  ASSERT_TRUE(manager.Deactivate(0).ok());

  ASSERT_TRUE(manager.Activate(0, image->device_id, bus).ok());
  int produced = 0;
  manager.HostForChannel(0)->set_result_handler([&](const ProducedValue&) { ++produced; });
  sched.RunUntil(sched.now() + SimTime::FromMillis(20));
  EXPECT_EQ(produced, 0);
}

// -------------------------------------------------- peripheral controller --

TEST(PeripheralController, ScanTakesIdentificationTime) {
  Scheduler sched;
  Rng rng(7);
  PeripheralController controller(sched, rng);
  Environment env;
  Tmp36 sensor(env);

  bool connected = false;
  double connect_time_ms = 0;
  controller.set_change_listener([&](ChannelId, DeviceTypeId id, bool is_connected) {
    connected = is_connected;
    connect_time_ms = sched.now().millis();
    EXPECT_EQ(id, kTmp36TypeId);
  });
  ASSERT_TRUE(controller.Plug(0, &sensor).ok());
  sched.Run();
  EXPECT_TRUE(connected);
  // Section 6.1: identification takes 220..300 ms.
  EXPECT_GE(connect_time_ms, 220.0);
  EXPECT_LE(connect_time_ms, 300.0);
}

TEST(PeripheralController, MuxesBusAfterIdentification) {
  Scheduler sched;
  Rng rng(8);
  PeripheralController controller(sched, rng);
  Id20La reader;
  ASSERT_TRUE(controller.Plug(1, &reader).ok());
  EXPECT_EQ(controller.bus(1).selected(), std::nullopt);  // not yet identified
  sched.Run();
  EXPECT_TRUE(controller.bus(1).IsSelected(BusKind::kUart));
  EXPECT_EQ(controller.identified(1), kId20LaTypeId);
}

TEST(PeripheralController, UnplugNotifiesDisconnect) {
  Scheduler sched;
  Rng rng(9);
  PeripheralController controller(sched, rng);
  Environment env;
  Tmp36 sensor(env);
  std::vector<bool> notifications;
  controller.set_change_listener(
      [&](ChannelId, DeviceTypeId, bool is_connected) { notifications.push_back(is_connected); });
  ASSERT_TRUE(controller.Plug(0, &sensor).ok());
  sched.Run();
  ASSERT_TRUE(controller.Unplug(0).ok());
  sched.Run();
  EXPECT_EQ(notifications, (std::vector<bool>{true, false}));
  EXPECT_EQ(controller.identified(0), std::nullopt);
}

// ------------------------------------------------------------ footprint ----

TEST(Footprint, MatchesTable2Structure) {
  std::vector<FootprintEntry> rows = EmbeddedFootprint();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].component, "Peripheral Controller");
  EXPECT_EQ(rows[1].component, "uPnP Virtual Machine");

  FootprintEntry total = EmbeddedFootprintTotal();
  // Paper totals: 14231 B flash (10.8 %), 1518 B RAM (9.2 %).  The model is
  // calibrated, so require agreement within 10 %.
  EXPECT_NEAR(static_cast<double>(total.flash_bytes), 14231.0, 1423.0);
  EXPECT_NEAR(static_cast<double>(total.ram_bytes), 1518.0, 152.0);
  EXPECT_LT(total.flash_pct(), 12.0);
  EXPECT_LT(total.ram_pct(), 11.0);
}

TEST(Footprint, VmRowTracksRealDimensions) {
  // The VM row derives from the real opcode count and stack depth; moving
  // either must move the row.  (Guard against the model drifting from the
  // implementation.)
  std::vector<FootprintEntry> rows = EmbeddedFootprint();
  const FootprintEntry& vm = rows[1];
  EXPECT_EQ(vm.flash_bytes, 40u * 160u + 628u);
  EXPECT_GE(vm.ram_bytes, kVmStackDepth * 4);
}

}  // namespace
}  // namespace micropnp
