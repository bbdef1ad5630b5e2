// Host heap counters, one per test:
//  * the heap cost of one simulated Thing at Deployment::AddThing, before
//    anything is plugged.  A fleet of 10k Things pays this 10k times, so it
//    bounds peak RSS for every fleet-scale bench;
//  * allocations per read on a warm, lossless gateway read loop: the steady
//    request path through client, endpoint, fabric, scheduler, Thing and VM;
//  * the extra heap a Thing's first read on a channel costs over a steady
//    read: the per-channel state the Thing sets up on demand;
//  * allocations on a warm schedule/cancel/run churn of small closures;
//  * the heap one plug flow costs, from Plug() to the advertisement that
//    announces the peripheral: identification scan, driver activation and
//    the (1) multicast.
// The counter is the global allocation functions, replaced below; this file
// is its own executable, so the replacement counts this test's allocations
// only.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"

namespace {

size_t g_bytes = 0;
size_t g_allocations = 0;
// Allocation counts by block size while `g_histogram_on`; the last bucket
// collects every block of kHistogramSizes bytes or more.
constexpr size_t kHistogramSizes = 2048;
std::array<size_t, kHistogramSizes + 1> g_by_size{};
bool g_histogram_on = false;

}  // namespace

void* operator new(std::size_t size) {
  g_bytes += size;
  ++g_allocations;
  if (g_histogram_on) {
    ++g_by_size[std::min(size, kHistogramSizes)];
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace micropnp {
namespace {

// Prints the block sizes allocated at least once per `unit` (one Thing, one
// plug flow) since the histogram was last cleared, with their count per unit.
void PrintBlocksPer(const char* unit, int units) {
  std::printf("blocks per %s (size: count):", unit);
  for (size_t size = 0; size <= kHistogramSizes; ++size) {
    if (g_by_size[size] >= static_cast<size_t>(units)) {
      std::printf(" %zu%s: %.2f", size, size == kHistogramSizes ? "+" : "",
                  static_cast<double>(g_by_size[size]) / units);
    }
  }
  std::printf("\n");
}

TEST(Footprint, HeapPerAddThing) {
  constexpr int kWarmup = 100;
  constexpr int kThings = 1000;
  Deployment deployment;
  for (int i = 0; i < kWarmup; ++i) {
    deployment.AddThing(std::string("w") += std::to_string(i));
  }

  const size_t bytes_before = g_bytes;
  const size_t allocations_before = g_allocations;
  g_by_size.fill(0);
  g_histogram_on = true;
  for (int i = 0; i < kThings; ++i) {
    deployment.AddThing(std::string("t") += std::to_string(i));
  }
  g_histogram_on = false;
  const double bytes = static_cast<double>(g_bytes - bytes_before) / kThings;
  const double allocations = static_cast<double>(g_allocations - allocations_before) / kThings;

  std::printf("heap per AddThing: %.0f B in %.2f allocations; sizeof(MicroPnpThing) = %zu B\n",
              bytes, allocations, sizeof(MicroPnpThing));
  PrintBlocksPer("Thing", kThings);

  EXPECT_LE(bytes, 4096.0);
  EXPECT_LE(allocations, 8.0);
}

// A closed loop of gateway reads over a preinstalled TMP36 fleet: each
// completion issues the next read, keeping kWindow in flight.  The callback
// captures one pointer, so std::function stores it inline and the loop
// itself allocates nothing per read.
struct ReadLoop {
  static constexpr int kWarmupReads = 5000;
  static constexpr int kMeasuredReads = 20000;
  static constexpr int kWindow = 256;

  MicroPnpClient* gateway = nullptr;
  std::vector<MicroPnpThing*> things;
  int issued = 0;
  int completed = 0;
  int failed = 0;
  size_t allocations_at_start = 0;
  size_t allocations_at_end = 0;

  void IssueNext() {
    // The window stays full until the last measured read completes.
    if (issued >= kWarmupReads + kMeasuredReads + kWindow) {
      return;
    }
    MicroPnpThing* thing = things[static_cast<size_t>(issued) % things.size()];
    ++issued;
    gateway->Read(thing->node().address(), kTmp36TypeId,
                  [this](Result<WireValue> value) { OnRead(value.ok()); });
  }

  void OnRead(bool ok) {
    failed += ok ? 0 : 1;
    ++completed;
    if (completed == kWarmupReads) {
      allocations_at_start = g_allocations;
    } else if (completed == kWarmupReads + kMeasuredReads) {
      allocations_at_end = g_allocations;
    }
    IssueNext();
  }
};

TEST(Footprint, AllocationsPerSteadyRead) {
  constexpr int kThings = 1000;
  Deployment deployment;
  (void)deployment.AddManager();
  ReadLoop loop;
  loop.gateway = &deployment.AddClient("gateway", nullptr, ReadLoop::kWindow + 64);
  // Lossless fleet bring-up with re-advertisement off, as in bench_gateway:
  // only reads run once the fleet is up.
  ThingConfig thing_config;
  thing_config.readvertise_min_ms = 0.0;
  Result<DriverImage> image = CompileDriver(FindBundledDriver(kTmp36TypeId)->source);
  ASSERT_TRUE(image.ok());
  for (int i = 0; i < kThings; ++i) {
    MicroPnpThing& thing =
        deployment.AddThing(std::string("t") += std::to_string(i), nullptr, thing_config);
    ASSERT_TRUE(thing.PreinstallDriver(*image).ok());
    ASSERT_TRUE(thing.Plug(0, &deployment.MakeTmp36()).ok());
    loop.things.push_back(&thing);
  }
  deployment.RunForMillis(1000);

  const uint64_t events_before = deployment.scheduler().executed();
  for (int i = 0; i < ReadLoop::kWindow; ++i) {
    loop.IssueNext();
  }
  deployment.scheduler().Run();
  ASSERT_EQ(loop.completed, loop.issued);
  ASSERT_GE(loop.completed, ReadLoop::kWarmupReads + ReadLoop::kMeasuredReads);
  EXPECT_EQ(loop.failed, 0);

  const double per_read = static_cast<double>(loop.allocations_at_end - loop.allocations_at_start) /
                          ReadLoop::kMeasuredReads;
  const double events_per_read =
      static_cast<double>(deployment.scheduler().executed() - events_before) / loop.completed;
  std::printf("steady read: %.2f allocations per read, %.2f scheduler events per read\n",
              per_read, events_per_read);
  EXPECT_LE(per_read, 2.05);
}

TEST(Footprint, FirstReadOnAChannelCostsLittleMoreThanASteadyRead) {
  Deployment deployment;
  MicroPnpClient& gateway = deployment.AddClient("gateway");
  ThingConfig thing_config;
  thing_config.readvertise_min_ms = 0.0;
  Result<DriverImage> image = CompileDriver(FindBundledDriver(kTmp36TypeId)->source);
  ASSERT_TRUE(image.ok());
  std::vector<MicroPnpThing*> things;
  for (int i = 0; i < 2; ++i) {
    MicroPnpThing& thing =
        deployment.AddThing(std::string("t") += std::to_string(i), nullptr, thing_config);
    ASSERT_TRUE(thing.PreinstallDriver(*image).ok());
    ASSERT_TRUE(thing.Plug(0, &deployment.MakeTmp36()).ok());
    things.push_back(&thing);
  }
  deployment.RunForMillis(1000);

  // One read, run to completion; returns the bytes it allocated.
  int ok_reads = 0;
  auto read_bytes = [&](MicroPnpThing& thing) {
    const size_t before = g_bytes;
    gateway.Read(thing.node().address(), kTmp36TypeId,
                 [&ok_reads](Result<WireValue> value) { ok_reads += value.ok() ? 1 : 0; });
    deployment.scheduler().Run();
    return g_bytes - before;
  };
  // Reads of the first Thing warm the client, endpoint, fabric and
  // scheduler, so what the second Thing's first read adds is its own.
  for (int i = 0; i < 10; ++i) {
    (void)read_bytes(*things[0]);
  }
  const size_t first = read_bytes(*things[1]);
  constexpr int kSteadyReads = 10;
  size_t steady_total = 0;
  for (int i = 0; i < kSteadyReads; ++i) {
    steady_total += read_bytes(*things[1]);
  }
  ASSERT_EQ(ok_reads, 10 + 1 + kSteadyReads);
  const double steady = static_cast<double>(steady_total) / kSteadyReads;
  std::printf("first read on a channel: %zu B; steady read: %.1f B\n", first, steady);
  EXPECT_LE(static_cast<double>(first), steady + 64.0);
}

TEST(Footprint, AllocationsPerPlugFlow) {
  // Preinstalled TMP36 Things on the star, plugged one per millisecond and
  // each run until its flow has advertised.  Re-advertisement is off, so
  // nothing but the plug flows runs.  The warm-up flows grow the
  // scheduler's and the fabric's pools to the counted flows' peak.
  constexpr int kWarmupPlugs = 200;
  constexpr int kPlugs = 2000;  // over 2 s of simulated time
  Deployment deployment;
  ThingConfig thing_config;
  thing_config.readvertise_min_ms = 0.0;
  Result<DriverImage> image = CompileDriver(FindBundledDriver(kTmp36TypeId)->source);
  ASSERT_TRUE(image.ok());
  std::vector<MicroPnpThing*> things;
  std::vector<Peripheral*> sensors;
  for (int i = 0; i < kWarmupPlugs + kPlugs; ++i) {
    MicroPnpThing& thing =
        deployment.AddThing(std::string("t") += std::to_string(i), nullptr, thing_config);
    ASSERT_TRUE(thing.PreinstallDriver(*image).ok());
    things.push_back(&thing);
    sensors.push_back(&deployment.MakeTmp36());
  }
  // Plugs things[from, to), then runs until the last flow has advertised
  // (identification takes ~230 ms, the rest of the flow ~75 ms).
  int plug_errors = 0;
  auto plug_range = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      plug_errors += things[i]->Plug(0, sensors[i]).ok() ? 0 : 1;
      deployment.RunForMillis(1.0);
    }
    deployment.RunForMillis(1000.0);
  };
  plug_range(0, kWarmupPlugs);

  const size_t bytes_before = g_bytes;
  const size_t allocations_before = g_allocations;
  g_by_size.fill(0);
  g_histogram_on = true;
  plug_range(kWarmupPlugs, kWarmupPlugs + kPlugs);
  g_histogram_on = false;
  const double bytes = static_cast<double>(g_bytes - bytes_before) / kPlugs;
  const double allocations = static_cast<double>(g_allocations - allocations_before) / kPlugs;

  EXPECT_EQ(plug_errors, 0);
  int ready = 0;
  for (const MicroPnpThing* thing : things) {
    ready += thing->advertisements_sent() == 1 ? 1 : 0;
  }
  EXPECT_EQ(ready, kWarmupPlugs + kPlugs);
  std::printf("plug flow: %.0f B in %.2f allocations\n", bytes, allocations);
  PrintBlocksPer("plug flow", kPlugs);
  EXPECT_LE(allocations, 13.05);
}

TEST(Footprint, NoAllocationsOnWarmSchedulerChurn) {
  // Rounds of 1k schedules with 16-byte closures, half of them cancelled,
  // then a drain: the endpoint's arm-then-cancel timer pattern.  The first
  // round grows the scheduler's storage to its peak; later rounds reuse it.
  constexpr int kPerRound = 1000;
  constexpr int kRounds = 100;
  Scheduler sched;
  std::vector<Scheduler::EventId> ids;
  ids.reserve(kPerRound);
  uint64_t ran = 0;
  auto round = [&] {
    ids.clear();
    for (int i = 0; i < kPerRound; ++i) {
      auto action = [&ran, i] { ran += static_cast<uint64_t>(i % 2); };
      static_assert(sizeof(action) == 16);
      ids.push_back(sched.ScheduleAfter(SimTime::FromMicros(1 + i % 97), action));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      EXPECT_TRUE(sched.Cancel(ids[i]));
    }
    sched.Run();
  };
  round();

  const size_t before = g_allocations;
  for (int r = 0; r < kRounds; ++r) {
    round();
  }
  const size_t allocations = g_allocations - before;
  std::printf("warm scheduler churn: %zu allocations over %d schedules\n", allocations,
              kPerRound * kRounds);
  EXPECT_EQ(ran, uint64_t{kPerRound / 2} * (kRounds + 1));  // each surviving (odd) i adds 1
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace micropnp
