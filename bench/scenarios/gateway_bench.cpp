#include "bench/scenarios/gateway_bench.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "bench/scenarios/harness.h"
#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"

namespace micropnp {

namespace {

std::string DeterministicCell(const GatewayBenchResult& r) {
  return JsonCell()
      .Field("num_things", r.num_things)
      .Field("loss_rate", r.loss_rate)
      .Field("seed", r.seed)
      .Field("issued", r.issued)
      .Field("completed", r.completed)
      .Field("deadline_exceeded", r.deadline_exceeded)
      .Field("retransmits", r.retransmits)
      .Field("peak_in_flight", r.peak_in_flight)
      .Field("final_in_flight", r.final_in_flight)
      .Field("scheduler_events", r.scheduler_events)
      .Field("sim_duration_ms", r.sim_duration_ms)
      .Field("p50_ms", r.p50_ms)
      .Field("p99_ms", r.p99_ms)
      .Close();
}

std::string WallClockCell(const GatewayBenchResult& r) {
  return JsonCell()
      .Field("num_things", r.num_things)
      .Field("loss_rate", r.loss_rate)
      .Field("bringup_seconds", r.bringup_seconds)
      .Field("wall_seconds", r.wall_seconds)
      .Field("events_per_second", r.events_per_second)
      .Close();
}

}  // namespace

GatewayBenchResult RunGatewayBench(const GatewayBenchOptions& options) {
  DeploymentConfig config;
  config.seed = options.seed;
  const auto bringup_start = std::chrono::steady_clock::now();
  Deployment deployment(config);
  (void)deployment.AddManager();
  MicroPnpClient& gateway = deployment.AddClient(
      "gateway", nullptr, /*max_in_flight=*/static_cast<size_t>(options.window) + 64);

  // Fleet bring-up on lossless links: compile once, preinstall everywhere.
  // Re-advertisement is disabled — this bench isolates the read path, and
  // 10k concurrent trickle ladders would only perturb the event counts.
  ThingConfig thing_config;
  thing_config.readvertise_min_ms = 0.0;
  Result<DriverImage> image = CompileDriver(FindBundledDriver(kTmp36TypeId)->source);
  std::vector<MicroPnpThing*> things;
  things.reserve(static_cast<size_t>(options.num_things));
  for (int i = 0; i < options.num_things; ++i) {
    MicroPnpThing& thing = deployment.AddThing("thing-" + std::to_string(i), nullptr, thing_config);
    (void)thing.PreinstallDriver(*image);
    Tmp36& sensor = deployment.MakeTmp36();
    if (thing.Plug(0, &sensor).ok()) {
      things.push_back(&thing);
    }
  }
  deployment.RunForMillis(1000);
  const double bringup_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bringup_start).count();

  LinkModel lossy = config.link;
  lossy.loss_rate = options.loss_rate;
  deployment.fabric().set_link(lossy);

  RequestOptions read_options;
  read_options.deadline_ms = options.deadline_ms;
  read_options.max_retransmits = options.max_retransmits;
  read_options.initial_backoff_ms = options.initial_backoff_ms;

  GatewayBenchResult result;
  result.num_things = options.num_things;
  result.loss_rate = options.loss_rate;
  result.seed = options.seed;
  result.bringup_seconds = bringup_seconds;
  if (things.empty() || options.total_reads <= 0) {
    return result;
  }

  const EndpointCounters before = gateway.endpoint().counters();
  const uint64_t events_before = deployment.scheduler().executed();
  const double sim_start_ms = deployment.NowMillis();

  // Closed loop: each completion issues the next read, keeping `window`
  // reads in flight.  This is also the arena's reentrancy stress: the
  // follow-up read legitimately reuses the slot the completing one just
  // released.
  int issued = 0;
  int resolved = 0;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(options.total_reads));
  std::function<void()> issue_next = [&] {
    if (issued >= options.total_reads) {
      return;
    }
    MicroPnpThing* thing = things[static_cast<size_t>(issued) % things.size()];
    ++issued;
    const double started_ms = deployment.NowMillis();
    gateway.Read(
        thing->node().address(), kTmp36TypeId,
        [&, started_ms](Result<WireValue> value) {
          ++resolved;
          if (value.ok()) {
            latencies.push_back(deployment.NowMillis() - started_ms);
          }
          issue_next();
        },
        read_options);
  };

  const auto wall_start = std::chrono::steady_clock::now();
  const int window = std::min(options.window, options.total_reads);
  for (int i = 0; i < window; ++i) {
    issue_next();
  }
  // Every read resolves by its deadline, so the loop terminates; the guard
  // only catches a lost-completion bug.
  const double guard_ms =
      deployment.NowMillis() +
      (static_cast<double>(options.total_reads) + 1.0) * (options.deadline_ms + 1000.0);
  while (resolved < options.total_reads && deployment.NowMillis() < guard_ms) {
    deployment.RunForMillis(500.0);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  const EndpointCounters& after = gateway.endpoint().counters();
  result.issued = static_cast<uint64_t>(issued);
  result.completed = after.completed_ok - before.completed_ok;
  result.deadline_exceeded = after.deadline_exceeded - before.deadline_exceeded;
  result.retransmits = after.retransmits - before.retransmits;
  result.peak_in_flight = after.peak_in_flight;
  result.final_in_flight = gateway.endpoint().in_flight();
  result.scheduler_events = deployment.scheduler().executed() - events_before;
  result.sim_duration_ms = deployment.NowMillis() - sim_start_ms;
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = Percentile(latencies, 0.5);
  result.p99_ms = Percentile(latencies, 0.99);
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events_per_second =
      result.wall_seconds > 0.0 ? static_cast<double>(result.scheduler_events) / result.wall_seconds
                                : 0.0;
  return result;
}

std::string DeterministicCellsJson(const std::vector<GatewayBenchResult>& results) {
  return CellsJson(results, DeterministicCell);
}

std::string GatewayBenchJson(const std::vector<GatewayBenchResult>& results) {
  return BenchJson("gateway", 4, DeterministicCellsJson(results),
                   CellsJson(results, WallClockCell));
}

}  // namespace micropnp
