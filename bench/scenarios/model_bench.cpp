#include "bench/scenarios/model_bench.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "bench/scenarios/harness.h"
#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/model/model_server.h"

namespace micropnp {

namespace {

std::string DeterministicCell(const ModelBenchResult& r) {
  return JsonCell()
      .Field("num_things", r.num_things)
      .Field("num_clients", r.num_clients)
      .Field("loss_rate", r.loss_rate)
      .Field("seed", r.seed)
      .Field("fleet_size", r.fleet_size)
      .Field("reads", r.reads)
      .Field("cache_hits", r.cache_hits)
      .Field("cache_misses", r.cache_misses)
      .Field("coalesced_reads", r.coalesced_reads)
      .Field("device_reads", r.device_reads)
      .Field("read_failures", r.read_failures)
      .Field("writes", r.writes)
      .Field("device_writes", r.device_writes)
      .Field("write_failures", r.write_failures)
      .Field("hit_rate", r.hit_rate)
      .Field("amplification", r.amplification)
      .Field("hotspot_reads", r.hotspot_reads)
      .Field("hotspot_device_reads", r.hotspot_device_reads)
      .Field("subscriptions", r.subscriptions)
      .Field("upstream_events", r.upstream_events)
      .Field("fanout_delivered", r.fanout_delivered)
      .Field("fanout_expected", r.fanout_expected)
      .Field("fanout_exact", r.fanout_exact)
      .Field("upstream_restarts", r.upstream_restarts)
      .Field("p50_ms", r.p50_ms)
      .Field("p99_ms", r.p99_ms)
      .Field("sim_duration_ms", r.sim_duration_ms)
      .Field("scheduler_events", r.scheduler_events)
      .Close();
}

std::string WallClockCell(const ModelBenchResult& r) {
  return JsonCell()
      .Field("num_things", r.num_things)
      .Field("num_clients", r.num_clients)
      .Field("loss_rate", r.loss_rate)
      .Field("wall_seconds", r.wall_seconds)
      .Field("reads_per_second", r.reads_per_second)
      .Field("fanout_events_per_second", r.fanout_events_per_second)
      .Close();
}

struct ThingRef {
  Ip6Address address;
  DeviceTypeId device = 0;
};

}  // namespace

ModelBenchResult RunModelBench(const ModelBenchOptions& options) {
  DeploymentConfig config;
  config.seed = options.seed;
  Deployment deployment(config);
  (void)deployment.AddManager();

  ModelServerConfig server_config;
  server_config.default_ttl_ms = options.ttl_ms;
  server_config.stream_period_ms = options.stream_period_ms;

  const int window = std::max(1, options.read_window);
  MicroPnpClient& gateway = deployment.AddClient(
      "model-gw", nullptr, /*max_in_flight=*/static_cast<size_t>(window) + 64);
  ModelServer server(deployment.scheduler(), gateway, ModelCatalog::BuiltIn(), server_config);
  std::vector<std::unique_ptr<ModelClient>> model_clients;
  for (int c = 0; c < options.num_clients; ++c) {
    model_clients.push_back(std::make_unique<ModelClient>(server));
  }

  // Fleet bring-up: mostly TMP36 sensors, every 8th Thing a writable relay.
  // Drivers are preinstalled (the OTA path is bench_multihop's subject) and
  // re-advertisement trickle is off; the server learns the fleet from the
  // plug-time unsolicited (1)s — the advertisement-driven tracking path.
  ThingConfig thing_config;
  thing_config.readvertise_min_ms = 0.0;
  Result<DriverImage> tmp36_image = CompileDriver(FindBundledDriver(kTmp36TypeId)->source);
  Result<DriverImage> relay_image = CompileDriver(FindBundledDriver(kRelayTypeId)->source);
  std::vector<ThingRef> things;
  std::vector<size_t> relay_things;
  things.reserve(static_cast<size_t>(options.num_things));
  for (int i = 0; i < options.num_things; ++i) {
    const bool is_relay = i % 8 == 7;
    MicroPnpThing& thing =
        deployment.AddThing("thing-" + std::to_string(i), nullptr, thing_config);
    Status plugged;
    if (is_relay) {
      (void)thing.PreinstallDriver(*relay_image);
      plugged = thing.Plug(0, &deployment.MakeRelay());
    } else {
      (void)thing.PreinstallDriver(*tmp36_image);
      plugged = thing.Plug(0, &deployment.MakeTmp36());
    }
    if (plugged.ok()) {
      if (is_relay) {
        relay_things.push_back(things.size());
      }
      things.push_back(ThingRef{thing.node().address(), is_relay ? kRelayTypeId : kTmp36TypeId});
    }
  }
  deployment.RunForMillis(1000);

  LinkModel lossy = config.link;
  lossy.loss_rate = options.loss_rate;
  deployment.fabric().set_link(lossy);

  ModelBenchResult result;
  result.num_things = options.num_things;
  result.num_clients = options.num_clients;
  result.loss_rate = options.loss_rate;
  result.seed = options.seed;
  result.fleet_size = server.fleet_size();
  if (things.empty() || options.num_clients <= 0) {
    return result;
  }

  auto run_phase = [&](const std::function<bool()>& done, double guard_ms) {
    while (!done() && deployment.NowMillis() < guard_ms) {
      deployment.RunForMillis(500.0);
    }
  };

  const uint64_t events_before = deployment.scheduler().executed();
  const double sim_start_ms = deployment.NowMillis();

  // ---- phase 1: closed-loop read/write mix ---------------------------------
  int issued = 0;
  int resolved = 0;
  bool pumping = false;
  std::vector<double> latencies;
  std::function<void()> pump = [&] {
    if (pumping) {
      return;
    }
    // Cache hits complete synchronously, so recursing from the completion
    // callback would nest `total_reads` deep; the flag flattens the loop
    // into an iterative pump.
    pumping = true;
    while (issued < options.total_reads && issued - resolved < window) {
      const int op = issued++;
      ModelClient& actor = *model_clients[static_cast<size_t>(op) % model_clients.size()];
      const bool is_write = options.write_every > 0 && !relay_things.empty() &&
                            (op + 1) % options.write_every == 0;
      if (is_write) {
        const ThingRef& target = things[relay_things[static_cast<size_t>(
            op / options.write_every) % relay_things.size()]];
        actor.WriteValue(target.address, target.device, op % 2, [&](Status) {
          ++resolved;
          pump();
        });
      } else {
        const ThingRef& target = things[static_cast<size_t>(op) % things.size()];
        const double started_ms = deployment.NowMillis();
        actor.ReadValue(target.address, target.device,
                        [&, started_ms](Result<WireValue> value) {
                          ++resolved;
                          if (value.ok()) {
                            latencies.push_back(deployment.NowMillis() - started_ms);
                          }
                          pump();
                        });
      }
    }
    pumping = false;
  };

  const auto wall_start = std::chrono::steady_clock::now();
  pump();
  const double phase1_guard =
      deployment.NowMillis() +
      (static_cast<double>(options.total_reads) + 1.0) * (2000.0 + 1000.0);
  run_phase([&] { return resolved >= options.total_reads; }, phase1_guard);

  // ---- phase 2: hotspot (every client reads one Thing once) ----------------
  const ModelServerCounters before_hotspot = server.counters();
  const ThingRef hot = things.front();
  const int hotspot_budget = static_cast<int>(model_clients.size());
  int hotspot_issued = 0;
  int hotspot_resolved = 0;
  pump = [&] {
    if (pumping) {
      return;
    }
    pumping = true;
    while (hotspot_issued < hotspot_budget && hotspot_issued - hotspot_resolved < window) {
      ModelClient& actor = *model_clients[static_cast<size_t>(hotspot_issued++)];
      actor.ReadValue(hot.address, hot.device, [&](Result<WireValue>) {
        ++hotspot_resolved;
        pump();
      });
    }
    pumping = false;
  };
  pump();
  run_phase([&] { return hotspot_resolved >= hotspot_budget; },
            deployment.NowMillis() + 60000.0);
  const auto wall_reads_end = std::chrono::steady_clock::now();
  result.hotspot_reads = server.counters().reads - before_hotspot.reads;
  result.hotspot_device_reads = server.counters().device_reads - before_hotspot.device_reads;

  // ---- phase 3: subscription fan-out ---------------------------------------
  for (size_t c = 0; c < model_clients.size(); ++c) {
    const ThingRef& target = things[c % things.size()];
    if (model_clients[c]->Subscribe(target.address, target.device, [](const WireValue&) {}).ok()) {
      ++result.subscriptions;
    }
  }
  const double fanout_until = deployment.NowMillis() + options.stream_phase_ms;
  const auto wall_fanout_start = std::chrono::steady_clock::now();
  run_phase([&] { return deployment.NowMillis() >= fanout_until; }, fanout_until + 1.0);
  const auto wall_end = std::chrono::steady_clock::now();

  // Snapshot the exactly-once ledger while every subscription is still
  // registered: each fan-out must have delivered every upstream event to
  // every subscriber, no more, no fewer.
  for (const ModelServer::FanoutStat& stat : server.FanoutStats()) {
    result.fanout_expected += stat.upstream_events * stat.subscribers;
  }
  const ModelServerCounters& counters = server.counters();
  result.reads = counters.reads;
  result.cache_hits = counters.cache_hits;
  result.cache_misses = counters.cache_misses;
  result.coalesced_reads = counters.coalesced_reads;
  result.device_reads = counters.device_reads;
  result.read_failures = counters.read_failures;
  result.writes = counters.writes;
  result.device_writes = counters.device_writes;
  result.write_failures = counters.write_failures;
  result.upstream_events = counters.upstream_events;
  result.fanout_delivered = counters.fanout_delivered;
  result.fanout_exact = result.fanout_delivered == result.fanout_expected ? 1 : 0;
  result.upstream_restarts = counters.upstream_restarts;
  result.hit_rate =
      result.reads > 0 ? static_cast<double>(result.cache_hits) / static_cast<double>(result.reads)
                       : 0.0;
  result.amplification = result.reads > 0 ? static_cast<double>(result.device_reads) /
                                                static_cast<double>(result.reads)
                                          : 0.0;
  result.sim_duration_ms = deployment.NowMillis() - sim_start_ms;
  result.scheduler_events = deployment.scheduler().executed() - events_before;

  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = Percentile(latencies, 0.5);
  result.p99_ms = Percentile(latencies, 0.99);

  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  const double wall_reads = std::chrono::duration<double>(wall_reads_end - wall_start).count();
  const double wall_fanout = std::chrono::duration<double>(wall_end - wall_fanout_start).count();
  result.reads_per_second =
      wall_reads > 0.0
          ? static_cast<double>(result.reads + result.writes) / wall_reads
          : 0.0;
  result.fanout_events_per_second =
      wall_fanout > 0.0 ? static_cast<double>(result.fanout_delivered) / wall_fanout : 0.0;

  // Orderly teardown (outside the measured window): drop every subscription
  // and let the stream stops resolve.
  for (auto& actor : model_clients) {
    actor->UnsubscribeAll();
  }
  deployment.RunForMillis(3000);
  return result;
}

std::string ModelDeterministicCellsJson(const std::vector<ModelBenchResult>& results) {
  return CellsJson(results, DeterministicCell);
}

std::string ModelBenchJson(const std::vector<ModelBenchResult>& results) {
  return BenchJson("model", 2, ModelDeterministicCellsJson(results),
                   CellsJson(results, WallClockCell));
}

}  // namespace micropnp
