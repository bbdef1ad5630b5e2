// Deterministic-replay guard for the model-gateway benchmark scenario.
//
// Same contract as gateway_bench_test: a bench cell is a pure function of
// its options, so the deterministic JSON must be byte-identical across
// reruns and must match the committed golden string.
// This keeps BENCH_model.json diffable — a changed byte in the deterministic
// half is a behaviour change, not noise.

#include <string>

#include <gtest/gtest.h>

#include "bench/scenarios/model_bench.h"

namespace micropnp {
namespace {

ModelBenchOptions SmokeCell() {
  ModelBenchOptions opt;
  opt.num_things = 8;  // every 8th a relay: 7 sensors + 1 relay
  opt.num_clients = 50;
  opt.total_reads = 500;
  opt.read_window = 32;
  opt.stream_phase_ms = 500.0;
  opt.seed = 20150415;
  return opt;
}

// The committed baseline for SmokeCell.  If a deliberate behaviour change
// moves these numbers, regenerate the string from ModelDeterministicCellsJson
// and say so in the commit.
constexpr const char* kSmokeCellGolden =
    "{\"cells\": [{\"num_things\": 8, \"num_clients\": 50, \"loss_rate\": 0.000000, "
    "\"seed\": 20150415, \"fleet_size\": 8, \"reads\": 519, \"cache_hits\": 450, "
    "\"cache_misses\": 69, \"coalesced_reads\": 61, \"device_reads\": 8, "
    "\"read_failures\": 0, \"writes\": 31, \"device_writes\": 31, \"write_failures\": 0, "
    "\"hit_rate\": 0.867052, \"amplification\": 0.015414, \"hotspot_reads\": 50, "
    "\"hotspot_device_reads\": 0, \"subscriptions\": 50, \"upstream_events\": 16, "
    "\"fanout_delivered\": 100, \"fanout_expected\": 100, \"fanout_exact\": 1, "
    "\"upstream_restarts\": 0, \"p50_ms\": 0.000000, \"p99_ms\": 52.430271, "
    "\"sim_duration_ms\": 1000.000000, \"scheduler_events\": 346}]}";

TEST(ModelBenchDeterminism, SameSeedSameDeterministicJsonAndGoldenPin) {
  const ModelBenchOptions opt = SmokeCell();
  const ModelBenchResult first = RunModelBench(opt);
  const ModelBenchResult second = RunModelBench(opt);

  const std::string json_first = ModelDeterministicCellsJson({first});
  const std::string json_second = ModelDeterministicCellsJson({second});
  EXPECT_EQ(json_first, json_second) << "simulation is not a pure function of the seed";
  EXPECT_EQ(json_first, kSmokeCellGolden)
      << "output diverged from the committed baseline";

  // The scenario's accounting invariants, on top of replay equality.
  EXPECT_EQ(first.cache_hits + first.cache_misses, first.reads);
  EXPECT_EQ(first.coalesced_reads + first.device_reads, first.cache_misses);
  EXPECT_GE(first.hit_rate, 0.0);
  EXPECT_LE(first.hit_rate, 1.0);
  EXPECT_LE(first.amplification, 1.0);
  EXPECT_EQ(first.read_failures, 0u);
  EXPECT_EQ(first.write_failures, 0u);
  // Exactly-once fan-out at zero loss.
  EXPECT_EQ(first.fanout_exact, 1u);
  EXPECT_EQ(first.fanout_delivered, first.fanout_expected);
  EXPECT_GT(first.upstream_events, 0u);
}

TEST(ModelBenchDeterminism, DifferentSeedsDiverge) {
  ModelBenchOptions opt = SmokeCell();
  opt.num_clients = 20;
  opt.total_reads = 100;
  const ModelBenchResult a = RunModelBench(opt);
  opt.seed ^= 0xdecade;
  const ModelBenchResult b = RunModelBench(opt);
  // CSMA jitter draws from the deployment's seeded rng, so distinct seeds
  // must not collapse to identical percentile latencies.
  EXPECT_NE(ModelDeterministicCellsJson({a}), ModelDeterministicCellsJson({b}));
}

TEST(ModelBenchJsonSchema, EmitsExpectedKeys) {
  ModelBenchOptions opt = SmokeCell();
  opt.num_clients = 20;
  opt.total_reads = 100;
  const ModelBenchResult r = RunModelBench(opt);
  const std::string json = ModelBenchJson({r});
  for (const char* key :
       {"\"bench\": \"model\"", "\"schema_version\": 2", "\"deterministic\"", "\"wall_clock\"",
        "\"num_things\"", "\"num_clients\"", "\"reads\"", "\"cache_hits\"",
        "\"cache_misses\"", "\"coalesced_reads\"", "\"device_reads\"", "\"hit_rate\"",
        "\"amplification\"", "\"hotspot_reads\"", "\"hotspot_device_reads\"",
        "\"subscriptions\"", "\"upstream_events\"", "\"fanout_delivered\"",
        "\"fanout_expected\"", "\"fanout_exact\"", "\"p50_ms\"", "\"p99_ms\"",
        "\"scheduler_events\"", "\"reads_per_second\"", "\"fanout_events_per_second\"",
        "\"wall_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
}

}  // namespace
}  // namespace micropnp
