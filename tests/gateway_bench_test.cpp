// Deterministic-replay guard for the gateway benchmark scenario.
//
// Every stochastic input of the simulation draws from the seeded SplitMix64
// streams, so a bench cell is a pure function of its options: running the
// same cell twice must produce byte-identical deterministic JSON (wall-clock
// fields are emitted in a separate object and excluded by construction).
// This is what makes BENCH_gateway.json diffable across commits — a changed
// byte in the deterministic half is a behaviour change, not noise.

#include <string>

#include <gtest/gtest.h>

#include "bench/scenarios/gateway_bench.h"

namespace micropnp {
namespace {

GatewayBenchOptions ThousandThingCell() {
  GatewayBenchOptions opt;
  opt.num_things = 1000;
  opt.total_reads = 500;  // bounded for test runtime; still a 1k-Thing fleet
  opt.window = 128;
  opt.loss_rate = 0.02;
  opt.seed = 20150415;
  return opt;
}

// The committed baseline for ThousandThingCell.  Refactors of the runtime
// must keep this output byte-identical.  If a deliberate behaviour change
// moves these numbers, regenerate the string from DeterministicCellsJson and
// say so in the commit.
constexpr const char* kThousandThingGolden =
    "{\"cells\": [{\"num_things\": 1000, \"loss_rate\": 0.020000, \"seed\": 20150415, "
    "\"issued\": 500, \"completed\": 500, \"deadline_exceeded\": 0, \"retransmits\": 44, "
    "\"peak_in_flight\": 128, \"final_in_flight\": 0, \"scheduler_events\": 3119, "
    "\"sim_duration_ms\": 1000.000000, \"p50_ms\": 51.260965, \"p99_ms\": 253.187077}]}";

TEST(GatewayBenchDeterminism, SameSeedSameDeterministicJsonAtThousandThings) {
  const GatewayBenchOptions opt = ThousandThingCell();
  const GatewayBenchResult first = RunGatewayBench(opt);
  const GatewayBenchResult second = RunGatewayBench(opt);

  const std::string json_first = DeterministicCellsJson({first});
  const std::string json_second = DeterministicCellsJson({second});
  EXPECT_EQ(json_first, json_second) << "simulation is not a pure function of the seed";
  EXPECT_EQ(json_first, kThousandThingGolden)
      << "output diverged from the committed baseline";

  // The scenario's own invariants, on top of replay equality.
  EXPECT_EQ(first.issued, 500u);
  EXPECT_EQ(first.completed + first.deadline_exceeded, first.issued);
  EXPECT_EQ(first.final_in_flight, 0u);
  EXPECT_GT(first.completed, 0u);
  EXPECT_LE(first.peak_in_flight, 128u);
  EXPECT_GT(first.p99_ms, 0.0);
  EXPECT_GE(first.p99_ms, first.p50_ms);
}

TEST(GatewayBenchDeterminism, DifferentSeedsDiverge) {
  GatewayBenchOptions opt = ThousandThingCell();
  opt.num_things = 64;
  opt.total_reads = 64;
  opt.window = 16;
  const GatewayBenchResult a = RunGatewayBench(opt);
  opt.seed ^= 0xdecade;
  const GatewayBenchResult b = RunGatewayBench(opt);
  // Latency jitter derives from the rng stream, so distinct seeds must not
  // collapse to identical percentiles (a frozen rng would fake determinism).
  EXPECT_NE(DeterministicCellsJson({a}), DeterministicCellsJson({b}));
}

TEST(GatewayBenchJsonSchema, EmitsExpectedKeys) {
  GatewayBenchOptions opt;
  opt.num_things = 8;
  opt.total_reads = 16;
  opt.window = 8;
  opt.seed = 7;
  const GatewayBenchResult r = RunGatewayBench(opt);
  const std::string json = GatewayBenchJson({r});
  for (const char* key :
       {"\"bench\": \"gateway\"", "\"schema_version\": 4", "\"deterministic\"", "\"wall_clock\"",
        "\"num_things\"", "\"issued\"", "\"completed\"", "\"deadline_exceeded\"",
        "\"peak_in_flight\"", "\"final_in_flight\"", "\"scheduler_events\"", "\"p50_ms\"",
        "\"p99_ms\"", "\"bringup_seconds\"", "\"events_per_second\"", "\"wall_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
}

}  // namespace
}  // namespace micropnp
