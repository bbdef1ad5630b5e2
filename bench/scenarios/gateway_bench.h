// Reusable fleet-scale gateway benchmark scenario.
//
// One manager + one gateway client serving N Things attached to the border
// router, driven closed-loop: the gateway keeps `window` reads in flight and
// each completion immediately issues the next, so the pending table sits at
// its high-water mark for the whole run — exactly the steady state the
// scheduler's O(1) cancel and the endpoint's slot arena exist for.
//
// The scenario is a library of its own (not part of the bench binary)
// because three consumers share it: bench_gateway (the human-readable sweep +
// BENCH_gateway.json), the CI bench-smoke step (tiny N, validates the JSON),
// and the determinism regression test (same seed ⇒ byte-identical
// deterministic JSON).  Results split into simulation-derived fields, which
// are a pure function of the options (seed included), and wall-clock fields
// (throughput), which are not; the JSON emitters keep the two apart so the
// deterministic half can be compared byte-for-byte.

#ifndef BENCH_SCENARIOS_GATEWAY_BENCH_H_
#define BENCH_SCENARIOS_GATEWAY_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace micropnp {

struct GatewayBenchOptions {
  int num_things = 1000;
  // Total reads issued across the run (round-robin over the fleet).
  int total_reads = 1000;
  // Concurrent in-flight reads; the endpoint is sized with headroom above.
  int window = 128;
  double loss_rate = 0.0;
  uint64_t seed = 2015;
  double deadline_ms = 2000.0;
  int max_retransmits = 3;
  double initial_backoff_ms = 200.0;
};

struct GatewayBenchResult {
  // --- deterministic: a pure function of GatewayBenchOptions -----------------
  int num_things = 0;
  double loss_rate = 0.0;
  uint64_t seed = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t retransmits = 0;
  uint64_t peak_in_flight = 0;   // pending-table high-water mark
  uint64_t final_in_flight = 0;  // must drain to 0
  uint64_t scheduler_events = 0; // events executed during the measured phase
  double sim_duration_ms = 0.0;  // simulated time consumed by the reads
  double p50_ms = 0.0;           // read latency percentiles (simulated)
  double p99_ms = 0.0;
  // --- wall clock: varies run to run -----------------------------------------
  double bringup_seconds = 0.0;    // Deployment construction through the 1 s settle
  double wall_seconds = 0.0;       // measured phase only (setup excluded)
  double events_per_second = 0.0;  // scheduler_events / wall_seconds
};

// Runs the scenario to completion (every read resolves: reply or deadline).
GatewayBenchResult RunGatewayBench(const GatewayBenchOptions& options);

// Serializes results as a JSON document: {"bench": ..., "schema_version": 4,
// "deterministic": {"cells": [...]}, "wall_clock": {"cells": [...]}}.
// DeterministicCellsJson emits just the deterministic object, byte-stable
// for a fixed option set — the determinism test compares it across runs.
std::string DeterministicCellsJson(const std::vector<GatewayBenchResult>& results);
std::string GatewayBenchJson(const std::vector<GatewayBenchResult>& results);

}  // namespace micropnp

#endif  // BENCH_SCENARIOS_GATEWAY_BENCH_H_
