// Reusable northbound model-gateway benchmark scenario.
//
// M ModelClients over one ModelServer against N Things, in three phases:
//
//  1. Read mix (closed loop): `total_reads` property reads round-robin over
//     clients and Things, `read_window` in flight, with a write to a
//     writable (relay) Thing every `write_every`-th operation.  This is the
//     last-value-cache hot path — cold fetches and single-flight joins are
//     the only device transactions; everything else is a cache hit that
//     completes synchronously.
//  2. Hotspot: every client reads ONE Thing once — the "1M clients, one
//     sensor" scenario.  Device reads during this phase bound the
//     transaction amplification of a perfectly contended key (1 when the
//     value expired, 0 while fresh).
//  3. Fan-out: every client subscribes to one (thing, telemetry) pair
//     (clients spread round-robin over Things), the fleet streams for
//     `stream_phase_ms`, and the scenario checks the exactly-once ledger:
//     delivered == sum over fan-outs of upstream_events x subscribers.
//
// Like gateway_bench, the scenario is a library of its own because three
// consumers share it: bench_model, the CI smoke step, and the determinism
// regression test.  Results split into deterministic fields (a pure
// function of the options) and wall-clock fields.

#ifndef BENCH_SCENARIOS_MODEL_BENCH_H_
#define BENCH_SCENARIOS_MODEL_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace micropnp {

struct ModelBenchOptions {
  int num_things = 64;      // N; every 8th is a writable relay
  int num_clients = 1000;   // M
  int total_reads = 10000;  // phase-1 operations (reads + writes)
  int read_window = 256;    // concurrent in-flight operations
  int write_every = 16;     // every k-th op writes (0 = read-only mix)
  double ttl_ms = 1000.0;   // last-value-cache freshness budget
  uint32_t stream_period_ms = 200;
  double stream_phase_ms = 2000.0;  // phase-3 duration
  double loss_rate = 0.0;
  uint64_t seed = 2015;
};

struct ModelBenchResult {
  // --- deterministic: a pure function of ModelBenchOptions -------------------
  int num_things = 0;
  int num_clients = 0;
  double loss_rate = 0.0;
  uint64_t seed = 0;
  uint64_t fleet_size = 0;  // Things tracked from advertisements
  // Phase 1+2 cache ledger (invariants: hits + misses == reads,
  // coalesced + device_reads == misses).
  uint64_t reads = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t coalesced_reads = 0;
  uint64_t device_reads = 0;
  uint64_t read_failures = 0;
  uint64_t writes = 0;
  uint64_t device_writes = 0;
  uint64_t write_failures = 0;
  double hit_rate = 0.0;       // cache_hits / reads
  double amplification = 0.0;  // device_reads / reads (no-cache path == 1.0)
  // Phase 2 (hotspot) slice of the ledger.
  uint64_t hotspot_reads = 0;
  uint64_t hotspot_device_reads = 0;
  // Phase 3 fan-out ledger.
  uint64_t subscriptions = 0;
  uint64_t upstream_events = 0;    // (14)s received across all fan-outs
  uint64_t fanout_delivered = 0;   // subscriber callbacks invoked
  uint64_t fanout_expected = 0;    // sum of upstream_events x subscribers
  uint64_t fanout_exact = 0;       // 1 when delivered == expected
  uint64_t upstream_restarts = 0;  // re-establish attempts (loss recovery)
  double p50_ms = 0.0;             // phase-1 read latency (simulated)
  double p99_ms = 0.0;
  double sim_duration_ms = 0.0;
  uint64_t scheduler_events = 0;
  // --- wall clock: varies run to run -----------------------------------------
  double wall_seconds = 0.0;       // measured phases only (setup excluded)
  double reads_per_second = 0.0;   // phase-1+2 operations / wall_seconds
  double fanout_events_per_second = 0.0;  // deliveries / wall_seconds
};

ModelBenchResult RunModelBench(const ModelBenchOptions& options);

// {"cells": [...]} — byte-stable for a fixed option set; the determinism
// test compares it across runs.
std::string ModelDeterministicCellsJson(const std::vector<ModelBenchResult>& results);
// {"bench": "model", "schema_version": 2, "deterministic": ..., "wall_clock": ...}
std::string ModelBenchJson(const std::vector<ModelBenchResult>& results);

}  // namespace micropnp

#endif  // BENCH_SCENARIOS_MODEL_BENCH_H_
