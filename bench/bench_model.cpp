// Northbound model-gateway sweep: M ModelClients over one ModelServer
// against N Things (see bench/scenarios/model_bench.h for the scenario and
// phases).
//
// Reports the last-value-cache hit rate, device-transaction amplification
// (device reads per client read; the no-cache path is 1.0), the hotspot
// slice (every client reads ONE sensor), and the fan-out exactly-once
// ledger, and writes the same data machine-readably to BENCH_model.json
// (schema in docs/BENCHMARKS.md).
//
//   bench_model [--smoke] [--out PATH]
//
//   --smoke     tiny sweep (CI: validates the scenario + JSON end to end)
//   --out       JSON output path (default BENCH_model.json)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/scenarios/harness.h"
#include "bench/scenarios/model_bench.h"

namespace micropnp {
namespace {

// A cell fails the run when its accounting breaks: the cache ledger must
// balance, the hit rate must be a probability, a cached read mix must not
// amplify into more device transactions than client reads, and fan-out must
// deliver exactly once per subscriber.
bool CheckInvariants(const ModelBenchResult& r) {
  bool ok = true;
  if (r.cache_hits + r.cache_misses != r.reads) {
    std::printf("!! cache ledger broken: %llu hits + %llu misses != %llu reads\n",
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses),
                static_cast<unsigned long long>(r.reads));
    ok = false;
  }
  if (r.coalesced_reads + r.device_reads != r.cache_misses) {
    std::printf("!! miss ledger broken: %llu coalesced + %llu device != %llu misses\n",
                static_cast<unsigned long long>(r.coalesced_reads),
                static_cast<unsigned long long>(r.device_reads),
                static_cast<unsigned long long>(r.cache_misses));
    ok = false;
  }
  if (r.hit_rate < 0.0 || r.hit_rate > 1.0 || r.amplification < 0.0 ||
      r.amplification > 1.0) {
    std::printf("!! hit_rate %.6f / amplification %.6f out of range\n", r.hit_rate,
                r.amplification);
    ok = false;
  }
  if (r.fanout_exact != 1) {
    std::printf("!! fan-out not exactly-once: delivered %llu != expected %llu\n",
                static_cast<unsigned long long>(r.fanout_delivered),
                static_cast<unsigned long long>(r.fanout_expected));
    ok = false;
  }
  return ok;
}

int Run(bool smoke, const std::string& out_path) {
  std::vector<ModelBenchOptions> cells;
  if (smoke) {
    ModelBenchOptions tiny;
    tiny.num_things = 8;
    tiny.num_clients = 100;
    tiny.total_reads = 2000;
    tiny.read_window = 64;
    tiny.stream_phase_ms = 1000.0;
    cells.push_back(tiny);
    ModelBenchOptions lossy = tiny;
    lossy.loss_rate = 0.1;
    cells.push_back(lossy);
  } else {
    // The M sweep: {100, 1k, 10k} clients over 64 Things.  Its
    // deterministic half is the committed BENCH_model.json, which the
    // golden_bench_model_json ctest entry regenerates byte for byte.
    for (int m : {100, 1000, 10000}) {
      ModelBenchOptions opt;
      opt.num_clients = m;
      opt.num_things = 64;
      opt.total_reads = m <= 1000 ? 10 * m : 100000;
      opt.read_window = 256;
      // TTL sized above the phase-1 simulated duration: the sweep measures
      // the read-heavy steady state (cold misses + single-flight joins
      // only); TTL-expiry behavior is exercised by the smoke cells and the
      // model tests.
      opt.ttl_ms = 10000.0;
      opt.seed = 2015 + static_cast<uint64_t>(m);
      cells.push_back(opt);
    }
  }

  std::printf("=== model: M clients x N things — cache, single-flight, fan-out ===\n");
  std::printf("%7s %7s %6s | %8s %9s %9s | %8s %10s | %12s %12s\n", "clients", "things",
              "loss", "reads", "hit rate", "amplif.", "dev rds", "hot dev", "fanout evts",
              "reads/s");
  std::vector<ModelBenchResult> results;
  bool ok = true;
  for (const ModelBenchOptions& opt : cells) {
    ModelBenchResult r = RunModelBench(opt);
    std::printf("%7d %7d %5.0f%% | %8llu %9.4f %9.5f | %8llu %10llu | %12llu %12.0f\n",
                r.num_clients, r.num_things, r.loss_rate * 100.0,
                static_cast<unsigned long long>(r.reads), r.hit_rate, r.amplification,
                static_cast<unsigned long long>(r.device_reads),
                static_cast<unsigned long long>(r.hotspot_device_reads),
                static_cast<unsigned long long>(r.fanout_delivered), r.reads_per_second);
    ok = CheckInvariants(r) && ok;
    results.push_back(r);
  }

  ok = WriteJsonFile(out_path, ModelBenchJson(results)) && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace micropnp

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_model.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_model [--smoke] [--out PATH]\n");
      return 2;
    }
  }
  return micropnp::Run(smoke, out_path);
}
