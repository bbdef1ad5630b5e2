// Fleet-scale gateway sweep: one manager + a gateway client running
// closed-loop reads over N Things (see bench/scenarios/gateway_bench.h for the
// scenario).
//
// Reports p50/p99 simulated read latency, scheduler events per wall second,
// the pending-table high-water mark and the fleet bring-up wall time per
// cell, and writes the same data machine-readably to BENCH_gateway.json
// (schema in docs/BENCHMARKS.md).
//
//   bench_gateway [--smoke] [--full] [--out PATH]
//
//   --smoke     tiny fleet (CI: validates the scenario + JSON end to end)
//   --full      adds the N=100k stretch cell to the default {1k, 10k} sweep
//   --out       JSON output path (default BENCH_gateway.json)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/scenarios/gateway_bench.h"
#include "bench/scenarios/harness.h"

namespace micropnp {
namespace {

int Run(bool smoke, bool full, const std::string& out_path) {
  std::vector<GatewayBenchOptions> cells;
  if (smoke) {
    GatewayBenchOptions tiny;
    tiny.num_things = 16;
    tiny.total_reads = 64;
    tiny.window = 16;
    cells.push_back(tiny);
    GatewayBenchOptions lossy = tiny;
    lossy.loss_rate = 0.1;
    cells.push_back(lossy);
  } else {
    for (int n : full ? std::vector<int>{1000, 10000, 100000}
                      : std::vector<int>{1000, 10000}) {
      GatewayBenchOptions opt;
      opt.num_things = n;
      // Each Thing is read once, capped so the 100k stretch cell samples the
      // fleet (round-robin from thing 0) instead of running for hours.
      opt.total_reads = n <= 20000 ? n : 20000;
      opt.window = 256;
      opt.seed = 2015 + static_cast<uint64_t>(n);
      cells.push_back(opt);
    }
  }

  std::printf("=== gateway: closed-loop reads, window-bounded, N things ===\n");
  std::printf("%8s %6s %7s | %9s %9s | %8s %12s | %12s %12s\n", "things", "loss", "reads",
              "p50 (ms)", "p99 (ms)", "peak", "sim events", "events/s", "bring-up (s)");
  std::vector<GatewayBenchResult> results;
  bool ok = true;
  for (const GatewayBenchOptions& opt : cells) {
    GatewayBenchResult r = RunGatewayBench(opt);
    std::printf("%8d %5.0f%% %7llu | %9.1f %9.1f | %8llu %12llu | %12.0f %12.3f\n", r.num_things,
                r.loss_rate * 100.0, static_cast<unsigned long long>(r.issued), r.p50_ms,
                r.p99_ms, static_cast<unsigned long long>(r.peak_in_flight),
                static_cast<unsigned long long>(r.scheduler_events), r.events_per_second,
                r.bringup_seconds);
    if (r.completed + r.deadline_exceeded != r.issued || r.final_in_flight != 0) {
      std::printf("!! cell did not drain: %llu issued, %llu completed, %llu deadline, "
                  "%llu still in flight\n",
                  static_cast<unsigned long long>(r.issued),
                  static_cast<unsigned long long>(r.completed),
                  static_cast<unsigned long long>(r.deadline_exceeded),
                  static_cast<unsigned long long>(r.final_in_flight));
      ok = false;
    }
    results.push_back(r);
  }

  ok = WriteJsonFile(out_path, GatewayBenchJson(results)) && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace micropnp

int main(int argc, char** argv) {
  bool smoke = false;
  bool full = false;
  std::string out_path = "BENCH_gateway.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_gateway [--smoke] [--full] [--out PATH]\n");
      return 2;
    }
  }
  return micropnp::Run(smoke, full, out_path);
}
