// lifebench: the fleet lifecycle benchmark (see README.md beside this file).
//
// Drives the μPnP stack only through its public API — Deployment, the
// Thing/Client/Manager, NetNode/Fabric, Scheduler and ModelServer/ModelClient
// — on one of three workloads, checks the outputs, and prints every metric by
// name with its unit.  Simulated-time metrics are deterministic per seed;
// host-time metrics are taken over repetitions (wall_s as the sum of
// per-segment minima, setup_s as a median).  With --trace 1 it also
// records spans around its own calls into each layer and prints the
// per-layer table.
//
//   lifebench --workload lifecycle_star|rw_tree_lossy|model_fanout
//             --seed N --seconds S --trace 0|1 [--spans FILE]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Any failed output check prints to stderr and exits
// nonzero before a metric is reported.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/model/model_server.h"
#include "src/net/multicast_schema.h"

namespace {

using micropnp::Deployment;
using micropnp::DeviceTypeId;
using micropnp::Ip6Address;
using micropnp::MicroPnpClient;
using micropnp::MicroPnpThing;
using micropnp::SimTime;
using micropnp::Status;
using micropnp::WireValue;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -------------------------------------------------------------- phase clock --
// Host-time marks at the start of the measured phase, around every
// RunForMillis slice inside it, and at its end.  Simulated time is deterministic,
// so segment k of every repetition of one seed does the same work, and each
// segment can take its fastest repetition on its own (see SegmentMinima).

class PhaseClock {
 public:
  void Start() {
    marks_.assign(1, HostNs());
    active_ = true;
  }
  void Mark() {
    if (active_) {
      marks_.push_back(HostNs());
    }
  }
  // Ends the phase: fills `segments` (seconds) and returns the phase's total.
  double Stop(std::vector<double>* segments) {
    Mark();
    active_ = false;
    segments->clear();
    for (size_t i = 1; i < marks_.size(); ++i) {
      segments->push_back(static_cast<double>(marks_[i] - marks_[i - 1]) * 1e-9);
    }
    return static_cast<double>(marks_.back() - marks_.front()) * 1e-9;
  }

 private:
  bool active_ = false;
  std::vector<int64_t> marks_;
};

PhaseClock g_phase;

// Other tenants of a shared host slow a run down in bursts, and a slowdown
// only ever adds time.  So the steadiest estimate of the program's own cost
// is the sum, over segments, of each segment's fastest repetition: a burst
// then costs only the segments it covered in every repetition.
class SegmentMinima {
 public:
  // Folds in one repetition; false if its segments differ in number from
  // the first repetition's, which deterministic simulated time rules out.
  bool Add(const std::vector<double>& segments) {
    if (best_.empty()) {
      best_ = segments;
      return true;
    }
    if (segments.size() != best_.size()) {
      return false;
    }
    for (size_t k = 0; k < best_.size(); ++k) {
      best_[k] = std::min(best_[k], segments[k]);
    }
    return true;
  }
  size_t size() const { return best_.size(); }
  double Total() const {
    double total = 0.0;
    for (double b : best_) {
      total += b;
    }
    return total;
  }

 private:
  std::vector<double> best_;
};

// ------------------------------------------------------------------ tracing --
// Spans live in memory and are written out once, after the last repetition.
// Each records both clocks and the span that was open when it began, so a
// call made from inside a scheduler callback has the enclosing sim.run span
// as its parent.

struct Span {
  const char* name;
  const char* layer;
  uint32_t parent;  // 1-based index of the enclosing span, 0 at top level
  double sim_start_ms;
  double sim_end_ms;
  int64_t host_start_ns;
  int64_t host_end_ns;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void Reset(bool enabled, const Deployment* clock) {
    enabled_ = enabled;
    clock_ = clock;
    spans_.clear();
    open_.clear();
  }
  uint32_t Open(const char* name, const char* layer) {
    spans_.push_back(Span{name, layer, open_.empty() ? 0u : open_.back(), SimNow(), 0.0,
                          HostNs(), 0});
    open_.push_back(static_cast<uint32_t>(spans_.size()));
    return open_.back();
  }
  void Close(uint32_t id) {
    Span& span = spans_[id - 1];
    span.host_end_ns = HostNs();
    span.sim_end_ms = SimNow();
    open_.pop_back();
  }
  // A span known only in simulated time (the plug-flow split).
  void AddSimSpan(const char* name, const char* layer, double start_ms, double end_ms) {
    if (enabled_) {
      spans_.push_back(Span{name, layer, 0, start_ms, end_ms, 0, 0});
    }
  }
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  double SimNow() const { return clock_ != nullptr ? clock_->NowMillis() : 0.0; }

  bool enabled_ = false;
  const Deployment* clock_ = nullptr;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

Tracer g_tracer;

// --- queries over recorded spans ---

// Mean host duration of the spans named `name`, in units of `scale_ns`.
double MeanHost(const std::vector<Span>& spans, const char* name, double scale_ns) {
  double total = 0.0;
  size_t count = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      total += static_cast<double>(s.host_end_ns - s.host_start_ns);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count) / scale_ns;
}

double TotalHostSeconds(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      total += static_cast<double>(s.host_end_ns - s.host_start_ns) * 1e-9;
    }
  }
  return total;
}

// Host seconds spent in calls of `layer` (nullptr: any layer) made directly
// from inside a sim.run span, i.e. from scheduler callbacks.
double HostSecondsUnderRun(const std::vector<Span>& spans, const char* layer) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.parent == 0 || std::strcmp(spans[s.parent - 1].name, "sim.run") != 0) {
      continue;
    }
    if (layer == nullptr || std::strcmp(s.layer, layer) == 0) {
      total += static_cast<double>(s.host_end_ns - s.host_start_ns) * 1e-9;
    }
  }
  return total;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,name,layer,parent,sim_start_ms,sim_end_ms,host_start_ns,host_end_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%s,%u,%.6f,%.6f,%lld,%lld\n", i + 1, s.name, s.layer, s.parent,
                 s.sim_start_ms, s.sim_end_ms, static_cast<long long>(s.host_start_ns),
                 static_cast<long long>(s.host_end_ns));
  }
  return std::fclose(f) == 0;
}

// RAII span around one call into a layer; free when tracing is off.
class Traced {
 public:
  Traced(const char* name, const char* layer)
      : id_(g_tracer.enabled() ? g_tracer.Open(name, layer) : 0) {}
  ~Traced() {
    if (id_ != 0) {
      g_tracer.Close(id_);
    }
  }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

 private:
  uint32_t id_;
};

// ------------------------------------------------------------- rep results --

struct Metric {
  std::string name;
  double value;
};

// One repetition: a fresh fleet, set up and (unless setup_only) measured.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> segments;  // the measured phase, split by PhaseClock
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Simulated-time metrics and layer counts: identical for identical seeds.
  std::vector<Metric> sim;
  // Host-time probes taken after the measured phase.
  double mcast_send_host_us = 0.0;
  double ucast_send_host_us = 0.0;
  std::vector<std::string> check_failures;

  void Add(const std::string& name, double value) { sim.push_back(Metric{name, value}); }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
  double Get(const std::string& name) const {
    for (const Metric& m : sim) {
      if (m.name == name) {
        return m.value;
      }
    }
    return 0.0;
  }
};

// Layer counters snapshotted at the edges of the measured phase.
struct Counters {
  uint64_t events = 0;
  uint64_t cascaded = 0;
  uint64_t cancelled = 0;
  uint64_t frames = 0;
  uint64_t multicast_frames = 0;
  uint64_t frames_lost = 0;
  uint64_t thing_rx = 0;
  uint64_t advertisements = 0;
  uint64_t readverts_suppressed = 0;
  uint64_t driver_request_retries = 0;
  uint64_t nacks = 0;
  uint64_t reads_served = 0;
  uint64_t writes_served = 0;
};

// A fleet under test plus the client-side advertisement ledger.
struct Fleet {
  std::unique_ptr<Deployment> deployment;
  MicroPnpClient* client = nullptr;
  micropnp::MicroPnpManager* manager = nullptr;
  std::vector<MicroPnpThing*> things;
  std::vector<DeviceTypeId> device;
  std::vector<micropnp::Peripheral*> peripheral;
  std::unordered_map<Ip6Address, size_t> index;
  std::vector<double> plugged_ms;     // Plug() time, -1 before
  std::vector<double> ready_ms;       // first advertisement listing the device
  std::vector<double> unplugged_ms;   // Unplug() time, -1 before
  std::vector<int> last_advert_size;  // peripherals in the newest (1) seen, -1 before
  std::vector<char> gone;             // empty advertisement seen after unplug
  size_t ready_count = 0;
  size_t gone_count = 0;
  std::function<void(const Ip6Address&, const std::vector<micropnp::AdvertisedPeripheral>&)>
      forward;  // optional extra consumer (the model server)

  Deployment& d() { return *deployment; }

  void OnAdvertisement(const Ip6Address& thing,
                       const std::vector<micropnp::AdvertisedPeripheral>& peripherals) {
    auto it = index.find(thing);
    if (it != index.end()) {
      const size_t i = it->second;
      last_advert_size[i] = static_cast<int>(peripherals.size());
      const bool lists = std::any_of(peripherals.begin(), peripherals.end(),
                                     [&](const auto& p) { return p.type == device[i]; });
      if (lists && plugged_ms[i] >= 0.0 && ready_ms[i] < 0.0) {
        ready_ms[i] = d().NowMillis();
        ++ready_count;
      }
      if (peripherals.empty() && unplugged_ms[i] >= 0.0 && !gone[i]) {
        gone[i] = 1;
        ++gone_count;
      }
    }
    if (forward) {
      forward(thing, peripherals);
    }
  }

  MicroPnpThing& AddThing(const std::string& name, micropnp::NetNode* parent,
                          const micropnp::ThingConfig& config, DeviceTypeId type) {
    MicroPnpThing* thing = nullptr;
    {
      Traced span("core.add_thing", "core");
      thing = &d().AddThing(name, parent, config);
    }
    index[thing->node().address()] = things.size();
    things.push_back(thing);
    device.push_back(type);
    peripheral.push_back(type == micropnp::kRelayTypeId
                             ? static_cast<micropnp::Peripheral*>(&d().MakeRelay())
                             : static_cast<micropnp::Peripheral*>(&d().MakeTmp36()));
    plugged_ms.push_back(-1.0);
    ready_ms.push_back(-1.0);
    unplugged_ms.push_back(-1.0);
    last_advert_size.push_back(-1);
    gone.push_back(0);
    return *thing;
  }

  void AttachListener() {
    client->set_advertisement_listener(
        [this](const Ip6Address& thing,
               const std::vector<micropnp::AdvertisedPeripheral>& peripherals) {
          OnAdvertisement(thing, peripherals);
        });
  }

  Status PlugThing(size_t i) {
    plugged_ms[i] = d().NowMillis();
    Traced span("proto.plug_call", "proto");
    return things[i]->Plug(0, peripheral[i]);
  }

  Status UnplugThing(size_t i) {
    unplugged_ms[i] = d().NowMillis();
    Traced span("proto.unplug_call", "proto");
    return things[i]->Unplug(0);
  }

  // Advances `ms` of simulated time in slices of at most kSliceMs, each its
  // own PhaseClock segment, so that no segment spans a whole burst of host
  // contention.  The slices run exactly the events one call would.
  void Run(double ms) {
    constexpr double kSliceMs = 10.0;
    Traced span("sim.run", "sim");
    for (double left = ms; left > 0.0; left -= kSliceMs) {
      g_phase.Mark();
      d().RunForMillis(std::min(left, kSliceMs));
      g_phase.Mark();
    }
  }
  // Advances in small steps until `done` or the sim-time guard.
  void RunUntil(const std::function<bool()>& done, double guard_ms, double step_ms = 50.0) {
    const double limit = d().NowMillis() + guard_ms;
    while (!done() && d().NowMillis() < limit) {
      Run(step_ms);
    }
  }

  Counters Snapshot() {
    Counters c;
    const micropnp::SchedulerStats& stats = d().scheduler().stats();
    c.events = d().scheduler().executed();
    c.cascaded = stats.cascaded_entries;
    c.cancelled = stats.cancelled;
    c.frames = d().fabric().frames_transmitted();
    c.multicast_frames = d().fabric().multicast_frames();
    c.frames_lost = d().fabric().frames_lost();
    for (MicroPnpThing* t : things) {
      c.thing_rx += t->node().datagrams_received();
      c.advertisements += t->advertisements_sent();
      c.readverts_suppressed += t->readvertisements_suppressed();
      c.driver_request_retries += t->driver_request_retries();
      c.nacks += t->chunk_nacks_sent();
      c.reads_served += t->reads_served();
      c.writes_served += t->writes_served();
    }
    return c;
  }

  // Every endpoint's pending table is empty and its ledger balances:
  // started == completed OK + deadline exceeded + cancelled.
  void CheckEndpoints(Rep& rep) {
    uint64_t started = 0;
    uint64_t finished = 0;
    size_t in_flight = 0;
    auto add = [&](const micropnp::ProtoEndpoint& e) {
      started += e.counters().requests_started;
      finished += e.counters().completed_ok + e.counters().deadline_exceeded +
                  e.counters().cancelled;
      in_flight += e.in_flight();
    };
    add(client->endpoint());
    if (manager != nullptr) {
      add(manager->endpoint());
    }
    for (MicroPnpThing* t : things) {
      add(t->endpoint());
    }
    rep.Check(in_flight == 0, "pending tables drain to 0 (" + std::to_string(in_flight) + " left)");
    rep.Check(started == finished, "completed + deadline_exceeded + cancelled == issued (" +
                                       std::to_string(finished) + " vs " +
                                       std::to_string(started) + ")");
  }

  void RecordLayerCounters(Rep& rep, const Counters& a, const Counters& b) {
    rep.Add("sim.events", static_cast<double>(b.events - a.events));
    rep.Add("sim.cascaded_entries", static_cast<double>(b.cascaded - a.cascaded));
    rep.Add("sim.cancelled", static_cast<double>(b.cancelled - a.cancelled));
    rep.Add("net.frames", static_cast<double>(b.frames - a.frames));
    rep.Add("net.multicast_frames", static_cast<double>(b.multicast_frames - a.multicast_frames));
    rep.Add("net.frames_lost", static_cast<double>(b.frames_lost - a.frames_lost));
    rep.Add("net.thing_rx_datagrams", static_cast<double>(b.thing_rx - a.thing_rx));
    rep.Add("proto.advertisements", static_cast<double>(b.advertisements - a.advertisements));
    rep.Add("proto.readverts_suppressed",
            static_cast<double>(b.readverts_suppressed - a.readverts_suppressed));
    rep.Add("proto.driver_request_retries",
            static_cast<double>(b.driver_request_retries - a.driver_request_retries));
    rep.Add("proto.ota_nacks", static_cast<double>(b.nacks - a.nacks));
    rep.Add("proto.reads_served", static_cast<double>(b.reads_served - a.reads_served));
    rep.Add("proto.writes_served", static_cast<double>(b.writes_served - a.writes_served));
    // The gateway client and the manager act only in the measured phase, so
    // their counters need no baseline.
    const micropnp::EndpointCounters& e = client->endpoint().counters();
    rep.Add("proto.retransmits", static_cast<double>(e.retransmits));
    rep.Add("proto.deadline_exceeded", static_cast<double>(e.deadline_exceeded));
    rep.Add("proto.stale_replies", static_cast<double>(e.stale_replies_dropped));
    rep.Add("proto.peak_in_flight", static_cast<double>(e.peak_in_flight));
    rep.Add("proto.uploads", manager != nullptr ? static_cast<double>(manager->uploads()) : 0.0);
    rep.Add("proto.ota_chunks",
            manager != nullptr ? static_cast<double>(manager->chunks_sent()) : 0.0);
    rep.Add("proto.ota_chunk_retx",
            manager != nullptr ? static_cast<double>(manager->chunk_retransmissions()) : 0.0);
    rep.Add("proto.ota_short_circuits",
            manager != nullptr ? static_cast<double>(manager->upload_short_circuits()) : 0.0);
  }

  // Plug-to-ready and its five-way split from PlugFlowMarks: identify,
  // join, OTA, install, advertise (install to the client seeing the (1)).
  // The parts telescope, so they must sum to plug-to-ready for every Thing.
  static constexpr const char* kPlugParts[5] = {"hw.identify", "proto.join", "proto.ota",
                                                "rt.install", "proto.advertise"};
  static constexpr const char* kPlugLayers[5] = {"hw", "proto", "proto", "rt", "proto"};
  void RecordPlugFlow(Rep& rep) {
    std::vector<double> total;
    std::vector<double> parts[5];
    size_t bad_order = 0;
    size_t bad_sum = 0;
    for (size_t i = 0; i < things.size(); ++i) {
      const auto& marks = things[i]->last_plug_flow();
      if (!marks.has_value() || ready_ms[i] < 0.0) {
        continue;
      }
      const double edges[6] = {marks->plugged.millis(),         marks->identified.millis(),
                               marks->group_joined.millis(),    marks->driver_received.millis(),
                               marks->driver_installed.millis(), ready_ms[i]};
      double sum = 0.0;
      for (int k = 0; k < 5; ++k) {
        const double part = edges[k + 1] - edges[k];
        bad_order += part < 0.0 ? 1 : 0;
        parts[k].push_back(part);
        sum += part;
        g_tracer.AddSimSpan(kPlugParts[k], kPlugLayers[k], edges[k], edges[k + 1]);
      }
      const double whole = ready_ms[i] - plugged_ms[i];
      bad_sum += std::fabs(sum - whole) > 1e-3 ? 1 : 0;  // 1 µs, in ms
      total.push_back(whole);
    }
    rep.Check(bad_order == 0, "plug-flow marks in order (" + std::to_string(bad_order) + " not)");
    rep.Check(bad_sum == 0, "plug-flow split sums to plug_to_ready within 1 us (" +
                                std::to_string(bad_sum) + " off)");
    rep.Add("plug_to_ready_p50_ms", Percentile(total, 0.5));
    rep.Add("plug_to_ready_p99_ms", Percentile(total, 0.99));
    rep.Add("core.plug_samples", static_cast<double>(total.size()));
    for (int k = 0; k < 5; ++k) {
      rep.Add(std::string(kPlugParts[k]) + "_p50_ms", Percentile(parts[k], 0.5));
      rep.Add(std::string(kPlugParts[k]) + "_p99_ms", Percentile(parts[k], 0.99));
    }
  }

  // Host cost of one send from a benchmark-owned leaf node: a multicast to
  // the all-clients group on an unbound port, and a unicast to `target`.
  // Runs after the measured phase, so it perturbs nothing measured.
  void Probe(Rep& rep, MicroPnpThing& target) {
    micropnp::NetNode* probe = d().AddRelayNode("probe");
    const std::vector<uint8_t> payload(8, 0x5a);
    const Ip6Address group = micropnp::AllClientsGroup(probe->prefix());
    constexpr uint16_t kUnboundPort = 9;
    constexpr int kProbes = 64;
    std::vector<double> mcast;
    std::vector<double> ucast;
    for (int i = 0; i < kProbes; ++i) {
      int64_t t0 = HostNs();
      probe->SendUdp(group, kUnboundPort, payload);
      int64_t t1 = HostNs();
      mcast.push_back(static_cast<double>(t1 - t0) * 1e-3);
      t0 = HostNs();
      probe->SendUdp(target.node().address(), kUnboundPort, payload);
      t1 = HostNs();
      ucast.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    rep.mcast_send_host_us = Median(mcast);
    rep.ucast_send_host_us = Median(ucast);
  }
};

bool Tmp36Plausible(const WireValue& v, double truth_c) {
  // The TMP36 driver reports tenths of a degree; cached or in-flight values
  // may trail the environment by a TTL, over which it drifts far less.
  return !v.is_array && std::fabs(v.scalar / 10.0 - truth_c) < 2.0;
}

bool RelayPlausible(const WireValue& v) {
  // Device read-back is [0xA5, state]; a write-through cache holds the state.
  return !v.is_array && (v.scalar == 0 || v.scalar == 1 || v.scalar == 0xA500 ||
                         v.scalar == 0xA501);
}

micropnp::DriverImage CompileBundled(DeviceTypeId id) {
  Traced span("dsl.compile", "dsl");
  micropnp::Result<micropnp::DriverImage> image =
      micropnp::CompileDriver(micropnp::FindBundledDriver(id)->source);
  if (!image.ok()) {
    std::fprintf(stderr, "lifebench: bundled driver failed to compile: %s\n",
                 image.status().ToString().c_str());
    std::exit(2);
  }
  return *image;
}

// Closed loop of `total` client operations keeping `window` in flight.
// `issue(k, done)` starts operation k and must call done() exactly once.
class ClosedLoop {
 public:
  ClosedLoop(int total, int window, std::function<void(int, std::function<void()>)> issue)
      : total_(total), window_(window), issue_(std::move(issue)) {}
  void Start() {
    for (int i = 0; i < window_ && issued_ < total_; ++i) {
      Next();
    }
  }
  bool done() const { return resolved_ == total_; }
  int resolved() const { return resolved_; }

 private:
  void Next() {
    if (issued_ >= total_) {
      return;
    }
    const int k = issued_++;
    issue_(k, [this] {
      ++resolved_;
      Next();
    });
  }
  int total_;
  int window_;
  int issued_ = 0;
  int resolved_ = 0;
  std::function<void(int, std::function<void()>)> issue_;
};

std::unique_ptr<Deployment> NewDeployment(uint64_t seed) {
  micropnp::DeploymentConfig config;
  config.seed = seed;
  return std::make_unique<Deployment>(config);
}

// =========================================================== lifecycle_star ==
// The whole paper flow at fleet scale on the Deployment's default star:
// staggered plugs, identification, chunked OTA from the manager,
// advertisement, one fleet-wide discovery, closed-loop reads, a few streams
// and unplug-all.

struct Sizes {
  int things;  // Things; on model_fanout, ModelClients (the Things are fixed at 64)
  int ops;     // client operations in the measured phase
};

Rep RunLifecycleStar(uint64_t seed, const Sizes& size, bool setup_only, bool traced) {
  Rep rep;
  Fleet fleet;
  const int n = size.things;
  const int64_t setup_start = HostNs();
  fleet.deployment = NewDeployment(seed);
  g_tracer.Reset(traced, fleet.deployment.get());
  fleet.manager = &fleet.d().AddManager();
  fleet.client = &fleet.d().AddClient("gateway", nullptr, /*max_in_flight=*/256 + 64);
  fleet.AttachListener();
  for (int i = 0; i < n; ++i) {
    fleet.AddThing("thing-" + std::to_string(i), nullptr, micropnp::ThingConfig{},
                   micropnp::kTmp36TypeId);
  }
  rep.setup_s = static_cast<double>(HostNs() - setup_start) * 1e-9;
  if (setup_only) {
    return rep;
  }
  Deployment& d = fleet.d();
  micropnp::Rng rng(seed ^ 0x6c696665ull);

  const Counters before = fleet.Snapshot();
  g_phase.Start();

  // Plug: open loop, a seeded permutation staggered evenly over 1 s.
  std::vector<size_t> order(static_cast<size_t>(n));
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(0, i - 1)]);
  }
  uint64_t plug_errors = 0;
  const double t0 = d.NowMillis();
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t i = order[k];
    d.scheduler().ScheduleAt(
        SimTime::FromMillis(t0 + 1000.0 * static_cast<double>(k) / n),
        [&fleet, &plug_errors, i] { plug_errors += fleet.PlugThing(i).ok() ? 0 : 1; });
  }
  fleet.RunUntil([&] { return fleet.ready_count == static_cast<size_t>(n); }, 60000.0);
  rep.attempted += static_cast<uint64_t>(n);
  rep.failed += static_cast<uint64_t>(n) - fleet.ready_count;
  rep.Check(plug_errors == 0, "every Plug() accepted");
  size_t hosted = 0;
  size_t one_transfer = 0;
  for (MicroPnpThing* t : fleet.things) {
    hosted += t->drivers().HostForChannel(0) != nullptr ? 1 : 0;
    one_transfer += t->transfers_completed() == 1 ? 1 : 0;
  }
  rep.Check(fleet.manager->uploads() == static_cast<uint64_t>(n),
            "exactly one upload per Thing (" + std::to_string(fleet.manager->uploads()) + ")");
  rep.Check(one_transfer == static_cast<size_t>(n), "each Thing completed exactly one transfer");
  rep.Check(hosted == static_cast<size_t>(n), "every plugged Thing hosts a driver on channel 0");
  fleet.RecordPlugFlow(rep);

  // One fleet-wide discovery.
  size_t found = 0;
  bool discovered = false;
  {
    Traced span("proto.discover_call", "proto");
    fleet.client->Discover(
        micropnp::kTmp36TypeId, 2000.0,
        [&](micropnp::Result<std::vector<MicroPnpClient::DiscoveredThing>> result) {
          discovered = true;
          if (result.ok()) {
            for (const auto& thing : *result) {
              found += fleet.index.count(thing.address);
            }
          }
        });
  }
  fleet.RunUntil([&] { return discovered; }, 10000.0);
  rep.attempted += static_cast<uint64_t>(n);
  rep.failed += static_cast<uint64_t>(n) - std::min(found, static_cast<size_t>(n));

  // Closed-loop reads of seeded random Things.
  std::vector<double> read_ms;
  uint64_t read_errors = 0;
  uint64_t wrong_values = 0;
  ClosedLoop reads(size.ops, 256, [&](int, std::function<void()> done) {
    const size_t i = rng.UniformInt(0, static_cast<uint64_t>(n) - 1);
    const double issued = d.NowMillis();
    Traced span("proto.read_call", "proto");
    fleet.client->Read(
        fleet.things[i]->node().address(), micropnp::kTmp36TypeId,
        [&, issued, done = std::move(done)](micropnp::Result<WireValue> value) {
          if (value.ok()) {
            read_ms.push_back(d.NowMillis() - issued);
            wrong_values += Tmp36Plausible(*value, d.environment().TemperatureC(
                                                       d.scheduler().now()))
                                ? 0
                                : 1;
          } else {
            ++read_errors;
          }
          done();
        });
  });
  reads.Start();
  fleet.RunUntil([&] { return reads.done(); }, 600000.0);
  rep.attempted += static_cast<uint64_t>(size.ops);
  rep.failed += read_errors + static_cast<uint64_t>(size.ops - reads.resolved());
  rep.Check(wrong_values == 0, "read values match the environment (" +
                                   std::to_string(wrong_values) + " off)");

  // A handful of streams: each (14) reaches every TMP36 Thing's group.
  constexpr int kStreams = 4;
  std::vector<int> values(kStreams, 0);
  std::vector<int> closed(kStreams, 0);
  std::vector<size_t> streamed;
  for (int s = 0; s < kStreams; ++s) {
    const size_t i = rng.UniformInt(0, static_cast<uint64_t>(n) - 1);
    streamed.push_back(i);
    Traced span("proto.stream_call", "proto");
    fleet.client->StartStream(
        fleet.things[i]->node().address(), micropnp::kTmp36TypeId, 500,
        [&values, s](const WireValue&) { ++values[static_cast<size_t>(s)]; },
        [&closed, s] { ++closed[static_cast<size_t>(s)]; });
  }
  fleet.Run(1600.0);
  for (size_t i : streamed) {
    Traced span("proto.stream_call", "proto");
    fleet.client->StopStream(fleet.things[i]->node().address(), micropnp::kTmp36TypeId);
  }
  fleet.RunUntil([&] { return std::count(closed.begin(), closed.end(), 1) == kStreams; },
                 10000.0);
  rep.attempted += kStreams;
  for (int s = 0; s < kStreams; ++s) {
    rep.failed += values[static_cast<size_t>(s)] > 0 ? 0 : 1;
    rep.Check(closed[static_cast<size_t>(s)] == 1, "each stream closes exactly once");
  }

  // Unplug-all, staggered like the plugs.
  const double t1 = d.NowMillis();
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t i = order[k];
    d.scheduler().ScheduleAt(
        SimTime::FromMillis(t1 + 1000.0 * static_cast<double>(k) / n),
        [&fleet, &plug_errors, i] { plug_errors += fleet.UnplugThing(i).ok() ? 0 : 1; });
  }
  fleet.RunUntil([&] { return fleet.gone_count == static_cast<size_t>(n); }, 60000.0);
  rep.attempted += static_cast<uint64_t>(n);
  rep.failed += static_cast<uint64_t>(n) - fleet.gone_count;
  rep.Check(plug_errors == 0, "every Unplug() accepted");
  const double wall_end_sim = d.NowMillis();
  rep.wall_s = g_phase.Stop(&rep.segments);
  const Counters after = fleet.Snapshot();

  size_t empty_last = 0;
  for (int size_seen : fleet.last_advert_size) {
    empty_last += size_seen == 0 ? 1 : 0;
  }
  rep.Check(empty_last == static_cast<size_t>(n),
            "after unplug-all the last advertisement from each Thing lists nothing (" +
                std::to_string(empty_last) + ")");
  fleet.CheckEndpoints(rep);

  rep.Add("read_p50_ms", Percentile(read_ms, 0.5));
  rep.Add("read_p99_ms", Percentile(read_ms, 0.99));
  rep.Add("core.read_samples", static_cast<double>(read_ms.size()));
  rep.Add("frames_per_op",
          Ratio(static_cast<double>(after.frames - before.frames), static_cast<double>(rep.attempted)));
  rep.Add("core.sim_phase_ms", wall_end_sim - t0);
  fleet.RecordLayerCounters(rep, before, after);
  rep.Add("core.discovered", static_cast<double>(found));
  fleet.Probe(rep, *fleet.things.front());
  return rep;
}

// ============================================================ rw_tree_lossy ==
// Steady-state request path: Things at depth 3 under a relay tree, drivers
// preinstalled and bring-up in setup, then 5% frame loss and a closed loop
// of reads with every 16th operation a relay write.

Rep RunRwTreeLossy(uint64_t seed, const Sizes& size, bool setup_only, bool traced) {
  Rep rep;
  Fleet fleet;
  const int n = size.things;
  const int64_t setup_start = HostNs();
  fleet.deployment = NewDeployment(seed);
  g_tracer.Reset(traced, fleet.deployment.get());
  Deployment& d = fleet.d();
  fleet.client = &d.AddClient("gateway", nullptr, /*max_in_flight=*/256 + 64);
  fleet.AttachListener();
  // Root -> 10 relays -> 10 relays each -> Things (depth 3).
  std::vector<micropnp::NetNode*> leaves;
  for (int a = 0; a < 10; ++a) {
    micropnp::NetNode* upper = d.AddRelayNode("relay-" + std::to_string(a));
    for (int b = 0; b < 10; ++b) {
      leaves.push_back(d.AddRelayNode("relay-" + std::to_string(a) + "-" + std::to_string(b), upper));
    }
  }
  const micropnp::DriverImage tmp36 = CompileBundled(micropnp::kTmp36TypeId);
  const micropnp::DriverImage relay = CompileBundled(micropnp::kRelayTypeId);
  micropnp::ThingConfig config;
  config.readvertise_min_ms = 0.0;  // the read path, not re-advertisement
  std::vector<size_t> sensors;
  std::vector<size_t> relays;
  for (int i = 0; i < n; ++i) {
    const bool is_relay = i % 8 == 7;
    MicroPnpThing& thing =
        fleet.AddThing("thing-" + std::to_string(i), leaves[static_cast<size_t>(i) % leaves.size()],
                       config, is_relay ? micropnp::kRelayTypeId : micropnp::kTmp36TypeId);
    Status installed;
    {
      Traced span("rt.preinstall", "rt");
      installed = thing.PreinstallDriver(is_relay ? relay : tmp36);
    }
    rep.Check(installed.ok(), "driver preinstall");
    rep.Check(fleet.PlugThing(static_cast<size_t>(i)).ok(), "every Plug() accepted");
    (is_relay ? relays : sensors).push_back(static_cast<size_t>(i));
  }
  fleet.RunUntil([&] { return fleet.ready_count == static_cast<size_t>(n); }, 30000.0);
  rep.Check(fleet.ready_count == static_cast<size_t>(n), "bring-up: every Thing advertised");
  micropnp::LinkModel lossy = d.fabric().link();
  lossy.loss_rate = 0.05;
  d.fabric().set_link(lossy);
  rep.setup_s = static_cast<double>(HostNs() - setup_start) * 1e-9;
  if (setup_only) {
    return rep;
  }
  fleet.RecordPlugFlow(rep);
  micropnp::Rng rng(seed ^ 0x72777472ull);

  // Enough retransmits that a 5%-loss, 8-frame round trip practically
  // never exhausts them; the retransmit ladder shows in read_p99_ms.
  micropnp::RequestOptions options;
  options.deadline_ms = 30000.0;
  options.max_retransmits = 16;
  options.initial_backoff_ms = 250.0;
  options.backoff_multiplier = 1.2;

  const Counters before = fleet.Snapshot();
  const double t0 = d.NowMillis();
  g_phase.Start();
  std::vector<double> read_ms;
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t wrong_values = 0;
  uint64_t writes = 0;
  ClosedLoop loop(size.ops, 256, [&](int k, std::function<void()> done) {
    const double issued = d.NowMillis();
    Traced span("proto.read_call", "proto");
    if (k % 16 == 15) {
      ++writes;
      const size_t i = relays[rng.UniformInt(0, relays.size() - 1)];
      fleet.client->Write(
          fleet.things[i]->node().address(), micropnp::kRelayTypeId,
          static_cast<int32_t>(rng.UniformInt(0, 1)),
          [&, done = std::move(done)](Status status) {
            write_errors += status.ok() ? 0 : 1;
            done();
          },
          options);
      return;
    }
    const size_t i = sensors[rng.UniformInt(0, sensors.size() - 1)];
    fleet.client->Read(
        fleet.things[i]->node().address(), micropnp::kTmp36TypeId,
        [&, issued, done = std::move(done)](micropnp::Result<WireValue> value) {
          if (value.ok()) {
            read_ms.push_back(d.NowMillis() - issued);
            wrong_values +=
                Tmp36Plausible(*value, d.environment().TemperatureC(d.scheduler().now())) ? 0
                                                                                           : 1;
          } else {
            ++read_errors;
          }
          done();
        },
        options);
  });
  loop.Start();
  fleet.RunUntil([&] { return loop.done(); }, 3600000.0, 500.0);
  rep.wall_s = g_phase.Stop(&rep.segments);
  const Counters after = fleet.Snapshot();
  rep.attempted = static_cast<uint64_t>(size.ops);
  rep.failed = read_errors + write_errors + static_cast<uint64_t>(size.ops - loop.resolved());
  rep.Check(wrong_values == 0, "read values match the environment (" +
                                   std::to_string(wrong_values) + " off)");
  rep.Check(after.writes_served - before.writes_served >= writes - write_errors,
            "every acknowledged write was served");
  fleet.CheckEndpoints(rep);

  rep.Add("read_p50_ms", Percentile(read_ms, 0.5));
  rep.Add("read_p99_ms", Percentile(read_ms, 0.99));
  rep.Add("core.read_samples", static_cast<double>(read_ms.size()));
  rep.Add("frames_per_op",
          Ratio(static_cast<double>(after.frames - before.frames), static_cast<double>(rep.attempted)));
  rep.Add("core.sim_phase_ms", d.NowMillis() - t0);
  fleet.RecordLayerCounters(rep, before, after);
  fleet.Probe(rep, *fleet.things[sensors.front()]);
  return rep;
}

// ============================================================= model_fanout ==
// The model tier hot: one ModelServer over 64 Things serving 10,000
// ModelClients.  Reads arrive open-loop on a fixed sim-time schedule (TTL
// expiry, single-flight misses, a one-key hotspot), every 16th operation is
// a write-through relay write, and every client subscribes to one of eight
// shared upstream streams.

Rep RunModelFanout(uint64_t seed, const Sizes& size, bool setup_only, bool traced) {
  constexpr int kThings = 64;
  constexpr int kUpstreams = 8;
  constexpr double kPhaseMs = 20000.0;
  Rep rep;
  Fleet fleet;
  const int64_t setup_start = HostNs();
  fleet.deployment = NewDeployment(seed);
  g_tracer.Reset(traced, fleet.deployment.get());
  Deployment& d = fleet.d();
  fleet.client = &d.AddClient("model-gw", nullptr, /*max_in_flight=*/1024);
  micropnp::ModelServerConfig server_config;
  server_config.hook_advertisements = false;  // the fleet ledger forwards instead
  micropnp::ModelServer server(d.scheduler(), *fleet.client, micropnp::ModelCatalog::BuiltIn(),
                               server_config);
  fleet.forward = [&server](const Ip6Address& thing,
                            const std::vector<micropnp::AdvertisedPeripheral>& peripherals) {
    server.ObserveAdvertisement(thing, peripherals);
  };
  fleet.AttachListener();
  const micropnp::DriverImage tmp36 = CompileBundled(micropnp::kTmp36TypeId);
  const micropnp::DriverImage relay = CompileBundled(micropnp::kRelayTypeId);
  micropnp::ThingConfig config;
  config.readvertise_min_ms = 0.0;
  std::vector<size_t> sensors;
  std::vector<size_t> relays;
  for (int i = 0; i < kThings; ++i) {
    const bool is_relay = i % 8 == 7;
    MicroPnpThing& thing = fleet.AddThing("thing-" + std::to_string(i), nullptr, config,
                                          is_relay ? micropnp::kRelayTypeId : micropnp::kTmp36TypeId);
    Status installed;
    {
      Traced span("rt.preinstall", "rt");
      installed = thing.PreinstallDriver(is_relay ? relay : tmp36);
    }
    rep.Check(installed.ok(), "driver preinstall");
    rep.Check(fleet.PlugThing(static_cast<size_t>(i)).ok(), "every Plug() accepted");
    (is_relay ? relays : sensors).push_back(static_cast<size_t>(i));
  }
  fleet.RunUntil([&] { return fleet.ready_count == static_cast<size_t>(kThings); }, 30000.0);
  rep.Check(server.fleet_size() == static_cast<size_t>(kThings), "model server tracks the fleet");
  std::vector<std::unique_ptr<micropnp::ModelClient>> clients;
  clients.reserve(static_cast<size_t>(size.things));
  for (int c = 0; c < size.things; ++c) {
    clients.push_back(std::make_unique<micropnp::ModelClient>(server));
  }
  rep.setup_s = static_cast<double>(HostNs() - setup_start) * 1e-9;
  if (setup_only) {
    return rep;
  }
  fleet.RecordPlugFlow(rep);
  micropnp::Rng rng(seed ^ 0x6d6f646cull);

  const Counters before = fleet.Snapshot();
  const double t0 = d.NowMillis();
  g_phase.Start();

  // Subscriptions: client c shares upstream c % 8.
  uint64_t subscribe_errors = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    const size_t i = sensors[c % kUpstreams];
    Traced span("model.subscribe_call", "model");
    subscribe_errors += clients[c]
                            ->Subscribe(fleet.things[i]->node().address(), micropnp::kTmp36TypeId,
                                        [](const WireValue&) {})
                            .ok()
                            ? 0
                            : 1;
  }

  // Open-loop operations, op k due at t0 + (k + 1) * spacing.  Each op runs
  // as its own event at exactly its due time, so hits complete in zero sim
  // time and a miss is timed from when it was due.
  const double spacing_ms = kPhaseMs / size.ops;
  std::vector<double> miss_ms;
  uint64_t hits = 0;
  uint64_t errors = 0;
  uint64_t wrong_values = 0;
  int resolved = 0;
  bool in_call = false;
  std::function<void(int)> op = [&](int k) {
    if (k + 1 < size.ops) {
      d.scheduler().ScheduleAt(SimTime::FromMillis(t0 + (k + 2) * spacing_ms),
                               [&op, k] { op(k + 1); });
    }
    micropnp::ModelClient& actor = *clients[rng.UniformInt(0, clients.size() - 1)];
    if (k % 16 == 15) {
      const size_t i = relays[rng.UniformInt(0, relays.size() - 1)];
      Traced span("model.write_call", "model");
      actor.WriteValue(fleet.things[i]->node().address(), micropnp::kRelayTypeId,
                       static_cast<int32_t>(rng.UniformInt(0, 1)), [&](Status status) {
                         errors += status.ok() ? 0 : 1;
                         ++resolved;
                       });
      return;
    }
    // One read in ten goes to the hotspot key; the rest are uniform.
    const size_t i = rng.UniformInt(0, 9) == 0
                         ? sensors.front()
                         : static_cast<size_t>(rng.UniformInt(0, kThings - 1));
    const bool is_relay = fleet.device[i] == micropnp::kRelayTypeId;
    const double due = d.NowMillis();
    in_call = true;
    Traced span("model.read_call", "model");
    actor.ReadValue(fleet.things[i]->node().address(), fleet.device[i],
                    [&, due, is_relay](micropnp::Result<WireValue> value) {
                      ++resolved;
                      if (!value.ok()) {
                        ++errors;
                        return;
                      }
                      if (in_call) {
                        ++hits;
                      } else {
                        miss_ms.push_back(d.NowMillis() - due);
                      }
                      const bool plausible =
                          is_relay ? RelayPlausible(*value)
                                   : Tmp36Plausible(*value, d.environment().TemperatureC(
                                                                d.scheduler().now()));
                      wrong_values += plausible ? 0 : 1;
                    });
    in_call = false;
  };
  d.scheduler().ScheduleAt(SimTime::FromMillis(t0 + spacing_ms), [&op] { op(0); });
  fleet.RunUntil([&] { return resolved == size.ops && d.NowMillis() >= t0 + kPhaseMs; },
                 kPhaseMs + 60000.0, 500.0);

  // Exactly-once fan-out, snapshotted while every subscription is live.
  uint64_t fanout_expected = 0;
  for (const micropnp::ModelServer::FanoutStat& stat : server.FanoutStats()) {
    fanout_expected += stat.upstream_events * stat.subscribers;
  }
  const micropnp::ModelServerCounters counters = server.counters();
  for (auto& client : clients) {
    client->UnsubscribeAll();
  }
  fleet.Run(3000.0);
  rep.wall_s = g_phase.Stop(&rep.segments);
  const Counters after = fleet.Snapshot();

  rep.attempted = static_cast<uint64_t>(size.ops) + clients.size();
  rep.failed = errors + subscribe_errors + static_cast<uint64_t>(size.ops - resolved);
  rep.Check(wrong_values == 0, "read values plausible (" + std::to_string(wrong_values) + " off)");
  rep.Check(counters.cache_hits + counters.cache_misses == counters.reads, "hits + misses == reads");
  rep.Check(counters.coalesced_reads + counters.device_reads == counters.cache_misses,
            "coalesced + device_reads == misses");
  rep.Check(counters.fanout_delivered == fanout_expected,
            "fan-out ledger exact (" + std::to_string(counters.fanout_delivered) + " vs " +
                std::to_string(fanout_expected) + ")");
  rep.Check(hits == counters.cache_hits, "synchronous completions == cache hits");
  fleet.CheckEndpoints(rep);

  rep.Add("read_p50_ms", Percentile(miss_ms, 0.5));
  rep.Add("read_p99_ms", Percentile(miss_ms, 0.99));
  rep.Add("core.read_samples", static_cast<double>(miss_ms.size()));
  rep.Add("frames_per_op",
          Ratio(static_cast<double>(after.frames - before.frames), static_cast<double>(rep.attempted)));
  rep.Add("core.sim_phase_ms", d.NowMillis() - t0);
  fleet.RecordLayerCounters(rep, before, after);
  const double reads = static_cast<double>(counters.reads);
  rep.Add("model.hit_rate", Ratio(static_cast<double>(counters.cache_hits), reads));
  rep.Add("model.amplification", Ratio(static_cast<double>(counters.device_reads), reads));
  rep.Add("model.coalesced_reads", static_cast<double>(counters.coalesced_reads));
  rep.Add("model.fanout_delivered", static_cast<double>(counters.fanout_delivered));
  rep.Add("model.upstream_events", static_cast<double>(counters.upstream_events));
  rep.Add("model.upstream_restarts", static_cast<double>(counters.upstream_restarts));
  fleet.Probe(rep, *fleet.things[sensors.front()]);
  return rep;
}

// ================================================================== driver ==

struct WorkloadSpec {
  const char* name;
  Rep (*run)(uint64_t, const Sizes&, bool, bool);
  Sizes sizes;
};

const WorkloadSpec kWorkloads[] = {
    {"lifecycle_star", RunLifecycleStar, {10000, 20000}},
    {"rw_tree_lossy", RunRwTreeLossy, {10000, 200000}},
    {"model_fanout", RunModelFanout, {10000, 1000000}},
};

struct OutMetric {
  const char* name;
  const char* unit;
};

const OutMetric kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"plug_to_ready_p50_ms", "ms"},
    {"plug_to_ready_p99_ms", "ms"},
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"frames_per_op", "frames/op"},
};

const OutMetric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.cascaded_entries", "count"},
    {"sim.cancelled", "count"},
    {"sim.run_host_s", "s"},
    {"sim.self_run_share", "ratio"},
    {"net.frames", "count"},
    {"net.multicast_frames", "count"},
    {"net.frames_lost", "count"},
    {"net.thing_rx_datagrams", "count"},
    {"net.mcast_send_host_us", "us"},
    {"net.ucast_send_host_us", "us"},
    {"hw.identify_p50_ms", "ms"},
    {"hw.identify_p99_ms", "ms"},
    {"proto.join_p50_ms", "ms"},
    {"proto.join_p99_ms", "ms"},
    {"proto.ota_p50_ms", "ms"},
    {"proto.ota_p99_ms", "ms"},
    {"rt.install_p50_ms", "ms"},
    {"rt.install_p99_ms", "ms"},
    {"proto.advertise_p50_ms", "ms"},
    {"proto.advertise_p99_ms", "ms"},
    {"proto.uploads", "count"},
    {"proto.ota_chunks", "count"},
    {"proto.ota_chunk_retx", "count"},
    {"proto.ota_short_circuits", "count"},
    {"proto.ota_nacks", "count"},
    {"proto.driver_request_retries", "count"},
    {"proto.advertisements", "count"},
    {"proto.readverts_suppressed", "count"},
    {"proto.retransmits", "count"},
    {"proto.deadline_exceeded", "count"},
    {"proto.stale_replies", "count"},
    {"proto.peak_in_flight", "count"},
    {"proto.reads_served", "count"},
    {"proto.writes_served", "count"},
    {"proto.read_call_host_ns", "ns"},
    {"proto.plug_call_host_us", "us"},
    {"proto.discover_call_host_us", "us"},
    {"proto.unplug_call_host_us", "us"},
    {"proto.run_share", "ratio"},
    {"rt.preinstall_host_us", "us"},
    {"dsl.compile_host_ms", "ms"},
    {"core.add_thing_host_us", "us"},
    {"model.read_call_host_ns", "ns"},
    {"model.subscribe_call_host_us", "us"},
    {"model.hit_rate", "ratio"},
    {"model.amplification", "ratio"},
    {"model.coalesced_reads", "count"},
    {"model.fanout_delivered", "count"},
    {"model.upstream_events", "count"},
    {"model.upstream_restarts", "count"},
    {"model.run_share", "ratio"},
    {"core.op_failure_ratio", "ratio"},
    {"core.tracing_overhead_s", "s"},
    {"core.read_samples", "count"},
    {"core.plug_samples", "count"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Usage() {
  std::fprintf(stderr,
               "usage: lifebench --workload lifecycle_star|rw_tree_lossy|model_fanout "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "lifebench: refusing to report from a build with assertions enabled "
                       "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr || argc % 2 == 0) {
    return Usage();
  }
  const Sizes& sizes = spec->sizes;
  std::printf("lifebench workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s\n",
              spec->name, static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
              std::thread::hardware_concurrency(), LIFEBENCH_BUILD_TYPE);

  // Measured repetitions until `seconds` of host time have passed (at least
  // one; a traced run alternates untraced and traced, at least one each).
  // Between them, setup-only repetitions take about kSetupShare of the host
  // time, so that the set-ups sample the same stretch of it; at the end they
  // top up to kMinSetups.  Every repetition builds a fresh fleet from the same
  // seed, so the simulated results must agree.
  constexpr double kSetupShare = 0.05;
  const int64_t start = HostNs();
  int64_t setup_only_ns = 0;
  std::vector<Rep> reps;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  SegmentMinima untraced_minima;
  SegmentMinima traced_minima;
  std::vector<double> setups;
  std::vector<Span> spans;
  constexpr int kMaxReps = 50;
  while (static_cast<int>(reps.size()) < kMaxReps) {
    const bool traced_rep = trace && reps.size() % 2 == 1;
    Rep rep = spec->run(seed, sizes, /*setup_only=*/false, traced_rep);
    setups.push_back(rep.setup_s);
    (traced_rep ? traced_wall : untraced_wall).push_back(rep.wall_s);
    rep.Check((traced_rep ? traced_minima : untraced_minima).Add(rep.segments),
              "every repetition of the same seed has the same measured segments");
    std::vector<double>().swap(rep.segments);  // folded in; frees the memory
    if (traced_rep) {
      spans = g_tracer.TakeSpans();
    }
    g_tracer.Reset(false, nullptr);
    const bool failed_checks = !rep.check_failures.empty();
    reps.push_back(std::move(rep));
    if (failed_checks) {
      break;  // reported below; no point repeating a broken run
    }
    while (static_cast<double>(setup_only_ns) <
           kSetupShare * static_cast<double>(HostNs() - start)) {
      const int64_t t0 = HostNs();
      setups.push_back(spec->run(seed, sizes, /*setup_only=*/true, false).setup_s);
      g_tracer.Reset(false, nullptr);
      setup_only_ns += HostNs() - t0;
    }
    const bool enough = !trace || (!traced_wall.empty() && !untraced_wall.empty());
    if (enough && static_cast<double>(HostNs() - start) * 1e-9 >= seconds) {
      break;
    }
  }

  const Rep& first = reps.front();
  std::vector<std::string> failures = reps.back().check_failures;
  for (size_t r = 1; r < reps.size(); ++r) {
    bool same = reps[r].sim.size() == first.sim.size() && reps[r].attempted == first.attempted &&
                reps[r].failed == first.failed;
    for (size_t m = 0; same && m < first.sim.size(); ++m) {
      same = reps[r].sim[m].name == first.sim[m].name && reps[r].sim[m].value == first.sim[m].value;
    }
    if (!same) {
      failures.push_back("repetition " + std::to_string(r) +
                         " of the same seed changed a simulated metric");
    }
  }
  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "lifebench: CHECK FAILED [%s]: %s\n", spec->name, f.c_str());
    }
    return 1;
  }

  constexpr size_t kMinSetups = 9;
  while (setups.size() < kMinSetups) {
    setups.push_back(spec->run(seed, sizes, /*setup_only=*/true, false).setup_s);
    g_tracer.Reset(false, nullptr);
  }

  // Simulated metrics and counts, for the determinism self-check.
  std::printf("sim {");
  for (size_t m = 0; m < first.sim.size(); ++m) {
    std::printf("%s\"%s\": %s", m == 0 ? "" : ", ", first.sim[m].name.c_str(),
                JsonNumber(first.sim[m].value).c_str());
  }
  std::printf(", \"attempted\": %llu, \"failed\": %llu}\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));

  // Every metric, both tables.
  std::vector<Metric> values = first.sim;
  auto set = [&values](const std::string& name, double value) {
    values.push_back(Metric{name, value});
  };
  const double wall_s = untraced_minima.Total();
  set("setup_s", Median(setups));
  set("wall_s", wall_s);
  set("peak_rss_mb", PeakRssMb());
  set("core.op_failure_ratio",
      Ratio(static_cast<double>(first.failed), static_cast<double>(first.attempted)));
  set("sim.host_ns_per_event", Ratio(wall_s * 1e9, first.Get("sim.events")));
  set("net.mcast_send_host_us", first.mcast_send_host_us);
  set("net.ucast_send_host_us", first.ucast_send_host_us);
  const double run_host_s = TotalHostSeconds(spans, "sim.run");
  set("sim.run_host_s", run_host_s);
  set("sim.self_run_share", Ratio(run_host_s - HostSecondsUnderRun(spans, nullptr), run_host_s));
  set("proto.run_share", Ratio(HostSecondsUnderRun(spans, "proto"), run_host_s));
  set("model.run_share", Ratio(HostSecondsUnderRun(spans, "model"), run_host_s));
  set("proto.read_call_host_ns", MeanHost(spans, "proto.read_call", 1.0));
  set("proto.plug_call_host_us", MeanHost(spans, "proto.plug_call", 1e3));
  set("proto.discover_call_host_us", MeanHost(spans, "proto.discover_call", 1e3));
  set("proto.unplug_call_host_us", MeanHost(spans, "proto.unplug_call", 1e3));
  set("rt.preinstall_host_us", MeanHost(spans, "rt.preinstall", 1e3));
  set("dsl.compile_host_ms", MeanHost(spans, "dsl.compile", 1e6));
  set("core.add_thing_host_us", MeanHost(spans, "core.add_thing", 1e3));
  set("model.read_call_host_ns", MeanHost(spans, "model.read_call", 1.0));
  set("model.subscribe_call_host_us", MeanHost(spans, "model.subscribe_call", 1e3));
  set("core.tracing_overhead_s",
      trace ? traced_minima.Total() - wall_s : 0.0);

  auto lookup = [&values](const char* name) {
    for (const Metric& m : values) {
      if (m.name == name) {
        return m.value;
      }
    }
    return 0.0;
  };
  const OutMetric* table = trace ? kPerLayer : kEndToEnd;
  const size_t rows = trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::printf("untraced wall_s per repetition:");
  for (double w : untraced_wall) {
    std::printf(" %.4f", w);
  }
  std::printf(" (median %.4f, fastest %.4f, best of %zu segments %.4f)\n", Median(untraced_wall),
              *std::min_element(untraced_wall.begin(), untraced_wall.end()),
              untraced_minima.size(), wall_s);
  if (trace) {
    std::printf("traced wall_s per repetition:");
    for (double w : traced_wall) {
      std::printf(" %.4f", w);
    }
    std::printf("\n");
  }
  std::printf("setup_s over %zu set-ups: median %.5f, fastest %.5f, slowest %.5f\n",
              setups.size(), Median(setups), *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  std::printf("reps=%zu setups=%zu attempted=%llu failed=%llu read_samples=%.0f plug_samples=%.0f\n",
              reps.size(), setups.size(), static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed), lookup("core.read_samples"),
              lookup("core.plug_samples"));
  for (size_t r = 0; r < rows; ++r) {
    std::printf("  %-30s %16.6f %s\n", table[r].name, lookup(table[r].name), table[r].unit);
  }
  if (trace && !spans_path.empty()) {
    if (!WriteSpans(spans, spans_path)) {
      std::fprintf(stderr, "lifebench: cannot write spans to %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.size(), spans_path.c_str());
  }

  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(first.attempted) +
                     ", \"failed\": " + std::to_string(first.failed) + ", \"metrics\": {";
  for (size_t r = 0; r < rows; ++r) {
    json += std::string(r == 0 ? "" : ", ") + "\"" + table[r].name + "\": {\"value\": " +
            JsonNumber(lookup(table[r].name)) + ", \"unit\": \"" + table[r].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
