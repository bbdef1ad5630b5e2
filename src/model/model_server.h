// The northbound device-model gateway tier (docs/MODEL.md).
//
// A ModelServer sits on top of one MicroPnpClient and serves the fleet to
// many concurrent ModelClients, decoupling client load from constrained-
// device capacity:
//
//  * Fleet tracking: every advertisement (unsolicited (1) or discovered (3))
//    updates a typed catalog of Things and their DeviceModels — resolved
//    from the built-in catalog when the driver is known, else from the
//    kModelFacets TLV the Thing advertises.
//  * Last-value cache: property reads are answered from a per-(Thing,
//    device) cache while the value is fresher than the property's TTL.
//    Concurrent reads of a stale value coalesce into ONE device
//    transaction (single-flight): the first miss issues the μPnP read,
//    everyone else joins its waiter list.
//  * Write-through: property writes ride (16)/(17) and update the cache on
//    ack, so a read after a successful write is a hit.
//  * Subscription fan-out: one upstream μPnP stream (12)..(15) per (Thing,
//    device) fans out to any number of subscribers.  Upstream telemetry
//    also feeds the last-value cache.  A dropped upstream ((15), lost (13),
//    deadline) re-establishes with capped doubling backoff for as long as
//    subscribers remain.
//
// Counter invariants (checked by tests and the bench):
//   cache_hits + cache_misses == reads
//   coalesced_reads + device_reads == cache_misses
//   amplification = device_reads / reads  (the headline metric: ~1/M for
//   M clients reading inside one TTL window)

#ifndef SRC_MODEL_MODEL_SERVER_H_
#define SRC_MODEL_MODEL_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/model/device_model.h"
#include "src/proto/client.h"

namespace micropnp {

struct ModelServerConfig {
  // Freshness budget for cached property values; <= 0 disables caching.
  // Per-device overrides via ModelServer::SetTtl.
  double default_ttl_ms = 1000.0;
  // Period requested from upstream streams backing subscriptions.
  uint32_t stream_period_ms = 1000;
  // Install this server as the client's advertisement listener so live
  // (1)s keep the fleet current.  Off when the embedder multiplexes the
  // listener itself.
  bool hook_advertisements = true;
};

struct ModelServerCounters {
  // Read path.
  uint64_t reads = 0;        // modeled property reads accepted
  uint64_t cache_hits = 0;   // answered from a fresh cached value
  uint64_t cache_misses = 0; // stale/cold: hits + misses == reads
  uint64_t coalesced_reads = 0;  // joined an in-flight fetch (single-flight)
  uint64_t device_reads = 0;     // μPnP (10) transactions actually issued
  uint64_t read_failures = 0;    // device fetches that completed non-OK
  uint64_t model_misses = 0;     // reads/writes of unmodeled (thing, device)
  // Write path.
  uint64_t writes = 0;
  uint64_t device_writes = 0;
  uint64_t write_failures = 0;
  // Fan-out.
  uint64_t fanout_delivered = 0;  // subscriber callbacks invoked
  uint64_t upstream_events = 0;   // (14)s received across all fan-outs
  uint64_t upstream_restarts = 0; // re-establish attempts after a drop
  uint64_t dropped_subscribers = 0;  // subscriptions killed by device unplug
};

using SubscriptionId = uint64_t;

class ModelServer {
 public:
  using ReadCallback = std::function<void(Result<WireValue>)>;
  using WriteCallback = std::function<void(Status)>;
  using ValueCallback = std::function<void(const WireValue&)>;
  using RefreshCallback = std::function<void(Result<size_t>)>;  // things seen

  ModelServer(Scheduler& scheduler, MicroPnpClient& client,
              ModelCatalog catalog = ModelCatalog::BuiltIn(),
              const ModelServerConfig& config = {});

  // --- fleet ------------------------------------------------------------------
  // Ingests an advertisement: models every listed peripheral (catalog first,
  // facets TLV fallback) and drops state for peripherals no longer listed
  // (their cache entries are invalidated, in-flight readers fail with
  // kUnavailable, and their fan-outs are torn down).
  void ObserveAdvertisement(const Ip6Address& thing,
                            const std::vector<AdvertisedPeripheral>& peripherals);
  // Active discovery sweep for `device`; every response feeds
  // ObserveAdvertisement.  Reports the number of Things that answered.
  void RefreshFleet(DeviceTypeId device, double window_ms, RefreshCallback callback);

  // Model for a tracked (thing, device); nullptr when unknown.
  const DeviceModel* ModelFor(const Ip6Address& thing, DeviceTypeId device) const;
  size_t fleet_size() const { return fleet_.size(); }
  const ModelCatalog& catalog() const { return catalog_; }

  // --- property access --------------------------------------------------------
  void ReadValue(const Ip6Address& thing, DeviceTypeId device, ReadCallback callback);
  void WriteValue(const Ip6Address& thing, DeviceTypeId device, int32_t value,
                  WriteCallback callback);

  // --- telemetry subscriptions ------------------------------------------------
  // Registers a subscriber; the first subscriber of a (thing, device)
  // starts the upstream stream, later ones share it.  Fails for unmodeled
  // or non-streamable targets.
  Result<SubscriptionId> Subscribe(const Ip6Address& thing, DeviceTypeId device,
                                   ValueCallback on_value);
  // Drops a subscriber; the last one stops the upstream stream.
  void Unsubscribe(const Ip6Address& thing, DeviceTypeId device, SubscriptionId id);

  // --- introspection ----------------------------------------------------------
  // TTL override for one device type (e.g. a fast-moving sensor).
  void SetTtl(DeviceTypeId device, double ttl_ms) { ttl_overrides_[device] = ttl_ms; }
  double TtlFor(DeviceTypeId device) const;

  struct FanoutStat {
    Ip6Address thing;
    DeviceTypeId device = 0;
    size_t subscribers = 0;
    uint64_t upstream_events = 0;
    uint64_t delivered = 0;
  };
  std::vector<FanoutStat> FanoutStats() const;

  const ModelServerCounters& counters() const { return counters_; }

 private:
  using Key = std::pair<Ip6Address, DeviceTypeId>;

  struct CacheEntry {
    WireValue value;
    SimTime fetched_at;
    bool has_value = false;
    bool fetching = false;  // single-flight: one (10) in the air, max
    std::vector<ReadCallback> waiters;
  };

  struct Fanout {
    std::map<SubscriptionId, ValueCallback> subscribers;
    // Guard against stale stream callbacks: every upstream (re)start takes
    // a fresh value from the server-wide generation counter, so callbacks
    // from a previous upstream life — even one belonging to an erased and
    // re-created fanout of the same key — can never alias a live one.
    uint64_t generation = 0;
    double backoff_ms = 0.0;
    bool retry_pending = false;
    uint64_t upstream_events = 0;
    uint64_t delivered = 0;
  };

  void StartUpstream(const Key& key);
  void OnUpstreamValue(const Key& key, uint64_t generation, const WireValue& value);
  void OnUpstreamClosed(const Key& key, uint64_t generation);
  void OnFetchDone(const Key& key, Result<WireValue> result);
  void StoreValue(const Key& key, const WireValue& value);
  void DropDevice(const Key& key);
  RequestOptions DeviceOptions() const;

  Scheduler& scheduler_;
  MicroPnpClient& client_;
  ModelCatalog catalog_;
  ModelServerConfig config_;
  std::map<Ip6Address, std::map<DeviceTypeId, DeviceModel>> fleet_;
  std::map<Key, CacheEntry> cache_;
  std::map<Key, Fanout> fanouts_;
  std::map<DeviceTypeId, double> ttl_overrides_;
  SubscriptionId next_subscription_ = 1;
  uint64_t upstream_generation_ = 0;
  ModelServerCounters counters_;
};

// A northbound consumer handle: forwards to its ModelServer and remembers
// its own subscriptions so teardown is one call.  Many ModelClients share
// one server; the M in the bench's M×N sweep.
class ModelClient {
 public:
  explicit ModelClient(ModelServer& server) : server_(&server) {}
  ~ModelClient() { UnsubscribeAll(); }

  ModelClient(const ModelClient&) = delete;
  ModelClient& operator=(const ModelClient&) = delete;

  void ReadValue(const Ip6Address& thing, DeviceTypeId device,
                 ModelServer::ReadCallback callback) {
    server_->ReadValue(thing, device, std::move(callback));
  }
  void WriteValue(const Ip6Address& thing, DeviceTypeId device, int32_t value,
                  ModelServer::WriteCallback callback) {
    server_->WriteValue(thing, device, value, std::move(callback));
  }
  Result<SubscriptionId> Subscribe(const Ip6Address& thing, DeviceTypeId device,
                                   ModelServer::ValueCallback on_value);
  // Drops one of this client's own subscriptions; an id this client does not
  // hold for (thing, device) is ignored.
  void Unsubscribe(const Ip6Address& thing, DeviceTypeId device, SubscriptionId id);
  void UnsubscribeAll();

  size_t active_subscriptions() const { return subscriptions_.size(); }
  ModelServer& server() { return *server_; }

 private:
  struct OwnedSubscription {
    Ip6Address thing;
    DeviceTypeId device = 0;
    SubscriptionId id = 0;
  };

  ModelServer* server_;
  std::vector<OwnedSubscription> subscriptions_;
};

}  // namespace micropnp

#endif  // SRC_MODEL_MODEL_SERVER_H_
