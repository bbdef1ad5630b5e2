// The northbound device-model gateway tier (docs/MODEL.md).
//
// A ModelServer sits on top of one MicroPnpClient and serves the fleet to
// many concurrent ModelClients, decoupling client load from constrained-
// device capacity.  It keeps ONE record per advertised (Thing, device):
//
//  * Fleet tracking: every advertisement (unsolicited (1) or discovered (3))
//    creates, refreshes or drops the Thing's records.  A record's model is
//    resolved from the built-in catalog when the driver is known, else from
//    the kModelFacets TLV the Thing advertises.
//  * Last-value cache: property reads are answered from the record while
//    its value is fresher than the TTL.  Concurrent reads of a stale value
//    coalesce into ONE device transaction (single-flight): the first miss
//    issues the μPnP read, everyone else joins its waiter list.
//  * Write-through: property writes ride (16)/(17) and update the record on
//    ack, so a read after a successful write is a hit.
//  * Subscription fan-out: one upstream μPnP stream (12)..(15) per record
//    fans out to any number of subscribers.  Upstream telemetry also feeds
//    the last value.  A dropped upstream ((15), lost (13), deadline)
//    re-establishes with capped doubling backoff for as long as
//    subscribers remain.
//
// Each record has a life, drawn when it is created; a fetch or write ack
// lands only on the record of the life that issued it.  A record dropped
// by an advertisement and re-created by the next one is a new life, so the
// old one's late completions neither answer nor revive it.
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
  // facets TLV fallback) and drops the record of every peripheral no longer
  // listed (its in-flight readers fail with kUnavailable, and its fan-out
  // is torn down).
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
  struct Fanout {
    std::map<SubscriptionId, ValueCallback> subscribers;
    // Every upstream (re)start takes a fresh value from lives_, so
    // callbacks from a previous upstream life, even one of a dropped and
    // re-created record, can never alias the live one.
    uint64_t generation = 0;
    double backoff_ms = 0.0;
    bool retry_pending = false;
    uint64_t upstream_events = 0;
    uint64_t delivered = 0;
  };

  // Everything the server holds about one advertised device.
  struct Device {
    DeviceModel model;
    uint64_t life = 0;
    // Last value and its single-flight fetch: one (10) in the air, max.
    WireValue value;
    SimTime fetched_at;
    bool has_value = false;
    bool fetching = false;
    std::vector<ReadCallback> waiters;
    Fanout fanout;  // empty again once its last subscriber leaves

    void Store(const WireValue& fresh, SimTime now) {
      value = fresh;
      fetched_at = now;
      has_value = true;
    }
  };

  // The record for (thing, device), or nullptr.  A non-zero `life` also
  // yields nullptr unless the record is that life: the check every
  // completion makes before touching a record.
  Device* Find(const Ip6Address& thing, DeviceTypeId device, uint64_t life = 0);
  void StartUpstream(const Ip6Address& thing, DeviceTypeId device, Fanout& fanout);
  void OnUpstreamValue(const Ip6Address& thing, DeviceTypeId device, uint64_t generation,
                       const WireValue& value);
  void OnUpstreamClosed(const Ip6Address& thing, DeviceTypeId device, uint64_t generation);
  void OnFetchDone(const Ip6Address& thing, DeviceTypeId device, uint64_t life,
                   Result<WireValue> result);
  RequestOptions DeviceOptions() const;

  Scheduler& scheduler_;
  MicroPnpClient& client_;
  ModelCatalog catalog_;
  ModelServerConfig config_;
  std::map<Ip6Address, std::map<DeviceTypeId, Device>> fleet_;
  SubscriptionId next_subscription_ = 1;
  // Numbers record lives and upstream lives alike, so no two share a value.
  uint64_t lives_ = 0;
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
