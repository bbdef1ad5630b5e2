#include "src/model/model_server.h"

#include <algorithm>

#include "src/common/logging.h"

namespace micropnp {
namespace {

// Deadline for upstream device reads/writes.
constexpr double kDeviceTimeoutMs = 2000.0;
// Upstream retransmit budget: lossy links need retries for the
// single-flight read not to fail a whole waiter cohort.
constexpr int kDeviceRetransmits = 4;
// Re-establish ladder for dropped upstream streams.
constexpr double kRestreamBackoffMinMs = 250.0;
constexpr double kRestreamBackoffMaxMs = 8000.0;

}  // namespace

ModelServer::ModelServer(Scheduler& scheduler, MicroPnpClient& client, ModelCatalog catalog,
                         const ModelServerConfig& config)
    : scheduler_(scheduler), client_(client), catalog_(std::move(catalog)), config_(config) {
  if (config_.hook_advertisements) {
    client_.set_advertisement_listener(
        [this](const Ip6Address& thing, const std::vector<AdvertisedPeripheral>& peripherals) {
          ObserveAdvertisement(thing, peripherals);
        });
  }
}

// --- fleet -------------------------------------------------------------------

void ModelServer::ObserveAdvertisement(const Ip6Address& thing,
                                       const std::vector<AdvertisedPeripheral>& peripherals) {
  std::map<DeviceTypeId, DeviceModel> devices;
  for (const AdvertisedPeripheral& peripheral : peripherals) {
    // Catalog first (richest: real names and arities), the advertised
    // facets TLV second (lets the gateway type a driver it has never
    // seen), and a read-only protocol-default model last — every μPnP
    // peripheral answers (10) reads once its driver is installed.
    if (const DeviceModel* known = catalog_.Find(peripheral.type)) {
      devices.emplace(peripheral.type, *known);
      continue;
    }
    ModelFacets facets;
    if (!FindFacetsTlv(peripheral.info, &facets)) {
      facets.readable = true;
    }
    devices.emplace(peripheral.type, ModelFromFacets(peripheral.type, facets));
  }

  // Peripherals no longer advertised were unplugged: their cached values
  // and fan-outs are now about a device that is gone.
  auto fleet_it = fleet_.find(thing);
  if (fleet_it != fleet_.end()) {
    for (const auto& [device, model] : fleet_it->second) {
      if (!devices.contains(device)) {
        DropDevice(Key{thing, device});
      }
    }
  }
  if (devices.empty()) {
    fleet_.erase(thing);
  } else {
    fleet_[thing] = std::move(devices);
  }
}

void ModelServer::RefreshFleet(DeviceTypeId device, double window_ms,
                               RefreshCallback callback) {
  client_.Discover(device, window_ms,
                   [this, callback = std::move(callback)](
                       Result<std::vector<MicroPnpClient::DiscoveredThing>> things) {
                     if (!things.ok()) {
                       if (callback) {
                         callback(things.status());
                       }
                       return;
                     }
                     for (const MicroPnpClient::DiscoveredThing& thing : *things) {
                       ObserveAdvertisement(thing.address, thing.peripherals);
                     }
                     if (callback) {
                       callback(things->size());
                     }
                   });
}

const DeviceModel* ModelServer::ModelFor(const Ip6Address& thing, DeviceTypeId device) const {
  auto fleet_it = fleet_.find(thing);
  if (fleet_it == fleet_.end()) {
    return nullptr;
  }
  auto device_it = fleet_it->second.find(device);
  return device_it == fleet_it->second.end() ? nullptr : &device_it->second;
}

double ModelServer::TtlFor(DeviceTypeId device) const {
  auto it = ttl_overrides_.find(device);
  return it == ttl_overrides_.end() ? config_.default_ttl_ms : it->second;
}

RequestOptions ModelServer::DeviceOptions() const {
  RequestOptions options;
  options.deadline_ms = kDeviceTimeoutMs;
  options.max_retransmits = kDeviceRetransmits;
  return options;
}

// --- property access ---------------------------------------------------------

void ModelServer::ReadValue(const Ip6Address& thing, DeviceTypeId device,
                            ReadCallback callback) {
  const DeviceModel* model = ModelFor(thing, device);
  if (model == nullptr) {
    ++counters_.model_misses;
    callback(NotFound("no model for thing/device"));
    return;
  }
  if (!model->readable) {
    ++counters_.model_misses;
    callback(FailedPrecondition("property is not readable"));
    return;
  }
  ++counters_.reads;

  const Key key{thing, device};
  CacheEntry& entry = cache_[key];
  const double ttl_ms = TtlFor(device);
  const bool fresh = entry.has_value && ttl_ms > 0.0 &&
                     (scheduler_.now() - entry.fetched_at) <= SimTime::FromMillis(ttl_ms);
  if (fresh) {
    ++counters_.cache_hits;
    callback(entry.value);
    return;
  }

  ++counters_.cache_misses;
  if (entry.fetching) {
    // Single-flight: a fetch is already in the air; join its cohort.
    ++counters_.coalesced_reads;
    entry.waiters.push_back(std::move(callback));
    return;
  }
  ++counters_.device_reads;
  entry.fetching = true;
  entry.waiters.push_back(std::move(callback));
  client_.Read(
      thing, device,
      [this, key](Result<WireValue> result) { OnFetchDone(key, std::move(result)); },
      DeviceOptions());
}

void ModelServer::OnFetchDone(const Key& key, Result<WireValue> result) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    // Device dropped while the fetch was in the air; DropDevice already
    // failed the waiters.
    return;
  }
  CacheEntry& entry = it->second;
  entry.fetching = false;
  if (result.ok()) {
    entry.value = *result;
    entry.fetched_at = scheduler_.now();
    entry.has_value = true;
  } else {
    ++counters_.read_failures;
  }
  // Waiters may re-enter ReadValue; drain from a local copy.
  std::vector<ReadCallback> waiters = std::move(entry.waiters);
  entry.waiters.clear();
  for (ReadCallback& waiter : waiters) {
    if (waiter) {
      waiter(result);
    }
  }
}

void ModelServer::WriteValue(const Ip6Address& thing, DeviceTypeId device, int32_t value,
                             WriteCallback callback) {
  const DeviceModel* model = ModelFor(thing, device);
  if (model == nullptr) {
    ++counters_.model_misses;
    callback(NotFound("no model for thing/device"));
    return;
  }
  if (!model->writable) {
    ++counters_.model_misses;
    callback(FailedPrecondition("property is not writable"));
    return;
  }
  ++counters_.writes;
  ++counters_.device_writes;
  const Key key{thing, device};
  client_.Write(
      thing, device, value,
      [this, key, value, callback = std::move(callback)](Status status) {
        if (status.ok()) {
          // Write-through: the acked value is the device's current state,
          // so the next read inside the TTL is a hit.
          WireValue written;
          written.scalar = value;
          StoreValue(key, written);
        } else {
          ++counters_.write_failures;
        }
        if (callback) {
          callback(status);
        }
      },
      DeviceOptions());
}

void ModelServer::StoreValue(const Key& key, const WireValue& value) {
  CacheEntry& entry = cache_[key];
  entry.value = value;
  entry.fetched_at = scheduler_.now();
  entry.has_value = true;
}

// --- fan-out -----------------------------------------------------------------

Result<SubscriptionId> ModelServer::Subscribe(const Ip6Address& thing, DeviceTypeId device,
                                              ValueCallback on_value) {
  const DeviceModel* model = ModelFor(thing, device);
  if (model == nullptr) {
    ++counters_.model_misses;
    return NotFound("no model for thing/device");
  }
  if (!model->streamable()) {
    ++counters_.model_misses;
    return FailedPrecondition("device has no telemetry channel");
  }
  const Key key{thing, device};
  Fanout& fanout = fanouts_[key];
  const bool first = fanout.subscribers.empty();
  const SubscriptionId id = next_subscription_++;
  fanout.subscribers.emplace(id, std::move(on_value));
  if (first) {
    StartUpstream(key);
  }
  return id;
}

void ModelServer::Unsubscribe(const Ip6Address& thing, DeviceTypeId device, SubscriptionId id) {
  const Key key{thing, device};
  auto it = fanouts_.find(key);
  if (it == fanouts_.end() || it->second.subscribers.erase(id) == 0) {
    return;
  }
  if (!it->second.subscribers.empty()) {
    return;
  }
  // Last subscriber gone: erasing the fanout makes every pending upstream
  // callback stale, then stop the stream.  A (14) racing the stop is
  // recovered inside OnUpstreamValue (it re-issues the stop; the Thing's
  // stop is idempotent).
  fanouts_.erase(it);
  client_.StopStream(thing, device);
}

void ModelServer::StartUpstream(const Key& key) {
  auto it = fanouts_.find(key);
  if (it == fanouts_.end()) {
    return;
  }
  Fanout& fanout = it->second;
  const uint64_t generation = ++upstream_generation_;
  fanout.generation = generation;
  fanout.retry_pending = false;
  client_.StartStream(
      key.first, key.second, config_.stream_period_ms,
      [this, key, generation](const WireValue& value) {
        OnUpstreamValue(key, generation, value);
      },
      [this, key, generation]() { OnUpstreamClosed(key, generation); }, DeviceOptions());
}

void ModelServer::OnUpstreamValue(const Key& key, uint64_t generation, const WireValue& value) {
  auto it = fanouts_.find(key);
  if (it == fanouts_.end()) {
    // A (14) from an upstream life we already abandoned: the client-side
    // subscription survived our teardown race — close it for real.
    client_.StopStream(key.first, key.second);
    return;
  }
  if (it->second.generation != generation) {
    // A newer upstream life is in progress for this key; its own (13) or
    // stop transaction will replace/close the subscription that delivered
    // this stale value.
    return;
  }
  Fanout& fanout = it->second;
  ++fanout.upstream_events;
  ++counters_.upstream_events;
  // Telemetry is a fresh device value: feed the last-value cache so
  // subscribed properties read as hits without any device transaction.
  StoreValue(key, value);
  // First delivery after (re)establish: the upstream is healthy again.
  fanout.backoff_ms = 0.0;
  // Subscribers may unsubscribe (or subscribe) from inside the callback;
  // deliver to a snapshot and re-check membership per subscriber.
  std::vector<SubscriptionId> ids;
  ids.reserve(fanout.subscribers.size());
  for (const auto& [id, callback] : fanout.subscribers) {
    ids.push_back(id);
  }
  for (const SubscriptionId id : ids) {
    auto fanout_it = fanouts_.find(key);
    if (fanout_it == fanouts_.end() || fanout_it->second.generation != generation) {
      break;
    }
    auto sub_it = fanout_it->second.subscribers.find(id);
    if (sub_it == fanout_it->second.subscribers.end() || !sub_it->second) {
      continue;
    }
    ++fanout_it->second.delivered;
    ++counters_.fanout_delivered;
    sub_it->second(value);
  }
}

void ModelServer::OnUpstreamClosed(const Key& key, uint64_t generation) {
  auto it = fanouts_.find(key);
  if (it == fanouts_.end() || it->second.generation != generation) {
    return;
  }
  Fanout& fanout = it->second;
  if (fanout.subscribers.empty() || fanout.retry_pending) {
    return;
  }
  // The upstream died while subscribers remain ((15) from an unplug, a lost
  // (13), another client's stop): re-establish on a capped doubling ladder.
  fanout.backoff_ms = fanout.backoff_ms <= 0.0
                          ? kRestreamBackoffMinMs
                          : std::min(fanout.backoff_ms * 2.0, kRestreamBackoffMaxMs);
  fanout.retry_pending = true;
  ++counters_.upstream_restarts;
  scheduler_.ScheduleAfter(SimTime::FromMillis(fanout.backoff_ms), [this, key, generation] {
    auto retry_it = fanouts_.find(key);
    if (retry_it == fanouts_.end() || retry_it->second.generation != generation ||
        retry_it->second.subscribers.empty()) {
      return;
    }
    StartUpstream(key);
  });
}

// --- teardown ----------------------------------------------------------------

void ModelServer::DropDevice(const Key& key) {
  auto cache_it = cache_.find(key);
  if (cache_it != cache_.end()) {
    std::vector<ReadCallback> waiters = std::move(cache_it->second.waiters);
    cache_.erase(cache_it);
    for (ReadCallback& waiter : waiters) {
      if (waiter) {
        waiter(Unavailable("device unplugged"));
      }
    }
  }
  auto fanout_it = fanouts_.find(key);
  if (fanout_it != fanouts_.end()) {
    counters_.dropped_subscribers += fanout_it->second.subscribers.size();
    fanouts_.erase(fanout_it);  // pending stream/retry callbacks go stale
    client_.StopStream(key.first, key.second);
  }
}

std::vector<ModelServer::FanoutStat> ModelServer::FanoutStats() const {
  std::vector<FanoutStat> stats;
  stats.reserve(fanouts_.size());
  for (const auto& [key, fanout] : fanouts_) {
    FanoutStat stat;
    stat.thing = key.first;
    stat.device = key.second;
    stat.subscribers = fanout.subscribers.size();
    stat.upstream_events = fanout.upstream_events;
    stat.delivered = fanout.delivered;
    stats.push_back(stat);
  }
  return stats;
}

// --- ModelClient -------------------------------------------------------------

Result<SubscriptionId> ModelClient::Subscribe(const Ip6Address& thing, DeviceTypeId device,
                                              ModelServer::ValueCallback on_value) {
  Result<SubscriptionId> id = server_->Subscribe(thing, device, std::move(on_value));
  if (id.ok()) {
    subscriptions_.push_back(OwnedSubscription{thing, device, *id});
  }
  return id;
}

void ModelClient::Unsubscribe(const Ip6Address& thing, DeviceTypeId device, SubscriptionId id) {
  auto it = std::find_if(subscriptions_.begin(), subscriptions_.end(),
                         [&](const OwnedSubscription& sub) {
                           return sub.id == id && sub.thing == thing && sub.device == device;
                         });
  if (it == subscriptions_.end()) {
    return;  // another client's subscription, or already gone
  }
  subscriptions_.erase(it);
  server_->Unsubscribe(thing, device, id);
}

void ModelClient::UnsubscribeAll() {
  std::vector<OwnedSubscription> subscriptions = std::move(subscriptions_);
  subscriptions_.clear();
  for (const OwnedSubscription& sub : subscriptions) {
    server_->Unsubscribe(sub.thing, sub.device, sub.id);
  }
}

}  // namespace micropnp
