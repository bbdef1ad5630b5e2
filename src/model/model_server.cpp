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
  std::map<DeviceTypeId, DeviceModel> models;
  for (const AdvertisedPeripheral& peripheral : peripherals) {
    // Catalog first (richest: real names and arities), the advertised
    // facets TLV second (lets the gateway type a driver it has never
    // seen), and a read-only protocol-default model last — every μPnP
    // peripheral answers (10) reads once its driver is installed.
    if (const DeviceModel* known = catalog_.Find(peripheral.type)) {
      models.emplace(peripheral.type, *known);
      continue;
    }
    ModelFacets facets;
    if (!FindFacetsTlv(peripheral.info, &facets)) {
      facets.readable = true;
    }
    models.emplace(peripheral.type, ModelFromFacets(peripheral.type, facets));
  }

  // Peripherals no longer advertised were unplugged: their records are
  // about a device that is gone.  Each leaves the fleet before its waiters
  // hear of it, so a waiter that reads again finds no model.
  std::map<DeviceTypeId, Device>& devices = fleet_[thing];
  std::vector<std::pair<DeviceTypeId, Device>> dropped;
  for (auto it = devices.begin(); it != devices.end();) {
    if (models.contains(it->first)) {
      ++it;
      continue;
    }
    dropped.emplace_back(it->first, std::move(it->second));
    it = devices.erase(it);
  }
  for (auto& [device, model] : models) {
    auto [it, created] = devices.try_emplace(device);
    it->second.model = std::move(model);
    if (created) {
      it->second.life = ++lives_;
    }
  }
  if (devices.empty()) {
    fleet_.erase(thing);
  }
  for (auto& [device, record] : dropped) {
    for (ReadCallback& waiter : record.waiters) {
      if (waiter) {
        waiter(Unavailable("device unplugged"));
      }
    }
    if (!record.fanout.subscribers.empty()) {
      counters_.dropped_subscribers += record.fanout.subscribers.size();
      client_.StopStream(thing, device);
    }
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

ModelServer::Device* ModelServer::Find(const Ip6Address& thing, DeviceTypeId device,
                                       uint64_t life) {
  auto fleet_it = fleet_.find(thing);
  if (fleet_it == fleet_.end()) {
    return nullptr;
  }
  auto device_it = fleet_it->second.find(device);
  if (device_it == fleet_it->second.end() || (life != 0 && device_it->second.life != life)) {
    return nullptr;
  }
  return &device_it->second;
}

const DeviceModel* ModelServer::ModelFor(const Ip6Address& thing, DeviceTypeId device) const {
  const Device* record = const_cast<ModelServer*>(this)->Find(thing, device);
  return record == nullptr ? nullptr : &record->model;
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
  Device* record = Find(thing, device);
  if (record == nullptr) {
    ++counters_.model_misses;
    callback(NotFound("no model for thing/device"));
    return;
  }
  if (!record->model.readable) {
    ++counters_.model_misses;
    callback(FailedPrecondition("property is not readable"));
    return;
  }
  ++counters_.reads;

  const double ttl_ms = config_.default_ttl_ms;
  const bool fresh = record->has_value && ttl_ms > 0.0 &&
                     (scheduler_.now() - record->fetched_at) <= SimTime::FromMillis(ttl_ms);
  if (fresh) {
    ++counters_.cache_hits;
    callback(record->value);
    return;
  }

  ++counters_.cache_misses;
  record->waiters.push_back(std::move(callback));
  if (record->fetching) {
    // Single-flight: a fetch is already in the air; join its cohort.
    ++counters_.coalesced_reads;
    return;
  }
  ++counters_.device_reads;
  record->fetching = true;
  client_.Read(
      thing, device,
      [this, thing, device, life = record->life](Result<WireValue> result) {
        OnFetchDone(thing, device, life, std::move(result));
      },
      DeviceOptions());
}

void ModelServer::OnFetchDone(const Ip6Address& thing, DeviceTypeId device, uint64_t life,
                              Result<WireValue> result) {
  Device* record = Find(thing, device, life);
  if (record == nullptr) {
    // Dropped while the fetch was in the air; the drop failed the waiters.
    return;
  }
  record->fetching = false;
  if (result.ok()) {
    record->Store(*result, scheduler_.now());
  } else {
    ++counters_.read_failures;
  }
  // Waiters may re-enter ReadValue; drain from a local copy.
  std::vector<ReadCallback> waiters = std::move(record->waiters);
  record->waiters.clear();
  for (ReadCallback& waiter : waiters) {
    if (waiter) {
      waiter(result);
    }
  }
}

void ModelServer::WriteValue(const Ip6Address& thing, DeviceTypeId device, int32_t value,
                             WriteCallback callback) {
  const Device* record = Find(thing, device);
  if (record == nullptr) {
    ++counters_.model_misses;
    callback(NotFound("no model for thing/device"));
    return;
  }
  if (!record->model.writable) {
    ++counters_.model_misses;
    callback(FailedPrecondition("property is not writable"));
    return;
  }
  ++counters_.writes;
  ++counters_.device_writes;
  client_.Write(
      thing, device, value,
      [this, thing, device, life = record->life, value,
       callback = std::move(callback)](Status status) {
        if (!status.ok()) {
          ++counters_.write_failures;
        } else if (Device* live = Find(thing, device, life)) {
          // Write-through: the acked value is the device's current state,
          // so the next read inside the TTL is a hit.
          WireValue written;
          written.scalar = value;
          live->Store(written, scheduler_.now());
        }
        if (callback) {
          callback(status);
        }
      },
      DeviceOptions());
}

// --- fan-out -----------------------------------------------------------------

Result<SubscriptionId> ModelServer::Subscribe(const Ip6Address& thing, DeviceTypeId device,
                                              ValueCallback on_value) {
  Device* record = Find(thing, device);
  if (record == nullptr) {
    ++counters_.model_misses;
    return NotFound("no model for thing/device");
  }
  if (!record->model.streamable()) {
    ++counters_.model_misses;
    return FailedPrecondition("device has no telemetry channel");
  }
  const SubscriptionId id = next_subscription_++;
  record->fanout.subscribers.emplace(id, std::move(on_value));
  if (record->fanout.subscribers.size() == 1) {
    StartUpstream(thing, device, record->fanout);
  }
  return id;
}

void ModelServer::Unsubscribe(const Ip6Address& thing, DeviceTypeId device, SubscriptionId id) {
  Device* record = Find(thing, device);
  if (record == nullptr || record->fanout.subscribers.erase(id) == 0 ||
      !record->fanout.subscribers.empty()) {
    return;
  }
  // Last subscriber gone: emptying the fan-out makes every pending upstream
  // callback stale, then stop the stream.  A (14) racing the stop is
  // recovered inside OnUpstreamValue (it re-issues the stop; the Thing's
  // stop is idempotent).
  record->fanout = Fanout{};
  client_.StopStream(thing, device);
}

void ModelServer::StartUpstream(const Ip6Address& thing, DeviceTypeId device, Fanout& fanout) {
  const uint64_t generation = ++lives_;
  fanout.generation = generation;
  fanout.retry_pending = false;
  client_.StartStream(
      thing, device, config_.stream_period_ms,
      [this, thing, device, generation](const WireValue& value) {
        OnUpstreamValue(thing, device, generation, value);
      },
      [this, thing, device, generation]() { OnUpstreamClosed(thing, device, generation); },
      DeviceOptions());
}

void ModelServer::OnUpstreamValue(const Ip6Address& thing, DeviceTypeId device,
                                  uint64_t generation, const WireValue& value) {
  Device* record = Find(thing, device);
  if (record == nullptr || record->fanout.subscribers.empty()) {
    // A (14) from an upstream life we already abandoned: the client-side
    // subscription survived our teardown race — close it for real.
    client_.StopStream(thing, device);
    return;
  }
  Fanout& fanout = record->fanout;
  if (fanout.generation != generation) {
    // A newer upstream life is in progress for this record; its own (13) or
    // stop transaction will replace/close the subscription that delivered
    // this stale value.
    return;
  }
  ++fanout.upstream_events;
  ++counters_.upstream_events;
  // Telemetry is a fresh device value: subscribed properties read as hits
  // without any device transaction.
  record->Store(value, scheduler_.now());
  // First delivery after (re)establish: the upstream is healthy again.
  fanout.backoff_ms = 0.0;
  // Subscribers may unsubscribe (or subscribe, or drop the device) from
  // inside the callback; deliver to a snapshot and re-check per subscriber.
  std::vector<SubscriptionId> ids;
  ids.reserve(fanout.subscribers.size());
  for (const auto& [id, callback] : fanout.subscribers) {
    ids.push_back(id);
  }
  for (const SubscriptionId id : ids) {
    Device* live = Find(thing, device);
    if (live == nullptr || live->fanout.generation != generation) {
      break;
    }
    auto sub_it = live->fanout.subscribers.find(id);
    if (sub_it == live->fanout.subscribers.end() || !sub_it->second) {
      continue;
    }
    ++live->fanout.delivered;
    ++counters_.fanout_delivered;
    sub_it->second(value);
  }
}

void ModelServer::OnUpstreamClosed(const Ip6Address& thing, DeviceTypeId device,
                                   uint64_t generation) {
  // An emptied fan-out's generation is 0, so a match means subscribers remain.
  Device* record = Find(thing, device);
  if (record == nullptr || record->fanout.generation != generation ||
      record->fanout.retry_pending) {
    return;
  }
  // The upstream died while subscribers remain ((15) from an unplug, a lost
  // (13), another client's stop): re-establish on a capped doubling ladder.
  Fanout& fanout = record->fanout;
  fanout.backoff_ms = fanout.backoff_ms <= 0.0
                          ? kRestreamBackoffMinMs
                          : std::min(fanout.backoff_ms * 2.0, kRestreamBackoffMaxMs);
  fanout.retry_pending = true;
  ++counters_.upstream_restarts;
  scheduler_.ScheduleAfter(SimTime::FromMillis(fanout.backoff_ms),
                           [this, thing, device, generation] {
                             Device* retry = Find(thing, device);
                             if (retry != nullptr && retry->fanout.generation == generation) {
                               StartUpstream(thing, device, retry->fanout);
                             }
                           });
}

std::vector<ModelServer::FanoutStat> ModelServer::FanoutStats() const {
  std::vector<FanoutStat> stats;
  for (const auto& [thing, devices] : fleet_) {
    for (const auto& [device, record] : devices) {
      const Fanout& fanout = record.fanout;
      if (!fanout.subscribers.empty()) {
        stats.push_back(FanoutStat{thing, device, fanout.subscribers.size(),
                                   fanout.upstream_events, fanout.delivered});
      }
    }
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
