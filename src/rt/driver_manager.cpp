#include "src/rt/driver_manager.h"

#include <iterator>

namespace micropnp {

Result<std::shared_ptr<const DecodedImage>> DecodeCache::GetOrDecode(const DriverImage& image,
                                                                    bool* hit) {
  const uint32_t crc = image.ImageCrc();
  auto cached = by_crc_.find(crc);
  if (cached != by_crc_.end() && cached->second->image() == image) {
    // Byte-equality confirmed: a CRC collision must not let a different
    // image reuse (and thereby skip verification of) this entry.
    ++hits_;
    *hit = true;
    return cached->second;
  }
  Result<std::shared_ptr<const DecodedImage>> decoded = DecodedImage::DecodeShared(image, crc);
  if (!decoded.ok()) {
    return decoded;
  }
  ++misses_;
  *hit = false;
  if (cached != by_crc_.end()) {
    // CRC collision with different bytes: the newer image takes the slot.
    cached->second = *decoded;
    return decoded;
  }
  if (by_crc_.size() >= kCapacity) {
    // Evict entries nothing references anymore (use_count 1 == only the
    // cache holds them) so repeated driver-version churn stays bounded.
    for (auto it = by_crc_.begin(); it != by_crc_.end();) {
      it = it->second.use_count() == 1 ? by_crc_.erase(it) : std::next(it);
    }
  }
  if (by_crc_.size() < kCapacity) {
    by_crc_[crc] = *decoded;
  }
  return decoded;
}

DriverManager::DriverManager(Scheduler& scheduler, EventRouter& router, DecodeCache* decode_cache)
    : scheduler_(scheduler),
      router_(router),
      own_cache_(decode_cache == nullptr ? std::make_unique<DecodeCache>() : nullptr),
      decode_cache_(decode_cache != nullptr ? *decode_cache : *own_cache_) {
  router_.set_on_post([this] { SchedulePump(); });
}

Status DriverManager::InstallImage(const DriverImage& image) {
  if (image.device_id == kDeviceTypeAllPeripherals || image.device_id == kDeviceTypeAllClients) {
    return InvalidArgument("reserved device type id");
  }
  bool hit = false;
  Result<std::shared_ptr<const DecodedImage>> decoded = decode_cache_.GetOrDecode(image, &hit);
  if (!decoded.ok()) {
    return decoded.status();
  }
  if (hit) {
    ++decode_cache_hits_;
  }
  images_[image.device_id] = std::move(*decoded);
  ++installs_;
  return OkStatus();
}

Status DriverManager::RemoveImage(DeviceTypeId device_id) {
  auto it = images_.find(device_id);
  if (it == images_.end()) {
    return NotFound("no driver installed for " + FormatDeviceTypeId(device_id));
  }
  for (const auto& [channel, host] : hosts_) {
    if (host->device_id() == device_id) {
      return BusyError("driver in use on channel " + std::to_string(channel));
    }
  }
  // The decode cache intentionally keeps the entry: a re-deploy of the same
  // bytes after a remove skips verify+decode.
  images_.erase(it);
  return OkStatus();
}

bool DriverManager::HasDriverFor(DeviceTypeId device_id) const {
  return images_.count(device_id) != 0;
}

const DriverImage* DriverManager::ImageFor(DeviceTypeId device_id) const {
  auto it = images_.find(device_id);
  return it == images_.end() ? nullptr : &it->second->image();
}

std::shared_ptr<const DecodedImage> DriverManager::DecodedFor(DeviceTypeId device_id) const {
  auto it = images_.find(device_id);
  return it == images_.end() ? nullptr : it->second;
}

std::vector<DeviceTypeId> DriverManager::InstalledDrivers() const {
  std::vector<DeviceTypeId> ids;
  ids.reserve(images_.size());
  for (const auto& [id, decoded] : images_) {
    ids.push_back(id);
  }
  return ids;
}

Status DriverManager::Activate(ChannelId channel, DeviceTypeId device_id, ChannelBus& bus) {
  std::shared_ptr<const DecodedImage> decoded = DecodedFor(device_id);
  if (decoded == nullptr) {
    return NotFound("no driver for " + FormatDeviceTypeId(device_id));
  }
  if (hosts_.count(channel) != 0) {
    return AlreadyExists("channel already has an active driver");
  }
  auto host = std::make_unique<DriverHost>(std::move(decoded), channel, scheduler_, bus, router_);
  hosts_[channel] = std::move(host);
  router_.Post(channel, Event::Of(kEventInit));
  SchedulePump();
  return OkStatus();
}

Status DriverManager::Deactivate(ChannelId channel) {
  auto it = hosts_.find(channel);
  if (it == hosts_.end()) {
    return NotFound("no active driver on channel");
  }
  // Destroy runs synchronously so the driver can release hardware before the
  // host disappears (Section 4.1: destroy fires when the peripheral is
  // unplugged).
  it->second->HandleEvent(Event::Of(kEventDestroy));
  it->second->Teardown();
  hosts_.erase(it);
  return OkStatus();
}

DriverHost* DriverManager::HostForChannel(ChannelId channel) {
  auto it = hosts_.find(channel);
  return it == hosts_.end() ? nullptr : it->second.get();
}

DriverHost* DriverManager::HostForDevice(DeviceTypeId device_id) {
  for (auto& [channel, host] : hosts_) {
    if (host->device_id() == device_id) {
      return host.get();
    }
  }
  return nullptr;
}

size_t DriverManager::DispatchPending() {
  pump_scheduled_ = false;
  const size_t dispatched = router_.ProcessAll([this](int slot, const Event& event) {
    DriverHost* host = HostForChannel(static_cast<ChannelId>(slot));
    if (host != nullptr) {
      host->HandleEvent(event);
    }
  });
  if (!router_.idle()) {
    SchedulePump();
  }
  return dispatched;
}

void DriverManager::SchedulePump() {
  if (pump_scheduled_) {
    return;
  }
  pump_scheduled_ = true;
  scheduler_.ScheduleAfter(SimTime::FromNanos(0), [this] { DispatchPending(); });
}

}  // namespace micropnp
