// The μPnP driver manager (Section 4.2).
//
// "The driver manager interfaces with the peripheral controller and keeps
// track of the peripherals and drivers that are available.  This module also
// integrates closely with the µPnP network stack and provides operations
// that enable remote deployment and removal of device drivers."
//
// Images are stored by device type id (DEPLOY/REMOVE/DISCOVER of Figure 8's
// manager API); activation binds an image to a channel as a DriverHost and
// fires init/destroy lifecycle events (Section 4.1).  Hosts sit in an array
// indexed by channel, so routing an event to its driver is an index.
//
// Installation runs the load-time verifier (src/rt/decoded_image.h): a
// malformed image is rejected with a Status at DEPLOY time — over the air or
// local — never discovered mid-handler.  Decoded images are cached keyed by
// image CRC, so re-plugging the same device type (or re-installing an
// identical image) skips verify+decode entirely and every concurrent host
// for one device type shares a single decoded stream.

#ifndef SRC_RT_DRIVER_MANAGER_H_
#define SRC_RT_DRIVER_MANAGER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/hw/control_board.h"
#include "src/rt/decoded_image.h"
#include "src/rt/driver_host.h"

namespace micropnp {

// Verified+decoded driver images keyed by image CRC.  A hit skips
// verify+decode and hands out the same immutable DecodedImage, so every host
// of one device type shares a single decoded stream.  Hits byte-compare
// against the stored image, so a CRC collision can never bypass
// verification.  One cache may serve many driver managers (a Deployment
// shares one across its whole fleet).
class DecodeCache {
 public:
  // Bound: entries no longer referenced by an installed image are evicted
  // once the cache is full, so driver-version churn on a long-lived node
  // cannot grow memory without bound.
  static constexpr size_t kCapacity = 32;

  // Returns the decoded image, verifying and decoding it on a miss; `*hit`
  // reports whether the cached entry was reused.
  Result<std::shared_ptr<const DecodedImage>> GetOrDecode(const DriverImage& image, bool* hit);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::map<uint32_t, std::shared_ptr<const DecodedImage>> by_crc_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

class DriverManager {
 public:
  // `decode_cache` may be shared with other managers; it must outlive this
  // one.
  DriverManager(Scheduler& scheduler, EventRouter& router, DecodeCache& decode_cache);

  // ---- driver image store (remote DEPLOY/REMOVE/DISCOVER) -----------------
  // Verifies + decodes the image; statically invalid images are rejected
  // here with the verifier's Status.
  Status InstallImage(const DriverImage& image);
  Status RemoveImage(DeviceTypeId device_id);  // fails while a host uses it
  bool HasDriverFor(DeviceTypeId device_id) const;
  std::shared_ptr<const DecodedImage> DecodedFor(DeviceTypeId device_id) const;
  std::vector<DeviceTypeId> InstalledDrivers() const;
  // Handled-event export for the model layer; empty when no image installed.
  std::vector<EventId> HandledEventsFor(DeviceTypeId device_id) const {
    const std::shared_ptr<const DecodedImage> decoded = DecodedFor(device_id);
    return decoded == nullptr ? std::vector<EventId>{} : decoded->HandledEvents();
  }

  // ---- activation ----------------------------------------------------------
  // Binds the stored image for `device_id` to `channel` (OutOfRange past the
  // board's connectors), fires init.
  Status Activate(ChannelId channel, DeviceTypeId device_id, ChannelBus& bus);
  // Fires destroy, tears down libraries, releases the slot.
  Status Deactivate(ChannelId channel);
  DriverHost* HostForChannel(ChannelId channel) {
    return channel < hosts_.size() ? hosts_[channel].get() : nullptr;
  }
  size_t active_hosts() const {
    return std::count_if(hosts_.begin(), hosts_.end(), [](const auto& h) { return h != nullptr; });
  }

  // Drains the event router into the active hosts, each pump bounded to the
  // number of events pending at entry (newly posted errors may still
  // preempt within that budget); a still-busy router reschedules itself on
  // the scheduler so event storms cannot livelock a pump.  Wired to the
  // scheduler: any Post schedules a pump, so running the scheduler processes
  // events.
  size_t DispatchPending();

  EventRouter& router() { return router_; }

  // Installs that reused a cached decoded image (verify+decode skipped).
  uint64_t decode_cache_hits() const { return decode_cache_hits_; }

 private:
  void SchedulePump();

  Scheduler& scheduler_;
  EventRouter& router_;
  // Survives RemoveImage, so a remove/re-deploy cycle of the same bytes is
  // free.
  DecodeCache& decode_cache_;
  std::map<DeviceTypeId, std::shared_ptr<const DecodedImage>> images_;
  std::array<std::unique_ptr<DriverHost>, ControlBoard::kNumChannels> hosts_;
  bool pump_scheduled_ = false;
  uint64_t decode_cache_hits_ = 0;
};

}  // namespace micropnp

#endif  // SRC_RT_DRIVER_MANAGER_H_
