// The μPnP Client (Section 5): discovers Things' peripherals and uses them.
//
// "The µPnP Client software may run on both embedded IoT devices and
// standard computing platforms.  It allows for remote discovery and
// interaction with µPnP Things."  The client joins the all-clients group to
// receive unsolicited advertisements, issues discovery (2), and performs
// read (10)/(11), stream (12)..(15) and write (16)/(17) operations.
//
// Every request/response transaction rides the shared ProtoEndpoint:
// sequence matching, deadlines, retransmission and exactly-once completion
// live there, not here.  The client keeps only the state that outlives a
// transaction (established stream subscriptions).

#ifndef SRC_PROTO_CLIENT_H_
#define SRC_PROTO_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/proto/endpoint.h"
#include "src/proto/messages.h"

namespace micropnp {

class MicroPnpClient {
 public:
  // `max_in_flight` bounds the endpoint's pending table; requests beyond it
  // fail fast with kResourceExhausted.
  MicroPnpClient(Scheduler& scheduler, NetNode* node, size_t max_in_flight = 64);

  // --- discovery --------------------------------------------------------------
  struct DiscoveredThing {
    Ip6Address address;
    std::vector<AdvertisedPeripheral> peripherals;
  };
  using DiscoveryCallback = std::function<void(Result<std::vector<DiscoveredThing>>)>;
  // Multicasts (2) to the group of Things carrying `device`, collects (3)
  // responses for `window_ms`, then invokes the callback exactly once: with
  // the Things found (possibly none), or with a non-OK Status (capacity,
  // cancellation) when the discovery never went on the wire.  Responses are
  // deduplicated by Thing address — a retransmitted (2) eliciting duplicate
  // (3)s surfaces each Thing once (first reply wins).
  void Discover(DeviceTypeId device, double window_ms, DiscoveryCallback callback);

  // Unsolicited advertisements ((1), pushed on plug/unplug) surface here.
  using AdvertisementListener =
      std::function<void(const Ip6Address& thing, const std::vector<AdvertisedPeripheral>&)>;
  void set_advertisement_listener(AdvertisementListener listener) {
    advertisement_listener_ = std::move(listener);
  }

  // --- remote operations (Section 5.3.1) ---------------------------------------
  // Every operation completes exactly once: with the value/ack, or with
  // kDeadlineExceeded / kCancelled / kResourceExhausted.

  using ReadCallback = std::function<void(Result<WireValue>)>;
  void Read(const Ip6Address& thing, DeviceTypeId device, ReadCallback callback,
            const RequestOptions& options);
  void Read(const Ip6Address& thing, DeviceTypeId device, ReadCallback callback,
            double timeout_ms = 2000.0) {
    Read(thing, device, std::move(callback), RequestOptions::WithDeadline(timeout_ms));
  }

  using WriteCallback = std::function<void(Status)>;
  void Write(const Ip6Address& thing, DeviceTypeId device, int32_t value, WriteCallback callback,
             const RequestOptions& options);
  void Write(const Ip6Address& thing, DeviceTypeId device, int32_t value, WriteCallback callback,
             double timeout_ms = 2000.0) {
    Write(thing, device, value, std::move(callback), RequestOptions::WithDeadline(timeout_ms));
  }

  using StreamCallback = std::function<void(const WireValue&)>;
  using StreamClosedCallback = std::function<void()>;
  // Subscribes to a value stream: sends (12), joins the group from (13), and
  // invokes `on_value` for every (14) until (15) closes the stream.  When
  // (13) never arrives within the deadline the subscription expires and
  // `on_closed` fires — a stream request cannot leak.
  void StartStream(const Ip6Address& thing, DeviceTypeId device, uint32_t period_ms,
                   StreamCallback on_value, StreamClosedCallback on_closed = nullptr,
                   const RequestOptions& options = RequestOptions{});
  // Requests stream shutdown ((12) with period 0, answered by (15) to the
  // group).  The local subscription is torn down exactly once — on the
  // (15), or at the deadline if it never arrives — so a lost datagram
  // cannot leak the subscription or the group membership.
  void StopStream(const Ip6Address& thing, DeviceTypeId device,
                  const RequestOptions& options = RequestOptions{});

  NetNode& node() { return *node_; }
  ProtoEndpoint& endpoint() { return endpoint_; }
  const ProtoEndpoint& endpoint() const { return endpoint_; }
  uint64_t advertisements_seen() const { return advertisements_seen_; }

 private:
  struct StreamSub {
    Ip6Address group;
    StreamCallback on_value;
    StreamClosedCallback on_closed;
  };
  // Subscriptions are keyed per (Thing, device), like the Thing's stream
  // group StreamGroup(thing, device) that its (13) names; (14)/(15) are
  // matched by their unicast source, not by the group, so one client can
  // hold concurrent streams to many Things of the same type (the model
  // layer's fan-out upstream) whatever group each (13) names.
  using StreamKey = std::pair<Ip6Address, DeviceTypeId>;

  // Removes the subscription (if any), releases its group reference, and
  // fires on_closed.
  void CloseStream(const Ip6Address& thing, DeviceTypeId device);
  // Group membership is reference-counted across subscriptions because
  // NetNode::JoinGroup/LeaveGroup are set-based: two subscriptions whose
  // (13)s name the same group share one membership, dropped only with the
  // last of them.
  void RefGroup(const Ip6Address& group);
  void UnrefGroup(const Ip6Address& group);
  // Messages the endpoint did not match to a pending transaction.
  void OnMessage(const Ip6Address& src, const Message& m);

  NetNode* node_;
  ProtoEndpoint endpoint_;
  std::map<StreamKey, StreamSub> streams_;  // established subscriptions
  std::map<Ip6Address, int> group_refs_;
  AdvertisementListener advertisement_listener_;
  uint64_t advertisements_seen_ = 0;
};

}  // namespace micropnp

#endif  // SRC_PROTO_CLIENT_H_
