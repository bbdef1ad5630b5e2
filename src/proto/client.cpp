#include "src/proto/client.h"

#include <unordered_set>

namespace micropnp {

MicroPnpClient::MicroPnpClient(Scheduler& scheduler, NetNode* node, size_t max_in_flight)
    : node_(node),
      endpoint_(
          scheduler, node,
          [this](const Ip6Address& src, const Ip6Address&, const Message& m) { OnMessage(src, m); },
          max_in_flight) {
  node_->JoinGroup(AllClientsGroup(node_->prefix()));
}

void MicroPnpClient::Discover(DeviceTypeId device, double window_ms, DiscoveryCallback callback) {
  endpoint_.SendGather(
      PeripheralGroup(node_->prefix(), device), MessageType::kPeripheralDiscovery,
      PeripheralDiscoveryPayload{}, {MessageType::kSolicitedAdvertisement}, window_ms,
      [callback = std::move(callback)](Result<ProtoEndpoint::GatherReplies> replies) {
        if (!callback) {
          return;
        }
        if (!replies.ok()) {
          callback(replies.status());
          return;
        }
        std::vector<DiscoveredThing> results;
        results.reserve(replies->size());
        std::unordered_set<Ip6Address> seen;
        seen.reserve(replies->size());
        for (auto& [src, reply] : *replies) {
          const auto* ad = reply.payload_as<AdvertisementPayload>();
          if (ad == nullptr) {
            continue;
          }
          // A retransmitted (2) can elicit a second (3) from the same Thing;
          // surface each Thing once (first reply wins).
          if (seen.insert(src).second) {
            results.push_back(DiscoveredThing{src, ad->peripherals});
          }
        }
        callback(std::move(results));
      });
}

void MicroPnpClient::Read(const Ip6Address& thing, DeviceTypeId device, ReadCallback callback,
                          const RequestOptions& options) {
  endpoint_.SendRequest(
      thing, MessageType::kRead, DeviceTargetPayload{device}, {MessageType::kData},
      [callback = std::move(callback)](Result<Message> reply) {
        if (!callback) {
          return;
        }
        if (!reply.ok()) {
          callback(reply.status());
          return;
        }
        const auto* data = reply->payload_as<ValuePayload>();
        callback(data != nullptr ? Result<WireValue>(data->value)
                                 : Result<WireValue>(CorruptError("malformed data reply")));
      },
      options);
}

void MicroPnpClient::Write(const Ip6Address& thing, DeviceTypeId device, int32_t value,
                           WriteCallback callback, const RequestOptions& options) {
  endpoint_.SendRequest(
      thing, MessageType::kWrite, WritePayload{device, value}, {MessageType::kWriteAck},
      [callback = std::move(callback)](Result<Message> reply) {
        if (!callback) {
          return;
        }
        if (!reply.ok()) {
          callback(reply.status());
          return;
        }
        const auto* ack = reply->payload_as<StatusAckPayload>();
        if (ack == nullptr) {
          callback(CorruptError("malformed write ack"));
          return;
        }
        callback(ack->status == 0 ? OkStatus() : NotFound("peripheral not present"));
      },
      options);
}

void MicroPnpClient::StartStream(const Ip6Address& thing, DeviceTypeId device, uint32_t period_ms,
                                 StreamCallback on_value, StreamClosedCallback on_closed,
                                 const RequestOptions& options) {
  RequestOptions stream_options = options;
  // Sequence + type alone cannot prove a (13) answers *this* request (other
  // clients' sequences toward the same Thing may collide): require the
  // device to match too.
  stream_options.accept = [device](const Message& reply) {
    const auto* established = reply.payload_as<StreamEstablishedPayload>();
    return established != nullptr && established->device_id == device;
  };
  endpoint_.SendRequest(
      thing, MessageType::kStream, StreamRequestPayload{device, period_ms},
      {MessageType::kStreamEstablished},
      [this, thing, device, on_value = std::move(on_value),
       on_closed = std::move(on_closed)](Result<Message> reply) mutable {
        if (!reply.ok()) {
          // (13) never arrived: the subscription expires instead of
          // leaking.  After a deadline the (12) may still have reached the
          // Thing and activated the stream, so send a best-effort shutdown
          // to keep it from streaming to a memberless group forever.  The
          // Thing's stream is a shared per-device resource (any client's
          // stop closes it for all, with (15) notifying the group), so
          // this recovery mirrors an explicit StopStream.  On capacity
          // rejection or cancellation nothing went on the wire — no
          // recovery needed.
          if (reply.status().code() == StatusCode::kDeadlineExceeded) {
            endpoint_.SendOneWay(thing, MessageType::kStream, StreamRequestPayload{device, 0});
          }
          if (on_closed) {
            on_closed();
          }
          return;
        }
        // Re-establishing over an existing subscription closes the old one
        // (its on_closed fires) rather than silently dropping its callbacks.
        CloseStream(thing, device);
        const auto* established = reply->payload_as<StreamEstablishedPayload>();
        StreamSub sub;
        sub.group = established->group;
        sub.on_value = std::move(on_value);
        sub.on_closed = std::move(on_closed);
        RefGroup(sub.group);
        streams_[StreamKey{thing, device}] = std::move(sub);
      },
      stream_options);
}

void MicroPnpClient::StopStream(const Ip6Address& thing, DeviceTypeId device,
                                const RequestOptions& options) {
  // Period 0 requests shutdown.  The Thing answers with (15) to the stream
  // group; our copy arrives from the Thing's unicast address with this
  // request's sequence, completing the transaction.  Whether the reply
  // arrives or the deadline fires, the local subscription is closed.  The
  // predicate keeps another client's (15) for a different device (multicast,
  // possibly sequence-colliding) from completing this transaction.
  RequestOptions stop_options = options;
  stop_options.accept = [device](const Message& reply) {
    const auto* closed = reply.payload_as<DeviceTargetPayload>();
    return closed != nullptr && closed->device_id == device;
  };
  endpoint_.SendRequest(
      thing, MessageType::kStream, StreamRequestPayload{device, 0},
      {MessageType::kStreamClosed},
      [this, thing, device](Result<Message> reply) {
        // On capacity rejection the (12) never went on the wire, and after
        // a deadline it may have been lost: re-send the shutdown one-way
        // (capacity-exempt, idempotent) so the Thing cannot keep streaming
        // to a memberless group.  Cancellation is teardown — skip.
        if (!reply.ok() && reply.status().code() != StatusCode::kCancelled) {
          endpoint_.SendOneWay(thing, MessageType::kStream, StreamRequestPayload{device, 0});
        }
        CloseStream(thing, device);
      },
      stop_options);
}

void MicroPnpClient::CloseStream(const Ip6Address& thing, DeviceTypeId device) {
  auto it = streams_.find(StreamKey{thing, device});
  if (it == streams_.end()) {
    return;
  }
  StreamSub sub = std::move(it->second);
  streams_.erase(it);
  UnrefGroup(sub.group);
  if (sub.on_closed) {
    sub.on_closed();
  }
}

void MicroPnpClient::RefGroup(const Ip6Address& group) {
  if (++group_refs_[group] == 1) {
    node_->JoinGroup(group);
  }
}

void MicroPnpClient::UnrefGroup(const Ip6Address& group) {
  auto it = group_refs_.find(group);
  if (it == group_refs_.end()) {
    return;
  }
  if (--it->second <= 0) {
    group_refs_.erase(it);
    node_->LeaveGroup(group);
  }
}

void MicroPnpClient::OnMessage(const Ip6Address& src, const Message& m) {
  switch (m.type) {
    case MessageType::kUnsolicitedAdvertisement: {
      ++advertisements_seen_;
      if (advertisement_listener_) {
        const auto* ad = m.payload_as<AdvertisementPayload>();
        advertisement_listener_(src, ad->peripherals);
      }
      return;
    }
    case MessageType::kStreamData: {
      // (14)s reach the Thing's stream group; the sending Thing's unicast
      // source selects the subscription.
      const auto* data = m.payload_as<ValuePayload>();
      auto it = streams_.find(StreamKey{src, data->device_id});
      if (it != streams_.end() && it->second.on_value) {
        it->second.on_value(data->value);
      }
      return;
    }
    case MessageType::kStreamClosed: {
      // A (15) we did not request (another client stopped the stream, or
      // the peripheral was unplugged) — closes only the sender's stream.
      CloseStream(src, m.payload_as<DeviceTargetPayload>()->device_id);
      return;
    }
    default:
      return;  // stale replies already counted by the endpoint
  }
}

}  // namespace micropnp
