#include "src/proto/endpoint.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"

namespace micropnp {

namespace {

// Pure reply types: these only ever exist as the answer to a request, so an
// unmatched one is by definition stale (late, duplicated, or addressed to a
// transaction that already completed).  Notification types (advertisements,
// stream data/closed) are legitimately unsolicited and are not counted.
bool IsPureReplyType(MessageType type) {
  switch (type) {
    case MessageType::kSolicitedAdvertisement:
    case MessageType::kDriverUpload:
    case MessageType::kDriverUploadOffer:
    case MessageType::kDriverAdvertisement:
    case MessageType::kDriverRemovalAck:
    case MessageType::kData:
    case MessageType::kStreamEstablished:
    case MessageType::kWriteAck:
      return true;
    default:
      return false;
  }
}

// A sequence names its slot in its low bits and the slot's generation in
// the bits above.  2^15 slots leave every slot at least one generation bit:
// a slot at 2^16 or beyond would carry a truncated sequence no reply could
// match, and a slot with no generation bit would repeat its sequence on
// every use.
constexpr size_t kMaxInFlight = size_t{1} << 15;

}  // namespace

ProtoEndpoint::ProtoEndpoint(Scheduler& scheduler, NetNode* node, MessageHandler handler,
                             size_t max_in_flight)
    : scheduler_(scheduler),
      node_(node),
      handler_(std::move(handler)),
      max_in_flight_(std::min(max_in_flight, kMaxInFlight)),
      slot_bits_(std::bit_width(std::max<size_t>(max_in_flight_, 1) - 1)) {
  node_->BindUdp(kMicroPnpUdpPort,
                 [this](const Ip6Address& src, const Ip6Address& dst, uint16_t /*port*/,
                        const std::vector<uint8_t>& payload) { OnDatagram(src, dst, payload); });
}

ProtoEndpoint::~ProtoEndpoint() {
  // Drop pending transactions without invoking handlers: during teardown the
  // captured state may already be gone.
  for (PendingRequest& entry : slots_) {
    if (entry.active) {
      scheduler_.Cancel(entry.timer);
    }
  }
  node_->UnbindUdp(kMicroPnpUdpPort);
}

void ProtoEndpoint::OnDatagram(const Ip6Address& src, const Ip6Address& dst,
                               const std::vector<uint8_t>& payload) {
  Result<Message> parsed = Message::Parse(ByteSpan(payload.data(), payload.size()));
  if (!parsed.ok()) {
    MLOG(kDebug, "endpoint") << "dropping malformed datagram from " << src.ToString();
    return;
  }
  if (!HandleReply(src, *parsed) && handler_) {
    handler_(src, dst, *parsed);
  }
}

ProtoEndpoint::PendingRequest* ProtoEndpoint::Holder(SequenceNumber sequence) {
  const size_t slot = SlotOf(sequence);
  if (slot >= slots_.size() || !slots_[slot].active || slots_[slot].sequence != sequence) {
    return nullptr;
  }
  return &slots_[slot];
}

ProtoEndpoint::PendingRequest* ProtoEndpoint::Resolve(RequestId id) {
  if (id == kInvalidRequest) {
    return nullptr;
  }
  const uint64_t slot = (id & 0xffffffffull) - 1;
  if (slot >= slots_.size()) {
    return nullptr;
  }
  PendingRequest& entry = slots_[slot];
  if (!entry.active || entry.generation != static_cast<uint32_t>(id >> 32)) {
    return nullptr;
  }
  return &entry;
}

ProtoEndpoint::RequestId ProtoEndpoint::ClaimSlot() {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().generation = 1;
  }
  PendingRequest& entry = slots_[slot];
  entry.active = true;
  entry.sequence = static_cast<SequenceNumber>((entry.generation << slot_bits_) | slot);
  ++active_requests_;
  return IdOf(slot);
}

void ProtoEndpoint::ReleaseSlot(RequestId id, PendingRequest& entry) {
  entry.active = false;
  ++entry.generation;
  entry.handler = nullptr;
  entry.wire.clear();  // capacity kept for the slot's next occupant
  entry.options = RequestOptions{};
  entry.timer = 0;
  --active_requests_;
  free_slots_.push_back(static_cast<uint32_t>((id & 0xffffffffull) - 1));
}

void ProtoEndpoint::NoteInFlight() {
  counters_.peak_in_flight = std::max<uint64_t>(counters_.peak_in_flight, in_flight());
}

ProtoEndpoint::RequestId ProtoEndpoint::SendRequest(const Ip6Address& peer, MessageType type,
                                                    MessagePayload payload,
                                                    MessageType reply_type,
                                                    ResponseHandler handler,
                                                    const RequestOptions& options) {
  return Start(peer, type, std::move(payload), reply_type, std::move(handler), nullptr, options);
}

ProtoEndpoint::RequestId ProtoEndpoint::SendGather(const Ip6Address& group, MessageType type,
                                                   MessagePayload payload,
                                                   MessageType reply_type, double window_ms,
                                                   GatherHandler handler) {
  RequestOptions options;
  options.deadline_ms = window_ms;
  options.match_any_source = true;
  return Start(group, type, std::move(payload), reply_type, nullptr,
               std::make_unique<Gather>(Gather{std::move(handler), {}}), options);
}

ProtoEndpoint::RequestId ProtoEndpoint::Start(const Ip6Address& peer, MessageType type,
                                              MessagePayload payload,
                                              MessageType reply_type,
                                              ResponseHandler handler,
                                              std::unique_ptr<Gather> gather,
                                              const RequestOptions& options) {
  if (in_flight() >= max_in_flight_) {
    ++counters_.rejected_capacity;
    Finish(handler, gather.get(), ResourceExhausted("endpoint pending table full"), nullptr);
    return kInvalidRequest;
  }
  const RequestId id = ClaimSlot();
  PendingRequest& entry = *Resolve(id);
  entry.peer = peer;
  entry.reply_type = reply_type;
  entry.handler = std::move(handler);
  entry.gather = std::move(gather);
  MakeMessage(type, entry.sequence, std::move(payload)).SerializeInto(entry.wire);
  entry.options = options;
  entry.deadline = scheduler_.now() + SimTime::FromMillis(options.deadline_ms);
  entry.next_backoff_ms = options.initial_backoff_ms;
  entry.retransmits_left = options.max_retransmits;

  node_->SendUdp(peer, kMicroPnpUdpPort, entry.wire);
  ++counters_.requests_started;
  NoteInFlight();
  ArmTimer(id);
  return id;
}

SequenceNumber ProtoEndpoint::SendOneWay(const Ip6Address& peer, MessageType type,
                                         MessagePayload payload) {
  // At most 2^15 of the 2^16 sequences are pending, so the skip ends.
  SequenceNumber seq = next_sequence_++;
  while (Holder(seq) != nullptr) {
    seq = next_sequence_++;
  }
  Send(peer, type, seq, std::move(payload));
  return seq;
}

void ProtoEndpoint::Send(const Ip6Address& peer, MessageType type, SequenceNumber sequence,
                         MessagePayload payload) {
  // One buffer serves every endpoint: the fabric copies the bytes before
  // SendUdp returns, so its capacity is all that outlives the call.
  thread_local std::vector<uint8_t> wire;
  MakeMessage(type, sequence, std::move(payload)).SerializeInto(wire);
  node_->SendUdp(peer, kMicroPnpUdpPort, wire);
}

void ProtoEndpoint::ArmTimer(RequestId id) {
  PendingRequest* entry = Resolve(id);
  if (entry == nullptr) {
    return;
  }
  SimTime next = entry->deadline;
  if (entry->retransmits_left > 0) {
    const SimTime retransmit_at = scheduler_.now() + SimTime::FromMillis(entry->next_backoff_ms);
    if (retransmit_at < next) {
      next = retransmit_at;
    }
  }
  entry->timer = scheduler_.ScheduleAt(next, [this, id] { OnTimer(id); });
}

void ProtoEndpoint::OnTimer(RequestId id) {
  PendingRequest* entry = Resolve(id);
  if (entry == nullptr) {
    return;
  }
  if (scheduler_.now() >= entry->deadline) {
    if (entry->gather != nullptr) {
      Complete(id, OkStatus());  // the window closed: a gather's success
    } else {
      Complete(id, DeadlineExceeded(std::string("no reply from peer for ") +
                                    MessageTypeName(static_cast<MessageType>(entry->wire[0]))));
    }
    return;
  }
  // Retransmit the stored wire bytes and back off.
  node_->SendUdp(entry->peer, kMicroPnpUdpPort, entry->wire);
  ++counters_.retransmits;
  --entry->retransmits_left;
  entry->next_backoff_ms *= entry->options.backoff_multiplier;
  ArmTimer(id);
}

void ProtoEndpoint::Complete(RequestId id, const Status& status, const Message* reply) {
  PendingRequest* entry = Resolve(id);
  if (entry == nullptr) {
    return;
  }
  scheduler_.Cancel(entry->timer);

  if (status.ok()) {
    ++counters_.completed_ok;
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++counters_.deadline_exceeded;
  } else if (status.code() == StatusCode::kCancelled) {
    ++counters_.cancelled;
  }
  // Release the slot before invoking the handler: handlers routinely submit
  // follow-up requests, which may legitimately reuse it (the bumped
  // generation retires this id).
  ResponseHandler handler = std::move(entry->handler);
  std::unique_ptr<Gather> gather = std::move(entry->gather);
  ReleaseSlot(id, *entry);
  Finish(handler, gather.get(), status, reply);
}

void ProtoEndpoint::Finish(const ResponseHandler& handler, Gather* gather, const Status& status,
                           const Message* reply) {
  if (gather != nullptr) {
    if (gather->handler) {
      gather->handler(status.ok() ? Result<GatherReplies>(std::move(gather->replies))
                                  : Result<GatherReplies>(status));
    }
  } else if (handler) {
    handler(status.ok() ? Result<Message>(*reply) : Result<Message>(status));
  }
}

bool ProtoEndpoint::Cancel(RequestId id) {
  if (Resolve(id) == nullptr) {
    return false;
  }
  Complete(id, CancelledError("request cancelled"));
  return true;
}

bool ProtoEndpoint::HandleReply(const Ip6Address& src, const Message& message) {
  // The sequence names the one transaction it can answer.  Any-source
  // transactions (anycast requests, multicast gathers) skip the peer check.
  PendingRequest* entry = Holder(message.sequence);
  if (entry != nullptr && (entry->options.match_any_source || entry->peer == src) &&
      entry->reply_type == message.type &&
      (!entry->options.accept || entry->options.accept(message))) {
    ++counters_.replies_matched;
    if (entry->gather != nullptr) {
      entry->gather->replies.emplace_back(src, message);  // collected until the window closes
    } else {
      Complete(IdOf(SlotOf(message.sequence)), OkStatus(), &message);
    }
    return true;
  }
  if (IsPureReplyType(message.type)) {
    ++counters_.stale_replies_dropped;
    MLOG(kDebug, "endpoint") << "dropping stale " << MessageTypeName(message.type) << " seq "
                             << message.sequence << " from " << src.ToString();
  }
  return false;
}

}  // namespace micropnp
