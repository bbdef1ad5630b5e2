// ProtoEndpoint: the shared request/response core of the μPnP interaction
// protocol (Section 5.2), and the only code that puts μPnP on the wire.
//
// Every μPnP message is a UDP datagram on port 6030 whose 16-bit sequence
// number pairs a request with its reply.  The endpoint owns that port in
// both directions: it binds the node's port 6030, parses every datagram
// (dropping malformed ones), offers it to the pending transactions and hands
// the rest to its owner (Thing, Client or Manager); and every message the
// owner sends goes out through it.  Every remote operation completes exactly
// once with a Result, built on:
//
//  * sequences that name their slot: a transaction's sequence is its slot
//    in the bounded pending table plus that slot's generation, so no two
//    pending transactions share one and a reply finds its transaction with
//    one array index;
//  * exact matching: a reply completes a transaction only if its sequence,
//    source (skipped for any-source transactions), type and `accept` check
//    all match, so stale replies — late, duplicated, or answering a slot's
//    previous transaction — can never complete the wrong request;
//  * a deadline per request (completion with kDeadlineExceeded);
//  * bounded retransmit-with-backoff over the lossy fabric (the paper's
//    Section 9 "unreliable network environments" future work);
//  * cancellation (completion with kCancelled), and
//  * counters for every drop/timeout/retransmit decision.
//
// Multicast fan-out requests (peripheral discovery's collect-replies-for-a-
// window pattern) are ordinary transactions in the same table: any source,
// no retransmits, the window as their deadline (see SendGather).

#ifndef SRC_PROTO_ENDPOINT_H_
#define SRC_PROTO_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/proto/messages.h"

namespace micropnp {

// Per-request deadline and retransmission policy.
struct RequestOptions {
  // Absolute budget for the whole transaction, retransmissions included.
  double deadline_ms = 2000.0;
  // Extra sends beyond the initial one (0 = never retransmit).
  int max_retransmits = 0;
  // Delay before the first retransmission; doubles each time (capped by the
  // deadline, which always wins).
  double initial_backoff_ms = 250.0;
  double backoff_multiplier = 2.0;
  // Accept the reply from any source address.  Required for requests sent
  // to an anycast or multicast destination, where the replier's unicast
  // address differs from the destination the request was sent to.
  bool match_any_source = false;
  // Optional payload-level acceptance check, evaluated after source /
  // sequence / type matching.  A reply it rejects does NOT complete the
  // transaction (it is dropped as stale and retransmits continue) — use it
  // when type + sequence alone cannot prove the reply answers this request,
  // e.g. multicast (15)s or anycast uploads carrying a device id.
  std::function<bool(const Message&)> accept;

  // Defaults with only the deadline overridden — the common caller shape
  // ("this operation, with this timeout"), shared by every MicroPnpClient
  // convenience overload.
  static RequestOptions WithDeadline(double deadline_ms) {
    RequestOptions options;
    options.deadline_ms = deadline_ms;
    return options;
  }
};

// Monotonic counters of every transaction outcome and drop decision.
struct EndpointCounters {
  uint64_t requests_started = 0;
  uint64_t completed_ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t retransmits = 0;
  uint64_t rejected_capacity = 0;      // pending table full
  uint64_t stale_replies_dropped = 0;  // no pending transaction matched
  uint64_t replies_matched = 0;
  uint64_t peak_in_flight = 0;         // high-water mark of the pending table
};

class ProtoEndpoint {
 public:
  using RequestId = uint64_t;
  inline static constexpr RequestId kInvalidRequest = 0;

  // Exactly-once completion: a reply message, or kDeadlineExceeded /
  // kCancelled / kResourceExhausted.
  using ResponseHandler = std::function<void(Result<Message>)>;
  // Gather completion: every (source, reply) observed within the window
  // (possibly none), or kCancelled / kResourceExhausted.
  using GatherReplies = std::vector<std::pair<Ip6Address, Message>>;
  using GatherHandler = std::function<void(Result<GatherReplies>)>;
  // The owner's intake: every well-formed message no pending transaction
  // consumed (requests, notifications, and replies nothing awaits).
  using MessageHandler =
      std::function<void(const Ip6Address& src, const Ip6Address& dst, const Message& message)>;

  // Binds `node`'s μPnP port for `handler`; the destructor unbinds it, so
  // `node` must outlive the endpoint.  At most `max_in_flight` transactions
  // are pending at once; values above 32,768 are capped (see endpoint.cpp).
  ProtoEndpoint(Scheduler& scheduler, NetNode* node, MessageHandler handler,
                size_t max_in_flight = 64);
  ~ProtoEndpoint();

  ProtoEndpoint(const ProtoEndpoint&) = delete;
  ProtoEndpoint& operator=(const ProtoEndpoint&) = delete;

  // Claims a slot (and with it a sequence), sends `type`+`payload` to
  // `peer`, and arms the deadline/retransmit machinery.  `handler` is
  // invoked exactly once: with the first reply of `reply_type` whose
  // (source, sequence) matches, or with an error Status.  When the pending
  // table is full the handler fires immediately (same turn) with
  // kResourceExhausted and kInvalidRequest is returned.
  RequestId SendRequest(const Ip6Address& peer, MessageType type, MessagePayload payload,
                        MessageType reply_type, ResponseHandler handler,
                        const RequestOptions& options = RequestOptions{});

  // Sends a message with a fresh sequence, one no pending transaction holds,
  // and no transaction state: fire-and-forget notifications
  // (advertisements, stream data) and requests whose effect is observed
  // out-of-band (stream shutdown).  Returns the sequence used.
  SequenceNumber SendOneWay(const Ip6Address& peer, MessageType type, MessagePayload payload);

  // Sends a message under a sequence the caller chose, with no transaction
  // state: replies echo their request's sequence.
  void Send(const Ip6Address& peer, MessageType type, SequenceNumber sequence,
            MessagePayload payload);

  // Multicast request collecting every matching reply for `window_ms`, then
  // completing once, OK, with the collection (possibly empty).  Replies
  // match on sequence + `reply_type` from any source.  A gather holds a
  // pending-table slot like any request: kResourceExhausted when the table
  // is full, kCancelled through Cancel.
  RequestId SendGather(const Ip6Address& group, MessageType type, MessagePayload payload,
                       MessageType reply_type, double window_ms, GatherHandler handler);

  // Completes a pending transaction with kCancelled.  Returns false if it
  // already completed.  Destruction, by contrast, drops pending
  // transactions without invoking their handlers, since the state they
  // capture may already be torn down.
  bool Cancel(RequestId id);

  size_t in_flight() const { return active_requests_; }
  const EndpointCounters& counters() const { return counters_; }

 private:
  // Transactions live in a slot arena: a slot is reused (freelist) once its
  // transaction completes, its wire buffer keeping its capacity, so a steady
  // stream of requests recycles storage instead of allocating.  A RequestId
  // encodes (generation << 32) | (slot + 1); the generation is bumped on
  // release so a stale id can never resolve to a recycled slot.  The
  // transaction's sequence is (generation << slot_bits_) | slot, truncated
  // to 16 bits: a slot repeats a sequence only after 2^(16 - slot_bits_)
  // uses, each begun after the previous one completed.

  // A gather's handler and the replies it has collected.  Gathers are rare
  // (discovery windows), so this lives out of line to keep the slot small.
  struct Gather {
    GatherHandler handler;
    GatherReplies replies;
  };
  struct PendingRequest {
    bool active = false;
    uint32_t generation = 0;
    Ip6Address peer;
    SequenceNumber sequence = 0;
    // These two fill the padding after `sequence`.
    MessageType reply_type = MessageType::kData;
    int retransmits_left = 0;
    ResponseHandler handler;         // null for a gather
    std::unique_ptr<Gather> gather;  // set only for a gather
    std::vector<uint8_t> wire;  // serialized request, for retransmission
    RequestOptions options;
    SimTime deadline;
    double next_backoff_ms = 0.0;
    Scheduler::EventId timer = 0;  // the armed retransmit-or-deadline event
  };

  void OnDatagram(const Ip6Address& src, const Ip6Address& dst,
                  const std::vector<uint8_t>& payload);
  // Offers a parsed message to the pending transactions.  Returns true if
  // one consumed it.  Unmatched messages of pure reply types are counted as
  // stale; requests and notifications are not.
  bool HandleReply(const Ip6Address& src, const Message& message);
  // The slot a sequence names: its low slot_bits_ bits.
  size_t SlotOf(SequenceNumber sequence) const {
    return sequence & ((size_t{1} << slot_bits_) - 1);
  }
  // The pending transaction holding `sequence`, or nullptr.
  PendingRequest* Holder(SequenceNumber sequence);
  // Claims a slot and sends the transaction's first copy; the common body of
  // SendRequest and SendGather (`gather` is null for a request).
  RequestId Start(const Ip6Address& peer, MessageType type, MessagePayload payload,
                  MessageType reply_type, ResponseHandler handler,
                  std::unique_ptr<Gather> gather, const RequestOptions& options);
  // Resolves an id to its live arena entry; nullptr when the transaction
  // already completed (stale id, or generation mismatch on a reused slot).
  PendingRequest* Resolve(RequestId id);
  RequestId IdOf(size_t slot) const {
    return (uint64_t{slots_[slot].generation} << 32) | (slot + 1);
  }
  // Claims a free slot (growing the arena only when all slots are busy),
  // stamps its sequence, and returns its id.
  RequestId ClaimSlot();
  // Returns the slot behind `id` to the freelist, dropping per-transaction
  // state but keeping buffer capacity for the next occupant.
  void ReleaseSlot(RequestId id, PendingRequest& entry);
  void ArmTimer(RequestId id);
  void OnTimer(RequestId id);
  // Removes the entry and Finishes it.
  void Complete(RequestId id, const Status& status, const Message* reply = nullptr);
  // Invokes a transaction's handler: a request's with `reply` (when `status`
  // is OK) or `status`, a gather's with its replies (when `status` is OK) or
  // `status`.
  static void Finish(const ResponseHandler& handler, Gather* gather, const Status& status,
                     const Message* reply);
  void NoteInFlight();

  Scheduler& scheduler_;
  NetNode* node_;
  MessageHandler handler_;
  size_t max_in_flight_;
  // Bit width of max_in_flight_ - 1: the low bits of a sequence that name
  // its slot.
  int slot_bits_;
  // One-way sends' wrapping counter, shared by all peers.
  SequenceNumber next_sequence_ = 1;
  std::vector<PendingRequest> slots_;
  std::vector<uint32_t> free_slots_;
  size_t active_requests_ = 0;
  EndpointCounters counters_;
};

}  // namespace micropnp

#endif  // SRC_PROTO_ENDPOINT_H_
