// ProtoEndpoint: the typed request/response core of the interaction
// protocol.  Covers the transaction lifecycle (exactly-once completion,
// deadlines, cancellation, retransmit-with-backoff), discovery gathers as
// ordinary transactions, the (peer, sequence) matching rules (stale,
// duplicate and wrapped-sequence replies, and the in-flight cap that keeps
// every slot's sequence matchable), the regression tests for the seed's
// pending-table leaks (manager driver operations, client stream requests),
// and wire robustness: truncated and garbage datagrams must parse-fail
// cleanly and never crash or corrupt endpoint state.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <set>

#include "src/common/rng.h"
#include "src/core/deployment.h"
#include "src/proto/endpoint.h"
#include "tests/message_corpus.h"

namespace micropnp {
namespace {

// --------------------------------------------------------------- harness ----
// Two bare fabric nodes with a ProtoEndpoint on the requester and a
// scriptable responder, for precise control over replies.

class EndpointHarness : public ::testing::Test {
 protected:
  static constexpr size_t kCapacity = 4;

  EndpointHarness() {
    requester_node_ = deployment_.AddRelayNode("requester");
    responder_node_ = deployment_.AddRelayNode("responder");
    endpoint_ = std::make_unique<ProtoEndpoint>(deployment_.scheduler(), requester_node_,
                                                nullptr, kCapacity);
    responder_node_->BindUdp(
        kMicroPnpUdpPort, [this](const Ip6Address& src, const Ip6Address&, uint16_t,
                                 const std::vector<uint8_t>& payload) {
          Result<Message> m = Message::Parse(ByteSpan(payload.data(), payload.size()));
          if (!m.ok()) {
            return;
          }
          requests_seen_.push_back(*m);
          if (responder_) {
            responder_(src, *m);
          }
        });
  }

  // Sends a read request; the returned flag counts handler invocations.
  ProtoEndpoint::RequestId SendRead(std::shared_ptr<int> fires,
                                    std::shared_ptr<Status> last_status,
                                    const RequestOptions& options = RequestOptions{}) {
    return endpoint_->SendRequest(
        responder_node_->address(), MessageType::kRead, DeviceTargetPayload{kTmp36TypeId},
        {MessageType::kData},
        [fires, last_status](Result<Message> reply) {
          ++*fires;
          *last_status = reply.status();
        },
        options);
  }

  // A well-formed (11) data reply with the given sequence.
  std::vector<uint8_t> DataReply(SequenceNumber seq) {
    WireValue v;
    v.scalar = 215;
    return MakeMessage(MessageType::kData, seq, ValuePayload{kTmp36TypeId, v}).Serialize();
  }

  // A (3) solicited advertisement answering the discovery with sequence `seq`.
  std::vector<uint8_t> AdvertisementReply(SequenceNumber seq) {
    return MakeMessage(MessageType::kSolicitedAdvertisement, seq, AdvertisementPayload{})
        .Serialize();
  }

  // Multicasts a discovery (2) to the TMP36 group, which the responder joins,
  // gathering (3)s for `window_ms`.  `fires` counts handler invocations;
  // `replies` receives the collection or `status` the error.
  ProtoEndpoint::RequestId SendDiscoveryGather(
      double window_ms, std::shared_ptr<int> fires, std::shared_ptr<Status> status,
      std::shared_ptr<ProtoEndpoint::GatherReplies> replies) {
    const Ip6Address group = PeripheralGroup(requester_node_->prefix(), kTmp36TypeId);
    responder_node_->JoinGroup(group);
    return endpoint_->SendGather(
        group, MessageType::kPeripheralDiscovery, PeripheralDiscoveryPayload{},
        {MessageType::kSolicitedAdvertisement}, window_ms,
        [fires, status, replies](Result<ProtoEndpoint::GatherReplies> result) {
          ++*fires;
          *status = result.status();
          if (result.ok()) {
            *replies = std::move(*result);
          }
        });
  }

  Deployment deployment_;
  NetNode* requester_node_ = nullptr;
  NetNode* responder_node_ = nullptr;
  std::unique_ptr<ProtoEndpoint> endpoint_;
  std::vector<Message> requests_seen_;
  std::function<void(const Ip6Address&, const Message&)> responder_;
};

TEST_F(EndpointHarness, CompletesExactlyOnceWithReply) {
  responder_ = [this](const Ip6Address& src, const Message& m) {
    responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(m.sequence));
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  SendRead(fires, status);
  deployment_.RunForMillis(3000);
  EXPECT_EQ(*fires, 1);
  EXPECT_TRUE(status->ok());
  EXPECT_EQ(endpoint_->in_flight(), 0u);
  EXPECT_EQ(endpoint_->counters().completed_ok, 1u);
}

TEST_F(EndpointHarness, DuplicateReplyDroppedAsStale) {
  responder_ = [this](const Ip6Address& src, const Message& m) {
    responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(m.sequence));
    responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(m.sequence));
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  SendRead(fires, status);
  deployment_.RunForMillis(3000);
  EXPECT_EQ(*fires, 1);
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 1u);
}

TEST_F(EndpointHarness, DeadlineExceededFiresOnceAndClearsEntry) {
  // Responder stays silent.
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  RequestOptions options;
  options.deadline_ms = 400.0;
  SendRead(fires, status, options);
  EXPECT_EQ(endpoint_->in_flight(), 1u);
  deployment_.RunForMillis(2000);
  EXPECT_EQ(*fires, 1);
  EXPECT_EQ(status->code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(endpoint_->in_flight(), 0u);
  EXPECT_EQ(endpoint_->counters().deadline_exceeded, 1u);
}

TEST_F(EndpointHarness, LateReplyAfterDeadlineIsStale) {
  responder_ = [this](const Ip6Address& src, const Message& m) {
    // Answer far past the requester's deadline.
    deployment_.scheduler().ScheduleAfter(SimTime::FromMillis(1500), [this, src, seq = m.sequence] {
      responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(seq));
    });
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  RequestOptions options;
  options.deadline_ms = 300.0;
  SendRead(fires, status, options);
  deployment_.RunForMillis(4000);
  EXPECT_EQ(*fires, 1);
  EXPECT_EQ(status->code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 1u);
}

TEST_F(EndpointHarness, WrongReplyTypeDoesNotComplete) {
  responder_ = [this](const Ip6Address& src, const Message& m) {
    // A write-ack cannot complete a read, even with a matching sequence.
    responder_node_->SendUdp(
        src, kMicroPnpUdpPort,
        MakeMessage(MessageType::kWriteAck, m.sequence, StatusAckPayload{kTmp36TypeId, 0})
            .Serialize());
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  RequestOptions options;
  options.deadline_ms = 500.0;
  SendRead(fires, status, options);
  deployment_.RunForMillis(2000);
  EXPECT_EQ(*fires, 1);
  EXPECT_EQ(status->code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 1u);
}

TEST_F(EndpointHarness, AcceptPredicateRejectsWithoutConsumingTransaction) {
  // First reply carries the right type and sequence but the wrong device;
  // the predicate must drop it (stale) and leave the transaction pending
  // for the correct reply.
  responder_ = [this](const Ip6Address& src, const Message& m) {
    WireValue v;
    v.scalar = 1;
    responder_node_->SendUdp(
        src, kMicroPnpUdpPort,
        MakeMessage(MessageType::kData, m.sequence, ValuePayload{kBmp180TypeId, v}).Serialize());
    deployment_.scheduler().ScheduleAfter(SimTime::FromMillis(200), [this, src, seq = m.sequence] {
      responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(seq));
    });
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  RequestOptions options;
  options.accept = [](const Message& reply) {
    const auto* data = reply.payload_as<ValuePayload>();
    return data != nullptr && data->device_id == kTmp36TypeId;
  };
  SendRead(fires, status, options);
  deployment_.RunForMillis(3000);
  EXPECT_EQ(*fires, 1);
  EXPECT_TRUE(status->ok()) << status->ToString();
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 1u);
}

TEST_F(EndpointHarness, RetransmitsWithBackoffUntilAnswered) {
  // Responder ignores the first two copies of the request.
  responder_ = [this](const Ip6Address& src, const Message& m) {
    if (requests_seen_.size() < 3) {
      return;
    }
    responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(m.sequence));
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  RequestOptions options;
  options.deadline_ms = 5000.0;
  options.max_retransmits = 4;
  options.initial_backoff_ms = 100.0;
  SendRead(fires, status, options);
  deployment_.RunForMillis(6000);
  EXPECT_EQ(*fires, 1);
  EXPECT_TRUE(status->ok()) << status->ToString();
  // Initial send + 2 ignored retransmits before the answered third copy.
  EXPECT_GE(endpoint_->counters().retransmits, 2u);
  // All copies carried the same sequence (one transaction on the wire).
  ASSERT_GE(requests_seen_.size(), 3u);
  EXPECT_EQ(requests_seen_[0].sequence, requests_seen_[1].sequence);
  EXPECT_EQ(requests_seen_[0].sequence, requests_seen_[2].sequence);
}

TEST_F(EndpointHarness, CancellationCompletesWithCancelled) {
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  ProtoEndpoint::RequestId id = SendRead(fires, status);
  deployment_.RunForMillis(10);
  ASSERT_TRUE(endpoint_->Cancel(id));
  EXPECT_EQ(*fires, 1);
  EXPECT_EQ(status->code(), StatusCode::kCancelled);
  EXPECT_EQ(endpoint_->in_flight(), 0u);
  // Cancelling again is a no-op.
  EXPECT_FALSE(endpoint_->Cancel(id));
  deployment_.RunForMillis(5000);
  EXPECT_EQ(*fires, 1);  // the dead transaction's deadline never fires
}

TEST_F(EndpointHarness, CapacityBoundRejectsExcessRequests) {
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  for (size_t i = 0; i < kCapacity; ++i) {
    SendRead(fires, status);
  }
  EXPECT_EQ(endpoint_->in_flight(), kCapacity);
  auto rejected_status = std::make_shared<Status>();
  auto rejected_fires = std::make_shared<int>(0);
  EXPECT_EQ(SendRead(rejected_fires, rejected_status), ProtoEndpoint::kInvalidRequest);
  EXPECT_EQ(*rejected_fires, 1);  // fails fast, same turn
  EXPECT_EQ(rejected_status->code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(endpoint_->counters().rejected_capacity, 1u);
  // The table never exceeds its bound and drains at the deadline.
  deployment_.RunForMillis(5000);
  EXPECT_EQ(endpoint_->in_flight(), 0u);
  EXPECT_EQ(*fires, static_cast<int>(kCapacity));
}

TEST_F(EndpointHarness, CycledSlotNeverAliasesPendingTransactions) {
  // A sequence is its slot plus the slot's generation: the harness's 4-slot
  // table uses 2 slot bits, so one slot carries 2^14 sequences.  Three silent
  // transactions hold slots 0-2 while slot 3 carries more answered
  // transactions than that, wrapping its sequence.
  auto pending_fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  RequestOptions silent;
  silent.deadline_ms = 1e9;
  for (int i = 0; i < 3; ++i) {
    SendRead(pending_fires, status, silent);
  }
  deployment_.RunForMillis(200);
  ASSERT_EQ(requests_seen_.size(), 3u);
  const std::set<SequenceNumber> pending{requests_seen_[0].sequence, requests_seen_[1].sequence,
                                         requests_seen_[2].sequence};
  ASSERT_EQ(pending.size(), 3u);
  // One-way sends draw from a wrapping counter that skips pending sequences.
  for (int i = 0; i < 8; ++i) {
    const SequenceNumber seq = endpoint_->SendOneWay(
        responder_node_->address(), MessageType::kRead, DeviceTargetPayload{kTmp36TypeId});
    EXPECT_EQ(pending.count(seq), 0u) << "one-way sequence " << seq << " aliases a pending one";
  }
  deployment_.RunForMillis(200);

  // Each answered read starts the next one from its handler.
  constexpr int kCycles = 20000;
  responder_ = [this](const Ip6Address& src, const Message& m) {
    responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(m.sequence));
  };
  std::vector<SequenceNumber> cycled;
  std::function<void()> send_next = [&] {
    endpoint_->SendRequest(responder_node_->address(), MessageType::kRead,
                           DeviceTargetPayload{kTmp36TypeId}, {MessageType::kData},
                           [&](Result<Message> reply) {
                             ASSERT_TRUE(reply.ok()) << reply.status().ToString();
                             cycled.push_back(reply->sequence);
                             if (cycled.size() < static_cast<size_t>(kCycles)) {
                               send_next();
                             }
                           });
  };
  send_next();
  deployment_.RunForMillis(kCycles * 200.0);  // a round trip takes ~80 ms
  ASSERT_EQ(cycled.size(), static_cast<size_t>(kCycles));
  EXPECT_EQ(std::set<SequenceNumber>(cycled.begin(), cycled.end()).size(), size_t{1} << 14);
  for (SequenceNumber seq : cycled) {
    ASSERT_EQ(pending.count(seq), 0u) << "cycled sequence " << seq << " aliases a pending one";
  }
  EXPECT_EQ(*pending_fires, 0);
  EXPECT_EQ(endpoint_->in_flight(), 3u);
  EXPECT_EQ(endpoint_->counters().completed_ok, static_cast<uint64_t>(kCycles));
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 0u);

  // With a silent transaction back on slot 3, a reply carrying the slot's
  // previous sequence is stale, and so is one for a sequence never handed out.
  responder_ = nullptr;
  SendRead(pending_fires, status, silent);
  deployment_.RunForMillis(200);
  ASSERT_NE(requests_seen_.back().sequence, cycled.back());
  responder_node_->SendUdp(requester_node_->address(), kMicroPnpUdpPort,
                           DataReply(cycled.back()));
  deployment_.RunForMillis(200);
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 1u);
  responder_node_->SendUdp(requester_node_->address(), kMicroPnpUdpPort, DataReply(777));
  deployment_.RunForMillis(200);
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 2u);
  // A pending sequence from a node other than the transaction's peer is
  // stale as well.
  NetNode* bystander = deployment_.AddRelayNode("bystander");
  bystander->SendUdp(requester_node_->address(), kMicroPnpUdpPort, DataReply(*pending.begin()));
  deployment_.RunForMillis(200);
  EXPECT_EQ(endpoint_->counters().stale_replies_dropped, 3u);
  EXPECT_EQ(*pending_fires, 0);
  EXPECT_EQ(endpoint_->in_flight(), 4u);
}

TEST(EndpointCapacity, MaxInFlightIsCappedAtTwoToTheFifteen) {
  // A larger bound would give slots whose sequence has no room for a
  // generation bit, or for the slot index itself.
  Deployment deployment;
  NetNode* requester = deployment.AddRelayNode("requester");
  NetNode* silent = deployment.AddRelayNode("silent");
  ProtoEndpoint endpoint(deployment.scheduler(), requester, nullptr, /*max_in_flight=*/100000);
  constexpr int kCap = 32768;
  int fires = 0;
  auto send = [&](ProtoEndpoint::ResponseHandler handler) {
    return endpoint.SendRequest(silent->address(), MessageType::kRead,
                                DeviceTargetPayload{kTmp36TypeId}, {MessageType::kData},
                                std::move(handler));
  };
  for (int i = 0; i < kCap; ++i) {
    ASSERT_NE(send([&fires](Result<Message>) { ++fires; }), ProtoEndpoint::kInvalidRequest)
        << "request " << i;
  }
  EXPECT_EQ(endpoint.in_flight(), static_cast<size_t>(kCap));
  std::optional<Status> rejected;
  EXPECT_EQ(send([&rejected](Result<Message> reply) { rejected = reply.status(); }),
            ProtoEndpoint::kInvalidRequest);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(endpoint.counters().rejected_capacity, 1u);
  EXPECT_EQ(fires, 0);
}

// --------------------------------------------------------------- gathers ----

TEST_F(EndpointHarness, GatherCollectsAcceptedRepliesInsideWindowAndCompletesOnce) {
  // Two accepted (3)s inside the 500 ms window, a wrong-type reply with the
  // gather's sequence, and a (3) long after the window closed.
  responder_ = [this](const Ip6Address& src, const Message& m) {
    const SequenceNumber seq = m.sequence;
    responder_node_->SendUdp(src, kMicroPnpUdpPort, AdvertisementReply(seq));
    responder_node_->SendUdp(src, kMicroPnpUdpPort, DataReply(seq));
    deployment_.scheduler().ScheduleAfter(SimTime::FromMillis(200), [this, src, seq] {
      responder_node_->SendUdp(src, kMicroPnpUdpPort, AdvertisementReply(seq));
    });
    deployment_.scheduler().ScheduleAfter(SimTime::FromMillis(1500), [this, src, seq] {
      responder_node_->SendUdp(src, kMicroPnpUdpPort, AdvertisementReply(seq));
    });
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  auto replies = std::make_shared<ProtoEndpoint::GatherReplies>();
  SendDiscoveryGather(500.0, fires, status, replies);
  EXPECT_EQ(endpoint_->in_flight(), 1u);
  deployment_.RunForMillis(3000);

  EXPECT_EQ(*fires, 1);
  EXPECT_TRUE(status->ok()) << status->ToString();
  ASSERT_EQ(replies->size(), 2u);
  for (const auto& [src, reply] : *replies) {
    EXPECT_EQ(src, responder_node_->address());
    EXPECT_EQ(reply.type, MessageType::kSolicitedAdvertisement);
  }
  EXPECT_EQ(endpoint_->in_flight(), 0u);
  const EndpointCounters& c = endpoint_->counters();
  EXPECT_EQ(c.requests_started, 1u);
  EXPECT_EQ(c.completed_ok, 1u);
  EXPECT_EQ(c.deadline_exceeded, 0u);
  EXPECT_EQ(c.replies_matched, 2u);
  EXPECT_EQ(c.stale_replies_dropped, 2u);  // the wrong type and the late (3)
}

TEST_F(EndpointHarness, GatherCountsAgainstCapacityAndCancelsExactlyOnce) {
  // Silent responder: every transaction stays pending.
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  auto replies = std::make_shared<ProtoEndpoint::GatherReplies>();
  const ProtoEndpoint::RequestId gather = SendDiscoveryGather(1000.0, fires, status, replies);
  ASSERT_NE(gather, ProtoEndpoint::kInvalidRequest);
  auto read_fires = std::make_shared<int>(0);
  auto read_status = std::make_shared<Status>();
  for (size_t i = 1; i < kCapacity; ++i) {
    SendRead(read_fires, read_status);
  }
  EXPECT_EQ(endpoint_->in_flight(), kCapacity);

  // The table is full: a second gather fails fast, in the same turn.
  auto rejected_fires = std::make_shared<int>(0);
  auto rejected_status = std::make_shared<Status>();
  EXPECT_EQ(SendDiscoveryGather(1000.0, rejected_fires, rejected_status, replies),
            ProtoEndpoint::kInvalidRequest);
  EXPECT_EQ(*rejected_fires, 1);
  EXPECT_EQ(rejected_status->code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(endpoint_->counters().rejected_capacity, 1u);

  deployment_.RunForMillis(10);
  ASSERT_TRUE(endpoint_->Cancel(gather));
  EXPECT_EQ(*fires, 1);
  EXPECT_EQ(status->code(), StatusCode::kCancelled);
  EXPECT_EQ(endpoint_->counters().cancelled, 1u);
  EXPECT_EQ(endpoint_->in_flight(), kCapacity - 1);
  EXPECT_FALSE(endpoint_->Cancel(gather));

  deployment_.RunForMillis(5000);  // past the window and every read deadline
  EXPECT_EQ(*fires, 1);            // the cancelled gather's window never fires
  EXPECT_EQ(endpoint_->counters().completed_ok, 0u);
  EXPECT_EQ(endpoint_->in_flight(), 0u);
}

TEST_F(EndpointHarness, DestroyingEndpointDropsPendingGatherSilently) {
  responder_ = [this](const Ip6Address& src, const Message& m) {
    responder_node_->SendUdp(src, kMicroPnpUdpPort, AdvertisementReply(m.sequence));
  };
  auto fires = std::make_shared<int>(0);
  auto status = std::make_shared<Status>();
  auto replies = std::make_shared<ProtoEndpoint::GatherReplies>();
  SendDiscoveryGather(1000.0, fires, status, replies);
  deployment_.RunForMillis(500);  // the (3) is collected; the window is open
  ASSERT_EQ(endpoint_->counters().replies_matched, 1u);
  endpoint_.reset();
  deployment_.RunForMillis(3000);
  EXPECT_EQ(*fires, 0);
}

// The endpoint owns port 6030, so its destructor unbinds it: a datagram
// arriving afterwards reaches the node but no handler (under ASan, a handler
// left bound to the destroyed endpoint fails here).
TEST_F(EndpointHarness, DestroyingEndpointUnbindsPort) {
  endpoint_.reset();
  const uint64_t received = requester_node_->datagrams_received();
  responder_node_->SendUdp(requester_node_->address(), kMicroPnpUdpPort, DataReply(1));
  deployment_.RunForMillis(500);
  EXPECT_EQ(requester_node_->datagrams_received(), received + 1);
}

// ------------------------------------------------- lossy-fabric end to end ----

// The acceptance scenario: a burst of reads over a lossy fabric.  Every
// operation completes exactly once — reply or deadline — and no pending
// entry survives past its deadline.
TEST(EndpointLossy, EveryOperationCompletesExactlyOnce) {
  DeploymentConfig config;
  config.seed = 20150405;
  Deployment deployment(config);
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");
  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(2000);
  ASSERT_NE(thing.drivers().HostForChannel(0), nullptr);

  // Turn the links lossy for the read burst.
  LinkModel lossy = config.link;
  lossy.loss_rate = 0.25;
  deployment.fabric().set_link(lossy);

  constexpr int kReads = 20;
  std::array<int, kReads> fires{};
  RequestOptions options;
  options.deadline_ms = 1500.0;
  options.max_retransmits = 3;
  options.initial_backoff_ms = 150.0;
  for (int i = 0; i < kReads; ++i) {
    client.Read(thing.node().address(), kTmp36TypeId,
                [&fires, i](Result<WireValue>) { ++fires[i]; }, options);
    deployment.RunForMillis(40);
  }
  deployment.RunForMillis(5000);  // far past every deadline

  for (int i = 0; i < kReads; ++i) {
    EXPECT_EQ(fires[i], 1) << "read " << i;
  }
  EXPECT_EQ(client.endpoint().in_flight(), 0u);
  const EndpointCounters& counters = client.endpoint().counters();
  EXPECT_EQ(counters.completed_ok + counters.deadline_exceeded, kReads);
  EXPECT_GT(counters.retransmits, 0u);
}

// ------------------------------------------ pending-table leak regressions ----

// Seed bug: DiscoverDrivers/RemoveDriver toward an unreachable Thing left a
// pending-table entry (and a never-invoked callback) forever.
TEST(ManagerTimeouts, DiscoverAndRemoveCompleteWhenThingUnreachable) {
  Deployment deployment;
  MicroPnpManager& manager = deployment.AddManager();
  const Ip6Address unplugged = *Ip6Address::Parse("2001:db8::dead");

  RequestOptions options;
  options.deadline_ms = 500.0;
  std::optional<Status> discover_status;
  manager.DiscoverDrivers(
      unplugged,
      [&](Result<std::vector<DeviceTypeId>> ids) { discover_status = ids.status(); }, options);
  std::optional<Status> removal_status;
  manager.RemoveDriver(unplugged, kTmp36TypeId,
                       [&](Status status) { removal_status = status; }, options);
  EXPECT_EQ(manager.endpoint().in_flight(), 2u);
  deployment.RunForMillis(2000);

  ASSERT_TRUE(discover_status.has_value());
  EXPECT_EQ(discover_status->code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(removal_status.has_value());
  EXPECT_EQ(removal_status->code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(manager.endpoint().in_flight(), 0u);
}

// Seed bug: a StartStream whose (13) never arrives left a stream_requests_
// entry forever and on_closed never fired.
TEST(ClientStreamExpiry, UnansweredStartStreamExpiresAndCloses) {
  Deployment deployment;
  MicroPnpClient& client = deployment.AddClient("client");
  const Ip6Address unplugged = *Ip6Address::Parse("2001:db8::dead");

  RequestOptions options;
  options.deadline_ms = 400.0;
  int values = 0;
  int closed = 0;
  client.StartStream(
      unplugged, kHih4030TypeId, 1000, [&](const WireValue&) { ++values; }, [&] { ++closed; },
      options);
  EXPECT_EQ(client.endpoint().in_flight(), 1u);
  deployment.RunForMillis(2000);

  EXPECT_EQ(closed, 1);
  EXPECT_EQ(values, 0);
  EXPECT_EQ(client.endpoint().in_flight(), 0u);
}

// A StopStream whose (15) is lost still tears the subscription down at the
// deadline: no leaked group membership, on_closed fires exactly once.
TEST(ClientStreamExpiry, StopStreamUnderTotalLossStillClosesLocally) {
  DeploymentConfig config;
  Deployment deployment(config);
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");
  Hih4030& sensor = deployment.MakeHih4030();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(2000);

  int closed = 0;
  client.StartStream(thing.node().address(), kHih4030TypeId, 500, [](const WireValue&) {},
                     [&] { ++closed; });
  deployment.RunForMillis(1500);
  const Ip6Address group = StreamGroup(thing.node().address(), kHih4030TypeId);
  ASSERT_TRUE(client.node().InGroup(group));

  // Black out the network, then stop the stream: the (12) and any (15) are
  // all lost, but the local subscription must still close at the deadline.
  LinkModel blackout = config.link;
  blackout.loss_rate = 1.0;
  deployment.fabric().set_link(blackout);
  RequestOptions options;
  options.deadline_ms = 400.0;
  client.StopStream(thing.node().address(), kHih4030TypeId, options);
  deployment.RunForMillis(2000);

  EXPECT_EQ(closed, 1);
  EXPECT_FALSE(client.node().InGroup(group));
  EXPECT_EQ(client.endpoint().in_flight(), 0u);
}

// A StartStream rejected for capacity never went on the wire, so it must
// NOT send the best-effort shutdown that would tear down a healthy stream
// other subscribers may be using.
TEST(ClientStreamExpiry, CapacityRejectedStartStreamLeavesActiveStreamAlone) {
  Deployment deployment;
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  // Capacity 1: one pending transaction saturates the client's endpoint.
  MicroPnpClient& client = deployment.AddClient("client", nullptr, /*max_in_flight=*/1);
  Hih4030& sensor = deployment.MakeHih4030();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(2000);

  int values = 0;
  client.StartStream(thing.node().address(), kHih4030TypeId, 500,
                     [&](const WireValue&) { ++values; });
  deployment.RunForMillis(2000);
  ASSERT_GT(values, 0);

  // Saturate the table, then ask for the same stream again: rejected for
  // capacity, on_closed fires for the *new* request only.
  const Ip6Address unreachable = *Ip6Address::Parse("2001:db8::dead");
  RequestOptions slow;
  slow.deadline_ms = 60'000.0;
  client.Read(unreachable, kTmp36TypeId, [](Result<WireValue>) {}, slow);
  int rejected_closed = 0;
  client.StartStream(thing.node().address(), kHih4030TypeId, 250, [](const WireValue&) {},
                     [&] { ++rejected_closed; });
  EXPECT_EQ(rejected_closed, 1);

  // The established stream keeps flowing: no shutdown was sent.
  const int before = values;
  deployment.RunForMillis(3000);
  EXPECT_GT(values, before);
}

// A retransmitted (4) with the same (thing, sequence) is re-served its (18)
// offer from the manager's cache: the Thing recovers a lost offer, uploads()
// still counts distinct transactions, and the chunk stream is not replayed —
// the selective-repeat NACK path owns gap recovery.
TEST(ManagerDedup, DuplicateInstallRequestsReServeWithoutRecount) {
  Deployment deployment;
  MicroPnpManager& manager = deployment.AddManager();
  NetNode* thing_node = deployment.AddRelayNode("fake-thing");
  std::vector<Message> offers_received;
  size_t chunks_received = 0;
  thing_node->BindUdp(kMicroPnpUdpPort,
                      [&](const Ip6Address&, const Ip6Address&, uint16_t,
                          const std::vector<uint8_t>& payload) {
                        Result<Message> m = Message::Parse(ByteSpan(payload.data(), payload.size()));
                        if (!m.ok()) {
                          return;
                        }
                        if (m->type == MessageType::kDriverUploadOffer) {
                          offers_received.push_back(*m);
                        } else if (m->type == MessageType::kDriverChunk) {
                          ++chunks_received;
                        }
                      });

  const Message request = MakeMessage(MessageType::kDriverInstallRequest, 42,
                                      DriverRequestPayload{kTmp36TypeId, 0, 0, {}});
  thing_node->SendUdp(ManagerAnycastAddress(), kMicroPnpUdpPort, request.Serialize());
  deployment.RunForMillis(500);
  const size_t chunks_after_first = chunks_received;
  thing_node->SendUdp(ManagerAnycastAddress(), kMicroPnpUdpPort, request.Serialize());
  deployment.RunForMillis(500);

  ASSERT_EQ(offers_received.size(), 2u);  // both copies answered (recovery)
  EXPECT_EQ(offers_received[0], offers_received[1]);
  const auto* offer = offers_received[0].payload_as<DriverOfferPayload>();
  ASSERT_NE(offer, nullptr);
  EXPECT_EQ(offer->device_id, kTmp36TypeId);
  EXPECT_GT(offer->chunk_count, 1u);  // the image really is split
  EXPECT_EQ(chunks_after_first, offer->chunk_count);  // full stream once...
  EXPECT_EQ(chunks_received, chunks_after_first);     // ...not replayed
  EXPECT_EQ(manager.uploads(), 1u);  // but only one distinct transaction
  EXPECT_EQ(manager.upload_retransmissions(), 1u);
}

// --------------------------------------------------------- wire robustness ----

// Every strict prefix of every valid message must fail to parse: the wire
// format has no optional trailing fields, so truncation is always corrupt.
TEST(WireRobustness, TruncatedDatagramsAlwaysParseFail) {
  for (const Message& m : RepresentativeMessages()) {
    const std::vector<uint8_t> wire = m.Serialize();
    for (size_t len = 0; len < wire.size(); ++len) {
      Result<Message> parsed = Message::Parse(ByteSpan(wire.data(), len));
      EXPECT_FALSE(parsed.ok()) << MessageTypeName(m.type) << " truncated to " << len << "/"
                                << wire.size() << " bytes";
    }
  }
}

TEST(WireRobustness, TrailingBytesAreRejected) {
  for (const Message& m : RepresentativeMessages()) {
    std::vector<uint8_t> wire = m.Serialize();
    wire.push_back(0x00);
    EXPECT_FALSE(Message::Parse(ByteSpan(wire.data(), wire.size())).ok())
        << MessageTypeName(m.type);
  }
}

// Deterministic garbage sweep: random bytes (with a valid type byte forced
// half the time, to get past the header check) must never crash.  Run under
// the ASan+UBSan CI job, this is the memory-safety net for Parse.
TEST(WireRobustness, GarbageDatagramsNeverCrash) {
  Rng rng(0xf00dface);
  for (int i = 0; i < 5000; ++i) {
    const size_t len = rng.UniformInt(0, 96);
    std::vector<uint8_t> bytes(len);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextU32() & 0xff);
    }
    if (!bytes.empty() && rng.Bernoulli(0.5)) {
      bytes[0] = static_cast<uint8_t>(rng.UniformInt(1, kMessageTypeMax));
    }
    (void)Message::Parse(ByteSpan(bytes.data(), bytes.size()));  // must not crash
  }
}

// Garbage and truncated datagrams delivered to live nodes on port 6030 are
// dropped without mutating endpoint state, and the system keeps serving.
TEST(WireRobustness, LiveNodesSurviveGarbageOnPort6030) {
  Deployment deployment;
  MicroPnpManager& manager = deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");
  NetNode* attacker = deployment.AddRelayNode("attacker");
  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(1500);
  ASSERT_NE(thing.drivers().HostForChannel(0), nullptr);

  const EndpointCounters thing_before = thing.endpoint().counters();
  const EndpointCounters client_before = client.endpoint().counters();
  const EndpointCounters manager_before = manager.endpoint().counters();
  const uint64_t uploads_before = manager.uploads();
  const uint64_t manager_rx_before = manager.node().datagrams_received();

  // The Thing, the client, and the manager at its unicast and its anycast
  // address.
  const std::array<Ip6Address, 4> targets = {thing.node().address(), client.node().address(),
                                             manager.node().address(), ManagerAnycastAddress()};
  Rng rng(0xbadbeef);
  for (int i = 0; i < 200; ++i) {
    const size_t len = rng.UniformInt(0, 48);
    std::vector<uint8_t> bytes(len);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextU32() & 0xff);
    }
    attacker->SendUdp(targets[static_cast<size_t>(i) % targets.size()], kMicroPnpUdpPort, bytes);
  }
  // Truncated copies of every valid message, too.
  for (const Message& m : RepresentativeMessages()) {
    std::vector<uint8_t> wire = m.Serialize();
    wire.resize(wire.size() / 2);
    for (const Ip6Address& target : targets) {
      attacker->SendUdp(target, kMicroPnpUdpPort, wire);
    }
  }
  deployment.RunForMillis(2000);

  // Malformed datagrams are dropped at the parse: counters unchanged.
  EXPECT_EQ(thing.endpoint().counters().stale_replies_dropped,
            thing_before.stale_replies_dropped);
  EXPECT_EQ(thing.endpoint().in_flight(), 0u);
  EXPECT_EQ(client.endpoint().counters().requests_started, client_before.requests_started);
  EXPECT_EQ(client.endpoint().in_flight(), 0u);
  EXPECT_EQ(manager.endpoint().counters().stale_replies_dropped,
            manager_before.stale_replies_dropped);
  EXPECT_EQ(manager.endpoint().in_flight(), 0u);
  EXPECT_EQ(manager.uploads(), uploads_before);
  EXPECT_GE(manager.node().datagrams_received() - manager_rx_before, 100u);  // both addresses

  // And the system still works.
  std::optional<Status> outcome;
  client.Read(thing.node().address(), kTmp36TypeId,
              [&](Result<WireValue> value) { outcome = value.status(); });
  deployment.RunForMillis(500);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok()) << outcome->ToString();
}

// ------------------------------------------------------- fleet-scale soak ----

// 10k concurrent requests across 1k peers over a lossy fabric, with
// randomized responder behaviour (reply, stay silent, duplicate the reply,
// delay past the deadline) plus client-side cancellations racing completions.
// Every request resolves exactly once, the accounting balances
// (completed + deadline_exceeded + cancelled == issued), and the pending
// table — sized for the burst, high-water mark 10k — drains back to zero.
TEST(EndpointSoak, TenThousandConcurrentRequestsAcrossThousandPeers) {
  constexpr int kPeers = 1000;
  constexpr int kRequests = 10000;

  DeploymentConfig config;
  config.seed = 20150607;
  Deployment deployment(config);
  Scheduler& scheduler = deployment.scheduler();
  Rng rng(config.seed);

  NetNode* requester = deployment.AddRelayNode("requester");
  ProtoEndpoint endpoint(scheduler, requester, nullptr, /*max_in_flight=*/16384);

  // Peers with scripted behaviour drawn per incoming request.
  std::vector<NetNode*> peers;
  peers.reserve(kPeers);
  for (int i = 0; i < kPeers; ++i) {
    NetNode* peer = deployment.AddRelayNode("peer-" + std::to_string(i));
    peer->BindUdp(kMicroPnpUdpPort,
                  [&, peer](const Ip6Address& src, const Ip6Address&, uint16_t,
                            const std::vector<uint8_t>& payload) {
                    Result<Message> m = Message::Parse(ByteSpan(payload.data(), payload.size()));
                    if (!m.ok()) {
                      return;
                    }
                    const double roll = rng.NextDouble();
                    if (roll < 0.10) {
                      return;  // silent: the requester's deadline resolves it
                    }
                    const int copies = roll < 0.25 ? 2 : 1;  // duplicates
                    // Delays up to 2.5 s straddle the 1.5 s deadline, so some
                    // replies arrive stale on purpose.
                    const double delay_ms = rng.Uniform(1.0, 2500.0);
                    const SequenceNumber seq = m->sequence;
                    scheduler.ScheduleAfter(SimTime::FromMillis(delay_ms), [&, peer, src, seq,
                                                                            copies] {
                      WireValue v;
                      v.scalar = 215;
                      const std::vector<uint8_t> reply =
                          MakeMessage(MessageType::kData, seq, ValuePayload{kTmp36TypeId, v})
                              .Serialize();
                      for (int c = 0; c < copies; ++c) {
                        peer->SendUdp(src, kMicroPnpUdpPort, reply);
                      }
                    });
                  });
    peers.push_back(peer);
  }

  LinkModel lossy = config.link;
  lossy.loss_rate = 0.05;
  deployment.fabric().set_link(lossy);

  RequestOptions options;
  options.deadline_ms = 1500.0;
  options.max_retransmits = 2;
  options.initial_backoff_ms = 300.0;

  int handler_fires = 0;
  std::vector<ProtoEndpoint::RequestId> ids;
  ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ProtoEndpoint::RequestId id = endpoint.SendRequest(
        peers[static_cast<size_t>(i) % kPeers]->address(), MessageType::kRead,
        DeviceTargetPayload{kTmp36TypeId}, {MessageType::kData},
        [&handler_fires](Result<Message>) { ++handler_fires; }, options);
    ASSERT_NE(id, ProtoEndpoint::kInvalidRequest) << "request " << i;
    ids.push_back(id);
  }
  ASSERT_EQ(endpoint.in_flight(), static_cast<size_t>(kRequests));
  EXPECT_EQ(endpoint.counters().peak_in_flight, static_cast<uint64_t>(kRequests));

  // Cancel ~5% at random times while completions race in.
  for (const ProtoEndpoint::RequestId id : ids) {
    if (rng.Bernoulli(0.05)) {
      scheduler.ScheduleAfter(SimTime::FromMillis(rng.Uniform(0.0, 1200.0)),
                              [&endpoint, id] { (void)endpoint.Cancel(id); });
    }
  }

  deployment.RunForMillis(10000);  // far past every deadline and stale reply

  EXPECT_EQ(endpoint.in_flight(), 0u) << "pending table did not drain";
  EXPECT_EQ(handler_fires, kRequests);
  const EndpointCounters& c = endpoint.counters();
  EXPECT_EQ(c.requests_started, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(c.completed_ok + c.deadline_exceeded + c.cancelled,
            static_cast<uint64_t>(kRequests));
  EXPECT_EQ(c.rejected_capacity, 0u);
  // The randomized mix must actually exercise each outcome.
  EXPECT_GT(c.completed_ok, 0u);
  EXPECT_GT(c.deadline_exceeded, 0u);
  EXPECT_GT(c.cancelled, 0u);
  EXPECT_GT(c.retransmits, 0u);
  EXPECT_GT(c.stale_replies_dropped, 0u);

  // The endpoint is still fully serviceable after the storm.
  int after_fires = 0;
  (void)endpoint.SendRequest(peers[0]->address(), MessageType::kRead,
                             DeviceTargetPayload{kTmp36TypeId}, {MessageType::kData},
                             [&after_fires](Result<Message>) { ++after_fires; }, options);
  deployment.RunForMillis(5000);
  EXPECT_EQ(after_fires, 1);
  EXPECT_EQ(endpoint.in_flight(), 0u);
}

}  // namespace
}  // namespace micropnp
