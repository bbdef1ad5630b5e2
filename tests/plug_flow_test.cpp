// Lossy-network plug-in flow: trickle re-advertisement, chunked
// selective-repeat driver transfer, CRC-resume, and the plug-flow edge cases
// (driver-request re-arm and exhaustion, per-type group membership, stream
// teardown, an unplug at any step of the flow).
//
// Everything here is deterministic: fixed deployment seeds, simulated time.
// The fake-manager tests bind a bare relay node to the manager anycast
// address so the test controls exactly which offer/chunk datagrams exist.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/crc.h"
#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"

namespace micropnp {
namespace {

DriverImage CompiledBundledDriver(DeviceTypeId device) {
  const BundledDriver* bundled = FindBundledDriver(device);
  EXPECT_NE(bundled, nullptr);
  Result<DriverImage> image = CompileDriver(bundled->source);
  EXPECT_TRUE(image.ok());
  return *image;
}

LinkModel LinkWithLoss(double loss_rate) {
  LinkModel link;
  link.loss_rate = loss_rate;
  return link;
}

DeploymentConfig SeededConfig(uint64_t seed) {
  DeploymentConfig config;
  config.seed = seed;
  return config;
}

// ------------------------------------------------ trickle re-advertisement ---

TEST(Readvertisement, ConvergesAfterTotalLossHeals) {
  DeploymentConfig config;
  config.seed = 71001;
  config.link = LinkWithLoss(1.0);  // nothing gets through initially
  Deployment deployment(config);
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  // The driver is preinstalled, so the plug flow needs no network round
  // trip; only the advertisement has to reach the client.
  ASSERT_TRUE(thing.PreinstallDriver(CompiledBundledDriver(kTmp36TypeId)).ok());
  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(2500);
  EXPECT_EQ(client.advertisements_seen(), 0u);  // (1) and early ticks lost

  deployment.fabric().set_link(LinkWithLoss(0.0));
  deployment.RunForMillis(10'000);  // next trickle tick lands
  EXPECT_GE(client.advertisements_seen(), 1u);
  EXPECT_GE(thing.readvertisements_sent(), 1u);
}

TEST(Readvertisement, TrickleLadderIsBoundedAndGoesDormant) {
  Deployment deployment(SeededConfig(71002));
  MicroPnpThing& thing = deployment.AddThing("thing");
  deployment.AddManager();

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  // Default schedule: +1s, +2s, +4s, ..., +64s after the peripheral change,
  // then dormant: 7 ticks total.
  deployment.RunForMillis(200'000);
  EXPECT_EQ(thing.readvertisements_sent(), 7u);

  const uint64_t after_ladder = thing.advertisements_sent();
  deployment.RunForMillis(200'000);
  EXPECT_EQ(thing.advertisements_sent(), after_ladder);  // dormant, no flood

  // Any peripheral change restarts the ladder from the minimum interval.
  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(200'000);
  EXPECT_EQ(thing.readvertisements_sent(), 14u);
}

TEST(Readvertisement, SolicitedAdvertisementSuppressesNextTick) {
  Deployment deployment(SeededConfig(71003));
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");
  deployment.AddManager();

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(1500);  // install + advertise, first tick pending

  // A discovery answered with (3) counts as a fresh advertisement, so the
  // next trickle tick is suppressed instead of re-flooding.
  bool discovered = false;
  client.Discover(kTmp36TypeId, 500,
                  [&](Result<std::vector<MicroPnpClient::DiscoveredThing>> things) {
                    discovered = things.ok() && !things->empty();
                  });
  deployment.RunForMillis(200'000);
  EXPECT_TRUE(discovered);
  EXPECT_GE(thing.readvertisements_suppressed(), 1u);
  EXPECT_LT(thing.readvertisements_sent(), 7u);
}

// --------------------------------------------- chunked transfer under loss ---

TEST(ChunkedTransfer, SurvivesLossyMultihopFabric) {
  // Seed chosen so this run both completes within the window and loses
  // chunks on the way — the selective-repeat path is actually exercised.
  DeploymentConfig config;
  config.seed = 11003;
  config.link = LinkWithLoss(0.2);
  Deployment deployment(config);
  MicroPnpManager& manager = deployment.AddManager();
  NetNode* relay1 = deployment.AddRelayNode("relay-1");
  NetNode* relay2 = deployment.AddRelayNode("relay-2", relay1);
  MicroPnpThing& thing = deployment.AddThing("thing", relay2);

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(16'000);

  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.transfers_completed(), 1u);
  // The repair was selective: lost chunks were NACKed and re-served
  // individually, never as a monolithic image re-send.
  EXPECT_GE(thing.chunk_nacks_sent(), 1u);
  EXPECT_GE(manager.chunk_retransmissions(), 1u);
  EXPECT_LT(manager.chunk_retransmissions(), manager.chunks_sent());
}

// A scripted manager: a bare node bound to the manager anycast address whose
// offer/chunk behaviour the test controls datagram by datagram.
class FakeManager {
 public:
  FakeManager(Deployment& deployment, DeviceTypeId device)
      : node_(deployment.AddRelayNode("fake-manager")), device_(device) {
    image_bytes_ = CompiledBundledDriver(device).Serialize();
    crc_ = Crc32(image_bytes_);
    for (size_t off = 0; off < image_bytes_.size(); off += kChunkBytes) {
      const size_t len = std::min(kChunkBytes, image_bytes_.size() - off);
      chunks_.push_back({image_bytes_.begin() + off, image_bytes_.begin() + off + len});
    }
    node_->BindAnycast(ManagerAnycastAddress());
    node_->BindUdp(kMicroPnpUdpPort,
                   [this](const Ip6Address& src, const Ip6Address&, uint16_t,
                          const std::vector<uint8_t>& payload) { OnDatagram(src, payload); });
  }

  uint16_t chunk_count() const { return static_cast<uint16_t>(chunks_.size()); }
  uint32_t crc() const { return crc_; }
  int requests_seen() const { return static_cast<int>(requests_.size()); }
  int nacks_seen() const { return nacks_seen_; }
  int chunks_sent() const { return chunks_sent_; }
  const std::vector<DriverRequestPayload>& requests() const { return requests_; }

  // Test hooks: which chunk indices the next request serves, whether NACKs
  // are honoured, and how many copies of each chunk go out (duplication).
  std::function<std::vector<uint16_t>(const DriverRequestPayload&)> serve_plan;
  bool honour_nacks = false;
  int copies_per_chunk = 1;
  bool reverse_order = false;
  // Answer every (4) with the whole image in one (5), as before chunking.
  bool monolithic_upload = false;

 private:
  static constexpr size_t kChunkBytes = 56;

  void OnDatagram(const Ip6Address& src, const std::vector<uint8_t>& payload) {
    Result<Message> m = Message::Parse(payload);
    if (!m.ok()) return;
    if (m->type == MessageType::kDriverInstallRequest) {
      const auto* req = m->payload_as<DriverRequestPayload>();
      if (req == nullptr || req->device_id != device_) return;
      requests_.push_back(*req);
      if (monolithic_upload) {
        node_->SendUdp(src, kMicroPnpUdpPort,
                       MakeMessage(MessageType::kDriverUpload, m->sequence,
                                   DriverUploadPayload{device_, image_bytes_})
                           .Serialize());
        return;
      }
      DriverOfferPayload offer{device_, crc_, static_cast<uint32_t>(image_bytes_.size()),
                               kChunkBytes, chunk_count(), 0};
      node_->SendUdp(src, kMicroPnpUdpPort,
                     MakeMessage(MessageType::kDriverUploadOffer, m->sequence, offer).Serialize());
      std::vector<uint16_t> plan;
      for (uint16_t i = 0; i < chunk_count(); ++i) plan.push_back(i);
      if (serve_plan) plan = serve_plan(*req);
      SendChunks(src, plan);
    } else if (m->type == MessageType::kDriverChunkRequest) {
      ++nacks_seen_;
      const auto* nack = m->payload_as<DriverChunkRequestPayload>();
      if (honour_nacks && nack != nullptr && nack->image_crc == crc_) {
        SendChunks(src, nack->chunk_indices);
      }
    }
  }

  void SendChunks(const Ip6Address& dst, std::vector<uint16_t> indices) {
    if (reverse_order) std::reverse(indices.begin(), indices.end());
    for (uint16_t index : indices) {
      if (index >= chunk_count()) continue;
      DriverChunkPayload chunk{device_, crc_, index, chunk_count(), chunks_[index]};
      const std::vector<uint8_t> wire =
          MakeMessage(MessageType::kDriverChunk, 0, chunk).Serialize();
      for (int copy = 0; copy < copies_per_chunk; ++copy) {
        node_->SendUdp(dst, kMicroPnpUdpPort, wire);
        ++chunks_sent_;
      }
    }
  }

  NetNode* node_;
  DeviceTypeId device_;
  std::vector<uint8_t> image_bytes_;
  uint32_t crc_ = 0;
  std::vector<std::vector<uint8_t>> chunks_;
  std::vector<DriverRequestPayload> requests_;
  int nacks_seen_ = 0;
  int chunks_sent_ = 0;
};

TEST(ChunkedTransfer, DuplicatedAndReorderedChunksAssembleOnce) {
  Deployment deployment(SeededConfig(71004));
  MicroPnpThing& thing = deployment.AddThing("thing");
  FakeManager fake(deployment, kTmp36TypeId);
  fake.copies_per_chunk = 2;  // every chunk delivered twice...
  fake.reverse_order = true;  // ...and the whole stream backwards

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(10'000);

  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.transfers_completed(), 1u);
  EXPECT_GE(thing.duplicate_chunks(), fake.chunk_count());
  EXPECT_EQ(thing.chunks_received(), static_cast<uint64_t>(fake.chunks_sent()));
}

TEST(ChunkedTransfer, ResumeBitmapRequestsOnlyTheGaps) {
  Deployment deployment(SeededConfig(71005));
  MicroPnpThing& thing = deployment.AddThing("thing");
  FakeManager fake(deployment, kBmp180TypeId);
  ASSERT_GE(fake.chunk_count(), 4) << "image too small to leave gaps";

  // The first request gets only the even chunks and every NACK is ignored:
  // the Thing's NACK budget runs dry and it falls back to a fresh (4)
  // carrying the resume bitmap, which is served honestly (gaps only).
  int resumed_round_chunks = -1;
  fake.serve_plan = [&](const DriverRequestPayload& req) {
    std::vector<uint16_t> indices;
    if (fake.requests_seen() == 1) {
      EXPECT_EQ(req.cached_crc, 0u);  // nothing held yet
      for (uint16_t i = 0; i < fake.chunk_count(); i += 2) indices.push_back(i);
      return indices;
    }
    EXPECT_EQ(req.cached_crc, fake.crc());
    EXPECT_EQ(req.cached_chunk_count, fake.chunk_count());
    for (uint16_t i = 0; i < fake.chunk_count(); ++i) {
      const bool held = (req.have_bitmap[i / 8] >> (i % 8)) & 1;
      EXPECT_EQ(held, i % 2 == 0) << "bitmap wrong for chunk " << i;
      if (!held) indices.push_back(i);
    }
    if (resumed_round_chunks < 0) resumed_round_chunks = static_cast<int>(indices.size());
    return indices;
  };
  // The BMP180 driver is the largest bundled image: plenty of chunks to
  // leave gaps in.
  Bmp180& sensor = deployment.MakeBmp180();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  // The NACK budget runs dry about 14 s after the offer, and the (4)-level
  // retry follows 2 s later.
  deployment.RunForMillis(30'000);

  ASSERT_GE(fake.requests_seen(), 2);
  EXPECT_GE(fake.nacks_seen(), 1);
  EXPECT_TRUE(thing.drivers().HasDriverFor(kBmp180TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.transfers_completed(), 1u);
  // The resumed round moved only the odd chunks, not the whole image.
  EXPECT_EQ(resumed_round_chunks, fake.chunk_count() / 2);
}

TEST(ChunkedTransfer, MonolithicUploadAnswerIsDroppedAsStale) {
  // No manager sends the legacy monolithic (5) any more, and the Thing no
  // longer accepts one: it does not complete the (4), installs nothing, and
  // is counted as a stale reply.  The observed window ends before the (4)'s
  // first retransmission, 400 ms after it was sent.
  Deployment deployment(SeededConfig(71011));
  MicroPnpThing& thing = deployment.AddThing("thing");
  FakeManager fake(deployment, kTmp36TypeId);
  fake.monolithic_upload = true;
  const uint64_t stale_before = thing.endpoint().counters().stale_replies_dropped;

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  while (fake.requests_seen() == 0 && deployment.NowMillis() < 5000.0) {
    deployment.RunForMillis(1);
  }
  ASSERT_EQ(fake.requests_seen(), 1);
  deployment.RunForMillis(300);

  EXPECT_EQ(fake.requests_seen(), 1);
  EXPECT_FALSE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_EQ(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.endpoint().counters().stale_replies_dropped, stale_before + 1);
}

TEST(ChunkedTransfer, ReplugOfCachedDriverTransfersZeroChunks) {
  Deployment deployment(SeededConfig(71006));
  MicroPnpManager& manager = deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);
  ASSERT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  const uint64_t chunks_after_install = manager.chunks_sent();

  // Remove the installed image but keep the transfer cache, then re-plug:
  // the (4) advertises a complete bitmap and the manager answers with an
  // up-to-date offer — zero chunks move.
  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(1000);
  ASSERT_TRUE(thing.drivers().RemoveImage(kTmp36TypeId).ok());
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);

  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(manager.chunks_sent(), chunks_after_install);
  EXPECT_EQ(manager.upload_short_circuits(), 1u);
}

// ------------------------------------------------------ plug-flow bugfixes ---

TEST(PlugFlowRecovery, DriverRequestRearmsAfterLinkHeals) {
  // Regression: a (4) that exhausted its deadline used to abandon the
  // channel forever.  Now it re-arms with capped backoff and completes once
  // the link heals.
  DeploymentConfig config;
  config.seed = 71007;
  config.link = LinkWithLoss(1.0);
  Deployment deployment(config);
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  // Past the (4)'s 15 s deadline and the 2 s retry that follows it.
  deployment.RunForMillis(20'000);
  EXPECT_GE(thing.driver_requests_failed(), 1u);
  EXPECT_FALSE(thing.drivers().HasDriverFor(kTmp36TypeId));

  deployment.fabric().set_link(LinkWithLoss(0.0));
  deployment.RunForMillis(10'000);
  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_GE(thing.driver_request_retries(), 1u);
}

TEST(PlugFlowRecovery, GroupMembershipSurvivesUnplugOfDuplicateType) {
  // Regression: unplugging one of two same-type peripherals used to leave
  // the shared multicast group, cutting off the remaining channel.
  Deployment deployment(SeededConfig(71008));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  Tmp36& first = deployment.MakeTmp36();
  Tmp36& second = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &first).ok());
  ASSERT_TRUE(thing.Plug(1, &second).ok());
  deployment.RunForMillis(5000);
  const Ip6Address group = PeripheralGroup(thing.node().prefix(), kTmp36TypeId);
  ASSERT_TRUE(thing.node().InGroup(group));

  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(1000);
  EXPECT_TRUE(thing.node().InGroup(group)) << "left group while channel 1 still serves the type";

  // The surviving channel still answers reads.
  std::optional<WireValue> value;
  client.Read(thing.node().address(), kTmp36TypeId,
              [&](Result<WireValue> result) {
                ASSERT_TRUE(result.ok()) << result.status().ToString();
                value = *result;
              });
  deployment.RunForMillis(1000);
  EXPECT_TRUE(value.has_value());

  // Unplugging the last one of the type finally leaves the group.
  ASSERT_TRUE(thing.Unplug(1).ok());
  deployment.RunForMillis(1000);
  EXPECT_FALSE(thing.node().InGroup(group));
}

TEST(PlugFlowRecovery, UnplugWhileStreamingClosesTheStream) {
  // Regression: unplug used to flip the stream off silently; clients kept a
  // dead subscription.  Now the Thing multicasts (15) on teardown.
  Deployment deployment(SeededConfig(71009));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);

  int values = 0;
  bool closed = false;
  client.StartStream(thing.node().address(), kTmp36TypeId, /*period_ms=*/500,
                     [&](const WireValue&) { ++values; }, [&] { closed = true; });
  deployment.RunForMillis(3000);
  ASSERT_GE(values, 2);
  ASSERT_FALSE(closed);

  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(2000);
  EXPECT_TRUE(closed) << "client never learned the stream died";
}

TEST(PlugFlowRecovery, UnplugWhileDriverTimerIsArmedIsClean) {
  // Regression: a fast BMP180 stream keeps the driver's timer.once armed
  // between conversion steps, so the unplug deactivated the driver with that
  // completion pending, and it later ran on the destroyed timer library.
  Deployment deployment(SeededConfig(71012));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  Bmp180& sensor = deployment.MakeBmp180();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);

  int values = 0;
  bool closed = false;
  client.StartStream(thing.node().address(), kBmp180TypeId, /*period_ms=*/3,
                     [&](const WireValue&) { ++values; }, [&] { closed = true; });
  deployment.RunForMillis(1000);
  ASSERT_GE(values, 2);

  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(2000);
  EXPECT_TRUE(closed);
}

TEST(PlugFlowRecovery, DuplicateStopStreamCompletesIdempotently) {
  // Regression: a StopStream for an already-closed stream used to go
  // unanswered, so the requester always ate the full deadline.
  Deployment deployment(SeededConfig(71010));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);

  client.StartStream(thing.node().address(), kTmp36TypeId, 500, [](const WireValue&) {});
  deployment.RunForMillis(2000);

  client.StopStream(thing.node().address(), kTmp36TypeId);
  deployment.RunForMillis(3000);
  client.StopStream(thing.node().address(), kTmp36TypeId);  // stream already gone
  deployment.RunForMillis(3000);

  // Both stops completed on a (15) answer, not by timing out.
  EXPECT_EQ(client.endpoint().counters().deadline_exceeded, 0u);
}

TEST(PlugFlowRecovery, UnplugAtAnyPointLeavesTheChannelClean) {
  // Regression: an unplug landing in the driver activation step (a 9 ms CPU
  // cost) used to leave the unplugged BMP180's driver host on the empty
  // channel, so the next peripheral there was advertised but never got its
  // own driver.  Now every plug-flow step of a channel dies with its
  // peripheral.  The first sweep unplugs at every point of an over-the-air
  // flow, the second at every point of a flow whose drivers are installed.
  const DriverImage bmp180_image = CompiledBundledDriver(kBmp180TypeId);
  const DriverImage tmp36_image = CompiledBundledDriver(kTmp36TypeId);
  ThingConfig thing_config;
  thing_config.readvertise_min_ms = 0.0;
  // Every run's Thing shares this decode cache, so each image is verified
  // once; with a cache per run the verifier, not the simulation, would
  // dominate the sweep's host time.
  DecodeCache decode_cache;
  auto unplug_then_replug = [&](bool over_the_air, int unplug_ms) {
    SCOPED_TRACE(std::string(over_the_air ? "over the air" : "cached") + ", unplugged at " +
                 std::to_string(unplug_ms) + " ms");
    Deployment deployment(SeededConfig(71100));
    if (over_the_air) {
      deployment.AddManager();
    }
    MicroPnpThing thing(deployment.scheduler(), deployment.AddRelayNode("thing"), 71100,
                        decode_cache, thing_config);
    if (!over_the_air) {
      ASSERT_TRUE(thing.PreinstallDriver(bmp180_image).ok());
      ASSERT_TRUE(thing.PreinstallDriver(tmp36_image).ok());
    }
    ASSERT_TRUE(thing.Plug(0, &deployment.MakeBmp180()).ok());
    deployment.RunForMillis(unplug_ms);
    ASSERT_TRUE(thing.Unplug(0).ok());
    deployment.RunForMillis(500);
    EXPECT_EQ(thing.drivers().HostForChannel(0), nullptr);
    EXPECT_EQ(thing.phase(0), ChannelPhase::kEmpty);
    EXPECT_FALSE(thing.node().InGroup(PeripheralGroup(thing.node().prefix(), kBmp180TypeId)));

    ASSERT_TRUE(thing.Plug(0, &deployment.MakeTmp36()).ok());
    deployment.RunForMillis(1000);
    EXPECT_EQ(thing.phase(0), ChannelPhase::kReady);
    const DriverHost* host = thing.drivers().HostForChannel(0);
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(host->device_id(), kTmp36TypeId);
  };
  for (int unplug_ms = 0; unplug_ms <= 800; unplug_ms += 2) {
    unplug_then_replug(/*over_the_air=*/true, unplug_ms);
  }
  for (int unplug_ms = 0; unplug_ms <= 300; unplug_ms += 2) {
    unplug_then_replug(/*over_the_air=*/false, unplug_ms);
  }
}

TEST(PlugFlowRecovery, ExhaustedDriverRetriesEndInFailedPhase) {
  // With no manager every (4) dies at its 15 s deadline.  The retries back
  // off to 30 s apart, and the budget of 100 is spent after about 4,800 s:
  // the channel stays identified, counted as failed, and an unplug still
  // empties it.
  Deployment deployment(SeededConfig(71101));
  MicroPnpThing& thing = deployment.AddThing("thing");
  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5'000'000);

  EXPECT_EQ(thing.phase(0), ChannelPhase::kFailed);
  EXPECT_EQ(thing.driver_request_retries(), 100u);
  EXPECT_EQ(thing.driver_requests_failed(), 101u);
  EXPECT_EQ(thing.drivers().HostForChannel(0), nullptr);

  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(1000);
  EXPECT_EQ(thing.phase(0), ChannelPhase::kEmpty);
}

// Plug/unplug/re-plug churn while several gateway clients keep closed read
// loops in flight: every read resolves exactly once (reply or deadline; a
// read racing an unplug may fail, but none may be lost), every pending
// table drains, and the fleet-wide decode cache verifies the one image once.
TEST(PlugFlowChurn, ReadsDuringPlugChurnDrainClean) {
  constexpr int kClients = 4;
  constexpr int kThings = 120;
  constexpr int kReadsPerClient = 40;
  constexpr int kWindow = 8;

  Deployment deployment(SeededConfig(20150931));
  (void)deployment.AddManager();
  struct ClientLoop {
    MicroPnpClient* client = nullptr;
    int issued = 0;
    int resolved = 0;
    int ok = 0;
    std::function<void()> issue_next;
  };
  std::vector<ClientLoop> loops(kClients);
  for (int i = 0; i < kClients; ++i) {
    loops[static_cast<size_t>(i)].client = &deployment.AddClient(
        "churn-client-" + std::to_string(i), nullptr, /*max_in_flight=*/kWindow + 8);
  }

  ThingConfig thing_config;
  thing_config.readvertise_min_ms = 0.0;
  const DriverImage image = CompiledBundledDriver(kTmp36TypeId);
  std::vector<MicroPnpThing*> things;
  std::vector<Tmp36*> sensors;
  for (int i = 0; i < kThings; ++i) {
    MicroPnpThing& thing =
        deployment.AddThing("churn-thing-" + std::to_string(i), nullptr, thing_config);
    ASSERT_TRUE(thing.PreinstallDriver(image).ok());
    sensors.push_back(&deployment.MakeTmp36());
    ASSERT_TRUE(thing.Plug(0, sensors.back()).ok());
    things.push_back(&thing);
  }
  deployment.RunForMillis(1000);

  // Every third Thing unplugs mid-run and re-plugs its sensor 900 ms later.
  Scheduler& scheduler = deployment.scheduler();
  for (int i = 0; i < kThings; i += 3) {
    MicroPnpThing* thing = things[static_cast<size_t>(i)];
    Tmp36* sensor = sensors[static_cast<size_t>(i)];
    const double unplug_at = 200.0 + static_cast<double>(i) * 7.0;
    scheduler.ScheduleAt(scheduler.now() + SimTime::FromMillis(unplug_at),
                         [thing] { (void)thing->Unplug(0); });
    scheduler.ScheduleAt(scheduler.now() + SimTime::FromMillis(unplug_at + 900.0),
                         [thing, sensor] { (void)thing->Plug(0, sensor); });
  }

  RequestOptions read_options;
  read_options.deadline_ms = 1500.0;
  read_options.max_retransmits = 2;
  read_options.initial_backoff_ms = 150.0;
  for (int i = 0; i < kClients; ++i) {
    ClientLoop& loop = loops[static_cast<size_t>(i)];
    loop.issue_next = [&loop, &things, i, read_options] {
      if (loop.issued >= kReadsPerClient) {
        return;
      }
      MicroPnpThing* thing =
          things[static_cast<size_t>(i + loop.issued * kClients) % things.size()];
      ++loop.issued;
      loop.client->Read(
          thing->node().address(), kTmp36TypeId,
          [&loop](Result<WireValue> value) {
            ++loop.resolved;
            loop.ok += value.ok() ? 1 : 0;
            loop.issue_next();
          },
          read_options);
    };
    for (int k = 0; k < kWindow; ++k) {
      loop.issue_next();
    }
  }
  // Run through the last re-plug and its advertisement burst.
  deployment.RunForMillis(5000.0);

  int total_ok = 0;
  for (const ClientLoop& loop : loops) {
    EXPECT_EQ(loop.resolved, kReadsPerClient);
    EXPECT_EQ(loop.client->endpoint().in_flight(), 0u);
    total_ok += loop.ok;
  }
  EXPECT_GT(total_ok, 0);
  for (MicroPnpThing* thing : things) {
    EXPECT_NE(thing->drivers().HostForChannel(0), nullptr) << thing->node().name();
  }
  // One unique image: verified once, every other install a hit.
  EXPECT_EQ(deployment.decode_cache().misses(), 1u);
  EXPECT_GT(deployment.decode_cache().hits(), 0u);
}

}  // namespace
}  // namespace micropnp
