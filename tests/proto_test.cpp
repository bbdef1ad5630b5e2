// Protocol-level tests: message codecs (1)..(17) and full-network
// integration of Thing / Client / Manager over the simulated fabric — the
// complete Figures 10 and 11 flows, plus the core facade (Deployment,
// AddressSpace).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/address_space.h"
#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "tests/message_corpus.h"

namespace micropnp {
namespace {

// ------------------------------------------------------------- messages ----

TEST(Messages, AdvertisementRoundTrip) {
  AdvertisedPeripheral p;
  p.type = kTmp36TypeId;
  p.info.AddString(TlvType::kFriendlyName, "TMP36");
  p.info.AddU8(TlvType::kChannel, 1);
  Message m = MakeMessage(MessageType::kUnsolicitedAdvertisement, 7, AdvertisementPayload{{p}});

  std::vector<uint8_t> wire = m.Serialize();
  Result<Message> parsed = Message::Parse(ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, m);
}

TEST(Messages, AllTwentyTypesRoundTrip) {
  std::vector<Message> corpus = RepresentativeMessages();
  ASSERT_EQ(corpus.size(), 20u);
  for (const Message& m : corpus) {
    std::vector<uint8_t> wire = m.Serialize();
    Result<Message> parsed = Message::Parse(ByteSpan(wire.data(), wire.size()));
    ASSERT_TRUE(parsed.ok()) << MessageTypeName(m.type) << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, m) << MessageTypeName(m.type);
  }
}

TEST(Messages, ArrayValueRoundTrip) {
  WireValue value;
  value.is_array = true;
  value.bytes = {'4', 'A', '0', '0', 'D', '2', '3', 'F', '8', '1', '2', '6'};
  Message m = MakeMessage(MessageType::kData, 9, ValuePayload{kId20LaTypeId, value});
  std::vector<uint8_t> wire = m.Serialize();
  Result<Message> parsed = Message::Parse(ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->payload_as<ValuePayload>(), nullptr);
  EXPECT_EQ(parsed->payload_as<ValuePayload>()->value, value);
}

TEST(Messages, ParseRejectsGarbage) {
  std::vector<uint8_t> junk = {0x63, 0x00};
  EXPECT_FALSE(Message::Parse(ByteSpan(junk.data(), junk.size())).ok());
  std::vector<uint8_t> truncated = {static_cast<uint8_t>(MessageType::kRead), 0x00};
  EXPECT_FALSE(Message::Parse(ByteSpan(truncated.data(), truncated.size())).ok());
}

TEST(Messages, PayloadTypeConsistency) {
  EXPECT_TRUE(PayloadMatchesType(MessageType::kRead, DeviceTargetPayload{}));
  EXPECT_FALSE(PayloadMatchesType(MessageType::kRead, WritePayload{}));
  EXPECT_TRUE(PayloadMatchesType(MessageType::kWriteAck, StatusAckPayload{}));
  EXPECT_FALSE(PayloadMatchesType(MessageType::kData, StatusAckPayload{}));
}

// ------------------------------------------------- deployment integration ---

class NetworkedSystem : public ::testing::Test {
 protected:
  NetworkedSystem()
      : manager_(deployment_.AddManager()),
        thing_(deployment_.AddThing("thing-1")),
        client_(deployment_.AddClient("client-1")) {}

  // Plugs and runs until the advertisement lands.
  void PlugAndSettle(ChannelId ch, Peripheral& p) {
    ASSERT_TRUE(thing_.Plug(ch, &p).ok());
    deployment_.RunForMillis(1500);
  }

  Deployment deployment_;
  MicroPnpManager& manager_;
  MicroPnpThing& thing_;
  MicroPnpClient& client_;
};

TEST_F(NetworkedSystem, PlugInFlowInstallsDriverOverTheAir) {
  // The Thing starts with an empty driver store; the driver must arrive from
  // the Manager via messages (4) and (5).
  Tmp36& sensor = deployment_.MakeTmp36();
  EXPECT_FALSE(thing_.drivers().HasDriverFor(kTmp36TypeId));
  PlugAndSettle(0, sensor);

  EXPECT_TRUE(thing_.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing_.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(manager_.uploads(), 1u);
  EXPECT_GE(thing_.advertisements_sent(), 1u);
  // The Thing joined the peripheral's multicast group.
  EXPECT_TRUE(thing_.node().InGroup(
      PeripheralGroup(thing_.node().prefix(), kTmp36TypeId)));
}

TEST_F(NetworkedSystem, UnsolicitedAdvertisementReachesClients) {
  std::vector<AdvertisedPeripheral> seen;
  client_.set_advertisement_listener(
      [&](const Ip6Address&, const std::vector<AdvertisedPeripheral>& ps) { seen = ps; });
  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, kTmp36TypeId);
  const Tlv* name = seen[0].info.Find(TlvType::kFriendlyName);
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->AsString(), "TMP36");
}

TEST_F(NetworkedSystem, DiscoveryFindsMatchingThings) {
  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);

  std::vector<MicroPnpClient::DiscoveredThing> found;
  client_.Discover(kTmp36TypeId, /*window_ms=*/500,
                   [&](Result<std::vector<MicroPnpClient::DiscoveredThing>> results) {
                     ASSERT_TRUE(results.ok());
                     found = std::move(*results);
                   });
  deployment_.RunForMillis(800);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].address, thing_.node().address());
  ASSERT_EQ(found[0].peripherals.size(), 1u);
  EXPECT_EQ(found[0].peripherals[0].type, kTmp36TypeId);
}

TEST_F(NetworkedSystem, DiscoveryForAbsentPeripheralFindsNothing) {
  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);
  std::vector<MicroPnpClient::DiscoveredThing> found;
  bool fired = false;
  client_.Discover(kBmp180TypeId, 500,
                   [&](Result<std::vector<MicroPnpClient::DiscoveredThing>> results) {
                     fired = true;
                     ASSERT_TRUE(results.ok());
                     found = std::move(*results);
                   });
  deployment_.RunForMillis(800);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(found.empty());
}

TEST_F(NetworkedSystem, DiscoveryDeduplicatesRepeatedSolicitedReplies) {
  // A fake Thing that answers every (2) twice with the same (3) — what a
  // real Thing produces when a retransmitted discovery elicits a duplicate
  // reply.  The client must surface the Thing once, not once per datagram.
  NetNode* fake = deployment_.AddRelayNode("duplicator");
  fake->JoinGroup(PeripheralGroup(fake->prefix(), kTmp36TypeId));
  fake->BindUdp(kMicroPnpUdpPort, [fake](const Ip6Address& src, const Ip6Address&, uint16_t,
                                         const std::vector<uint8_t>& payload) {
    Result<Message> m = Message::Parse(ByteSpan(payload.data(), payload.size()));
    if (!m.ok() || m->type != MessageType::kPeripheralDiscovery) {
      return;
    }
    AdvertisedPeripheral p;
    p.type = kTmp36TypeId;
    const std::vector<uint8_t> wire =
        MakeMessage(MessageType::kSolicitedAdvertisement, m->sequence, AdvertisementPayload{{p}})
            .Serialize();
    fake->SendUdp(src, kMicroPnpUdpPort, wire);
    fake->SendUdp(src, kMicroPnpUdpPort, wire);
  });

  std::vector<MicroPnpClient::DiscoveredThing> found;
  client_.Discover(kTmp36TypeId, 500,
                   [&](Result<std::vector<MicroPnpClient::DiscoveredThing>> results) {
                     ASSERT_TRUE(results.ok());
                     found = std::move(*results);
                   });
  deployment_.RunForMillis(800);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].address, fake->address());
}

TEST_F(NetworkedSystem, RemoteReadReturnsEnvironmentTemperature) {
  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);

  std::optional<WireValue> value;
  client_.Read(thing_.node().address(), kTmp36TypeId, [&](Result<WireValue> result) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    value = *result;
  });
  deployment_.RunForMillis(500);
  ASSERT_TRUE(value.has_value());
  const double celsius = value->scalar / 10.0;
  EXPECT_NEAR(celsius, deployment_.environment().TemperatureC(deployment_.scheduler().now()), 0.6);
}

TEST_F(NetworkedSystem, RemoteReadOfRfidCardPayload) {
  Id20La& reader = deployment_.MakeId20La();
  PlugAndSettle(0, reader);

  std::optional<WireValue> value;
  client_.Read(thing_.node().address(), kId20LaTypeId,
               [&](Result<WireValue> result) {
                 if (result.ok()) {
                   value = *result;
                 }
               },
               /*timeout_ms=*/5000);
  deployment_.RunForMillis(200);  // read armed, no card yet
  RfidCard card = {0xde, 0xad, 0xbe, 0xef, 0x01};
  ASSERT_TRUE(reader.PresentCard(card));
  deployment_.RunForMillis(500);

  ASSERT_TRUE(value.has_value());
  ASSERT_TRUE(value->is_array);
  EXPECT_EQ(std::string(value->bytes.begin(), value->bytes.end()), Id20LaPayload(card));
}

TEST_F(NetworkedSystem, ReadTimesOutWhenPeripheralMissing) {
  std::optional<Status> outcome;
  client_.Read(thing_.node().address(), kBmp180TypeId,
               [&](Result<WireValue> result) { outcome = result.status(); },
               /*timeout_ms=*/300);
  deployment_.RunForMillis(600);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->code(), StatusCode::kDeadlineExceeded);
  // The transaction is gone: no pending entry survives its deadline.
  EXPECT_EQ(client_.endpoint().in_flight(), 0u);
}

TEST_F(NetworkedSystem, RemoteWriteActuatesRelay) {
  Relay& relay = deployment_.MakeRelay();
  PlugAndSettle(0, relay);

  std::optional<Status> ack;
  client_.Write(thing_.node().address(), kRelayTypeId, 1,
                [&](Status status) { ack = status; });
  deployment_.RunForMillis(500);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->ok());
  EXPECT_TRUE(relay.closed());

  client_.Write(thing_.node().address(), kRelayTypeId, 0, [](Status) {});
  deployment_.RunForMillis(500);
  EXPECT_FALSE(relay.closed());
}

TEST_F(NetworkedSystem, WriteToAbsentPeripheralReportsNotFound) {
  std::optional<Status> ack;
  client_.Write(thing_.node().address(), kRelayTypeId, 1, [&](Status status) { ack = status; });
  deployment_.RunForMillis(500);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->code(), StatusCode::kNotFound);
}

TEST_F(NetworkedSystem, StreamDeliversPeriodicValues) {
  Hih4030& sensor = deployment_.MakeHih4030();
  PlugAndSettle(0, sensor);

  std::vector<int32_t> values;
  bool closed = false;
  client_.StartStream(thing_.node().address(), kHih4030TypeId, /*period_ms=*/1000,
                      [&](const WireValue& v) { values.push_back(v.scalar); },
                      [&] { closed = true; });
  deployment_.RunForMillis(5600);
  EXPECT_GE(values.size(), 4u);
  EXPECT_LE(values.size(), 6u);
  for (int32_t v : values) {
    EXPECT_GT(v, 0);
    EXPECT_LT(v, 1000);  // 0.1 %RH units
  }

  client_.StopStream(thing_.node().address(), kHih4030TypeId);
  deployment_.RunForMillis(500);
  EXPECT_TRUE(closed);
  const size_t at_stop = values.size();
  deployment_.RunForMillis(3000);
  EXPECT_EQ(values.size(), at_stop);  // no data after (15) closed
}

TEST_F(NetworkedSystem, ManagerRemoteDriverManagement) {
  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);

  // (6)/(7) driver discovery.
  std::vector<DeviceTypeId> drivers;
  manager_.DiscoverDrivers(thing_.node().address(), [&](Result<std::vector<DeviceTypeId>> ids) {
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    drivers = std::move(*ids);
  });
  deployment_.RunForMillis(500);
  ASSERT_EQ(drivers.size(), 1u);
  EXPECT_EQ(drivers[0], kTmp36TypeId);

  // (8)/(9) removal is refused while the driver is active.
  std::optional<Status> removal;
  manager_.RemoveDriver(thing_.node().address(), kTmp36TypeId,
                        [&](Status status) { removal = status; });
  deployment_.RunForMillis(500);
  ASSERT_TRUE(removal.has_value());
  EXPECT_FALSE(removal->ok());

  // After unplugging, removal succeeds.
  ASSERT_TRUE(thing_.Unplug(0).ok());
  deployment_.RunForMillis(1000);
  removal.reset();
  manager_.RemoveDriver(thing_.node().address(), kTmp36TypeId,
                        [&](Status status) { removal = status; });
  deployment_.RunForMillis(500);
  ASSERT_TRUE(removal.has_value());
  EXPECT_TRUE(removal->ok());
}

TEST_F(NetworkedSystem, UnplugAdvertisesEmptyPeripheralSet) {
  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);
  std::optional<std::vector<AdvertisedPeripheral>> last;
  client_.set_advertisement_listener(
      [&](const Ip6Address&, const std::vector<AdvertisedPeripheral>& ps) { last = ps; });
  ASSERT_TRUE(thing_.Unplug(0).ok());
  deployment_.RunForMillis(1000);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->empty());
}

TEST_F(NetworkedSystem, CachedDriverSkipsManagerRoundTrip) {
  Result<DriverImage> image = CompileDriver(FindBundledDriver(kTmp36TypeId)->source);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(thing_.PreinstallDriver(*image).ok());

  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);
  EXPECT_EQ(manager_.uploads(), 0u);
  EXPECT_NE(thing_.drivers().HostForChannel(0), nullptr);
  ASSERT_TRUE(thing_.last_plug_flow().has_value());
  EXPECT_TRUE(thing_.last_plug_flow()->driver_was_cached);
}

TEST_F(NetworkedSystem, PlugFlowMarksAreOrdered) {
  Tmp36& sensor = deployment_.MakeTmp36();
  PlugAndSettle(0, sensor);
  const PlugFlowMarks& marks = *thing_.last_plug_flow();
  EXPECT_LT(marks.plugged, marks.identified);
  EXPECT_LT(marks.identified, marks.address_generated);
  EXPECT_LT(marks.address_generated, marks.group_joined);
  EXPECT_LE(marks.group_joined, marks.driver_requested);
  EXPECT_LT(marks.driver_requested, marks.driver_received);
  EXPECT_LT(marks.driver_received, marks.driver_installed);
  EXPECT_LT(marks.driver_installed, marks.advertised);
  // Section 6.1 identification window.
  const double ident_ms = (marks.identified - marks.plugged).millis();
  EXPECT_GE(ident_ms, 220.0);
  EXPECT_LE(ident_ms, 300.0);
}

TEST_F(NetworkedSystem, TwoThingsServeTwoClients) {
  MicroPnpThing& thing2 = deployment_.AddThing("thing-2");
  MicroPnpClient& client2 = deployment_.AddClient("client-2");
  Tmp36& t1 = deployment_.MakeTmp36();
  Bmp180& p2 = deployment_.MakeBmp180();
  ASSERT_TRUE(thing_.Plug(0, &t1).ok());
  ASSERT_TRUE(thing2.Plug(0, &p2).ok());
  deployment_.RunForMillis(2000);

  std::optional<WireValue> temperature, pressure;
  client_.Read(thing_.node().address(), kTmp36TypeId, [&](Result<WireValue> r) {
    if (r.ok()) temperature = *r;
  });
  client2.Read(thing2.node().address(), kBmp180TypeId, [&](Result<WireValue> r) {
    if (r.ok()) pressure = *r;
  });
  deployment_.RunForMillis(1000);
  ASSERT_TRUE(temperature.has_value());
  ASSERT_TRUE(pressure.has_value());
  EXPECT_GT(pressure->scalar, 95000);
  EXPECT_LT(pressure->scalar, 107000);
}

// -------------------------------------------------- router backpressure ----

// A request whose router event is dropped (the Thing's bounded queue is
// full) is neither queued nor acknowledged: the Thing stays silent.
class RouterBackpressure : public NetworkedSystem {
 protected:
  // Detaches the router's wake-up pump and fills its queue with events for
  // the empty channel 1, so the next Post is dropped.
  void FillRouterQueue() {
    EventRouter& router = thing_.drivers().router();
    router.set_on_post(nullptr);
    for (size_t i = 0; i < EventRouter::kQueueDepth; ++i) {
      ASSERT_TRUE(router.Post(1, Event::Of(kEventRead)));
    }
  }

  // Re-attaches a scheduled pump and drains the filler events.
  void RestorePump() {
    auto pump = [this] {
      deployment_.scheduler().ScheduleAfter(SimTime::FromNanos(0),
                                            [this] { thing_.drivers().DispatchPending(); });
    };
    thing_.drivers().router().set_on_post(pump);
    pump();
    deployment_.RunForMillis(10);
    ASSERT_TRUE(thing_.drivers().router().idle());
  }
};

TEST_F(RouterBackpressure, DroppedReadDoesNotStealTheNextReply) {
  PlugAndSettle(0, deployment_.MakeTmp36());
  FillRouterQueue();
  std::optional<Status> first;
  client_.Read(thing_.node().address(), kTmp36TypeId,
               [&](Result<WireValue> result) { first = result.status(); },
               /*timeout_ms=*/300);
  deployment_.RunForMillis(500);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->code(), StatusCode::kDeadlineExceeded);

  // The next client's read gets the next value the driver produces.
  RestorePump();
  MicroPnpClient& second_client = deployment_.AddClient("client-2");
  std::optional<Result<WireValue>> second;
  second_client.Read(thing_.node().address(), kTmp36TypeId,
                     [&](Result<WireValue> result) { second = std::move(result); });
  deployment_.RunForMillis(2500);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->ok()) << second->status().ToString();
  EXPECT_EQ(thing_.reads_served(), 1u);
}

TEST_F(RouterBackpressure, DroppedWriteIsNotAcknowledged) {
  Relay& relay = deployment_.MakeRelay();
  PlugAndSettle(0, relay);
  FillRouterQueue();
  std::optional<Status> ack;
  client_.Write(thing_.node().address(), kRelayTypeId, 1, [&](Status status) { ack = status; },
                /*timeout_ms=*/300);
  deployment_.RunForMillis(500);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(thing_.writes_served(), 0u);
  EXPECT_FALSE(relay.closed());

  // Once the queue drains, the client's next attempt is applied and confirmed.
  RestorePump();
  ack.reset();
  client_.Write(thing_.node().address(), kRelayTypeId, 1, [&](Status status) { ack = status; });
  deployment_.RunForMillis(500);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->ok()) << ack->ToString();
  EXPECT_EQ(thing_.writes_served(), 1u);
  EXPECT_TRUE(relay.closed());
}

// -------------------------------------------------------- stream groups ----

constexpr uint32_t kStreamPeriodMs = 1000;
constexpr int kStreamPeriods = 5;

// What one shared stream cost and delivered, measured from its start.
struct SharedStream {
  int values[2] = {0, 0};
  int closed[2] = {0, 0};
  bool joined = false;  // both clients in the stream group while it ran
  bool left = false;    // neither client in it after the close
  uint64_t bystander_datagrams = 0;
  uint64_t frames = 0;
};

// `num_things` Things each carry a TMP36.  Two clients subscribe to Thing 0's
// stream, then the first stops it.  Re-advertisement is off, so once the
// plug flows settle only stream traffic moves the counters.
SharedStream RunSharedStream(int num_things) {
  ThingConfig quiet;
  quiet.readvertise_min_ms = 0.0;
  Deployment deployment;
  deployment.AddManager();
  std::vector<MicroPnpThing*> things;
  for (int i = 0; i < num_things; ++i) {
    things.push_back(&deployment.AddThing("thing-" + std::to_string(i), nullptr, quiet));
    EXPECT_TRUE(things.back()->Plug(0, &deployment.MakeTmp36()).ok());
  }
  MicroPnpClient* clients[2] = {&deployment.AddClient("client-a"),
                                &deployment.AddClient("client-b")};
  deployment.RunForMillis(3000);

  const Ip6Address thing = things[0]->node().address();
  const Ip6Address group = StreamGroup(thing, kTmp36TypeId);
  std::vector<uint64_t> received;
  for (MicroPnpThing* t : things) {
    received.push_back(t->node().datagrams_received());
  }
  const uint64_t frames = deployment.fabric().frames_transmitted();

  SharedStream stream;
  for (int c = 0; c < 2; ++c) {
    clients[c]->StartStream(
        thing, kTmp36TypeId, kStreamPeriodMs,
        [&stream, c](const WireValue&) { ++stream.values[c]; },
        [&stream, c] { ++stream.closed[c]; });
  }
  deployment.RunForMillis(kStreamPeriods * kStreamPeriodMs + kStreamPeriodMs / 2);
  stream.joined = clients[0]->node().InGroup(group) && clients[1]->node().InGroup(group);
  clients[0]->StopStream(thing, kTmp36TypeId);
  deployment.RunForMillis(3 * kStreamPeriodMs);

  stream.left = !clients[0]->node().InGroup(group) && !clients[1]->node().InGroup(group);
  for (size_t i = 1; i < things.size(); ++i) {
    stream.bystander_datagrams += things[i]->node().datagrams_received() - received[i];
  }
  stream.frames = deployment.fabric().frames_transmitted() - frames;
  return stream;
}

// (14)s and the (15) travel on StreamGroup(thing, device), which only the
// subscribers join: same-type bystanders hear none of it, both subscribers
// get every value and the close, and the stream's frame cost does not grow
// with the number of same-type Things.
TEST(StreamGroups, OnlySubscribersReceiveStreamTraffic) {
  const SharedStream small = RunSharedStream(2);
  const SharedStream large = RunSharedStream(16);
  for (const SharedStream* stream : {&small, &large}) {
    EXPECT_EQ(stream->bystander_datagrams, 0u);
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(stream->values[c], kStreamPeriods) << "client " << c;
      EXPECT_EQ(stream->closed[c], 1) << "client " << c;
    }
    EXPECT_TRUE(stream->joined);
    EXPECT_TRUE(stream->left);
  }
  EXPECT_EQ(small.frames, large.frames);
}

// -------------------------------------------------------- address space ----

TEST(AddressSpace, ProvisionalToPermanentLifecycle) {
  AddressSpace space;
  Result<AddressRecord> record =
      space.RequestProvisionalAddress("TMP36", "Analog Devices", "dev@example.com",
                                      "https://example.com/tmp36");
  ASSERT_TRUE(record.ok());
  EXPECT_FALSE(record->permanent);
  // The online tool generated a resistor set for the assigned id.
  IdentCodec codec{IdentCircuitConfig{}};
  EXPECT_EQ(record->resistors, codec.ResistorsForId(record->id));

  // Upload a driver for a *different* device id: rejected.
  Result<DriverImage> tmp36 = CompileDriver(FindBundledDriver(kTmp36TypeId)->source);
  ASSERT_TRUE(tmp36.ok());
  EXPECT_FALSE(space.UploadDriver(record->id, *tmp36).ok());

  // Register the bundled TMP36 id and upload its matching driver: permanent.
  Result<AddressRecord> reg =
      space.RegisterAddress(kTmp36TypeId, "TMP36", "Analog Devices", "a@b.c", "url");
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(space.UploadDriver(kTmp36TypeId, *tmp36).ok());
  EXPECT_TRUE(space.Lookup(kTmp36TypeId)->permanent);
  // Immutable: re-registration refused; driver updates still allowed.
  EXPECT_FALSE(space.RegisterAddress(kTmp36TypeId, "X", "Y", "Z", "W").ok());
  EXPECT_TRUE(space.UploadDriver(kTmp36TypeId, *tmp36).ok());
}

TEST(AddressSpace, RejectsReservedAndIncompleteRequests) {
  AddressSpace space;
  EXPECT_FALSE(space.RegisterAddress(kDeviceTypeAllPeripherals, "a", "b", "c", "d").ok());
  EXPECT_FALSE(space.RegisterAddress(kDeviceTypeAllClients, "a", "b", "c", "d").ok());
  EXPECT_FALSE(space.RequestProvisionalAddress("", "org", "mail", "url").ok());
}

}  // namespace
}  // namespace micropnp
