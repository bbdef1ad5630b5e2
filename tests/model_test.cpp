// Northbound model tier: typed model derivation from driver metadata, the
// ModelServer's last-value cache (single-flight, TTL, write-through),
// subscription fan-out over one shared upstream stream, unplug teardown, and
// drops and re-advertisements while device transactions are in flight.
//
// Everything runs on seeded deployments in simulated time; every counter
// assertion below is exact, not a threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/model/model_server.h"
#include "src/rt/decoded_image.h"

namespace micropnp {
namespace {

// ------------------------------------------------------- model derivation ---

// Every bundled DSL driver derives the surface its source declares: a `read`
// handler makes the value readable and streamable, a `write` handler makes
// it writable, and custom handlers become commands in declaration order from
// kEventCustomBase.
TEST(ModelDerivation, EveryBundledDriverDerivesItsDeclaredSurface) {
  for (const BundledDriver& bundled : BundledDrivers()) {
    Result<DeviceModel> model = DeriveModelFromSource(bundled.source, bundled.name);
    ASSERT_TRUE(model.ok()) << bundled.name << ": " << model.status().message();
    EXPECT_EQ(model->device_id, bundled.device_id) << bundled.name;
    EXPECT_EQ(model->name, bundled.name);
    EXPECT_EQ(model->source, ModelSource::kDslSource);

    // All five bundled drivers have a `read` handler.
    EXPECT_TRUE(model->readable) << bundled.name;
    EXPECT_TRUE(model->streamable()) << bundled.name;

    // Only the relay declares `write`.
    EXPECT_EQ(model->writable, bundled.device_id == kRelayTypeId) << bundled.name;

    if (bundled.device_id == kBmp180TypeId) {
      // The BMP180 source declares measure, calword(w) and compensate(t) in
      // that order; the compiler allocates custom event ids the same way.
      const std::vector<ModelCommand> expected = {
          {"measure", kEventCustomBase + 0, 0},
          {"calword", kEventCustomBase + 1, 1},
          {"compensate", kEventCustomBase + 2, 1},
      };
      EXPECT_EQ(model->commands, expected);
    } else {
      EXPECT_TRUE(model->commands.empty()) << bundled.name;
    }
  }
}

// ------------------------------------------------------------ model facets ---

TEST(ModelFacets, EncodeDecodeRoundTrip) {
  for (bool readable : {false, true}) {
    for (bool writable : {false, true}) {
      for (uint8_t commands : {uint8_t{0}, uint8_t{3}, uint8_t{255}}) {
        const ModelFacets facets{readable, writable, commands};
        EXPECT_EQ(ModelFacets::Decode(facets.Encode()), facets);
      }
    }
  }
}

TEST(ModelFacets, FacetsOfBundledModels) {
  const BundledDriver* relay = FindBundledDriver(kRelayTypeId);
  ASSERT_NE(relay, nullptr);
  Result<DeviceModel> relay_model = DeriveModelFromSource(relay->source);
  ASSERT_TRUE(relay_model.ok());
  EXPECT_EQ(FacetsOf(*relay_model), (ModelFacets{true, true, 0}));

  const BundledDriver* bmp = FindBundledDriver(kBmp180TypeId);
  ASSERT_NE(bmp, nullptr);
  Result<DeviceModel> bmp_model = DeriveModelFromSource(bmp->source);
  ASSERT_TRUE(bmp_model.ok());
  EXPECT_EQ(FacetsOf(*bmp_model), (ModelFacets{true, false, 3}));
}

// The runtime's metadata export (DecodedImage::HandledEvents) condenses into
// the same facets the AST derivation produces — this is the contract behind
// the kModelFacets TLV Things advertise.
TEST(ModelFacets, HandledEventsOfDecodedImageMatchAstFacets) {
  for (const BundledDriver& bundled : BundledDrivers()) {
    Result<DriverImage> image = CompileDriver(bundled.source);
    ASSERT_TRUE(image.ok()) << bundled.name;
    Result<DecodedImage> decoded = DecodedImage::Decode(*image);
    ASSERT_TRUE(decoded.ok()) << bundled.name;
    Result<DeviceModel> from_source = DeriveModelFromSource(bundled.source);
    ASSERT_TRUE(from_source.ok());
    const std::vector<EventId> events = decoded->HandledEvents();
    EXPECT_EQ(FacetsFromHandledEvents(events), FacetsOf(*from_source)) << bundled.name;
  }
}

TEST(ModelFacets, ModelFromFacetsExpandsCapabilities) {
  const DeviceModel rw = ModelFromFacets(0xdead0001, ModelFacets{true, true, 2});
  EXPECT_EQ(rw.source, ModelSource::kAdvertisement);
  EXPECT_TRUE(rw.readable);
  EXPECT_TRUE(rw.writable);
  EXPECT_TRUE(rw.streamable());
  EXPECT_EQ(rw.commands.size(), 2u);

  const DeviceModel none = ModelFromFacets(0xdead0002, ModelFacets{});
  EXPECT_FALSE(none.readable);
  EXPECT_FALSE(none.writable);
  EXPECT_FALSE(none.streamable());
}

TEST(ModelFacets, FindFacetsTlvAbsentAndPresent) {
  TlvList info;
  ModelFacets facets;
  EXPECT_FALSE(FindFacetsTlv(info, &facets));
  info.AddU16(TlvType::kModelFacets, ModelFacets{true, false, 1}.Encode());
  ASSERT_TRUE(FindFacetsTlv(info, &facets));
  EXPECT_EQ(facets, (ModelFacets{true, false, 1}));
}

// ------------------------------------------------------------ model catalog ---

// The catalog holds one DSL-source model per bundled driver, named after the
// driver, with the capabilities its source declares.
TEST(ModelCatalogBuiltIn, CoversTheFleetWithDslModels) {
  const ModelCatalog catalog = ModelCatalog::BuiltIn();
  struct Expected {
    DeviceTypeId id;
    const char* name;
    bool writable;
  };
  const Expected expected[] = {
      {kTmp36TypeId, "TMP36", false},   {kHih4030TypeId, "HIH-4030", false},
      {kId20LaTypeId, "ID-20LA", false}, {kBmp180TypeId, "BMP180", false},
      {kRelayTypeId, "Relay", true},
  };
  EXPECT_EQ(catalog.size(), std::size(expected));
  for (const Expected& row : expected) {
    const DeviceModel* model = catalog.Find(row.id);
    ASSERT_NE(model, nullptr) << row.name;
    EXPECT_EQ(model->name, row.name);
    EXPECT_EQ(model->source, ModelSource::kDslSource) << row.name;
    EXPECT_TRUE(model->readable) << row.name;
    EXPECT_EQ(model->writable, row.writable) << row.name;
    EXPECT_TRUE(model->streamable()) << row.name;
    if (row.id != kBmp180TypeId) {
      EXPECT_TRUE(model->commands.empty()) << row.name;
    }
  }

  // The BMP180 keeps its three named driver-private steps.
  const DeviceModel* bmp = catalog.Find(kBmp180TypeId);
  ASSERT_NE(bmp, nullptr);
  const std::vector<ModelCommand> bmp_commands = {
      {"measure", kEventCustomBase + 0, 0},
      {"calword", kEventCustomBase + 1, 1},
      {"compensate", kEventCustomBase + 2, 1},
  };
  EXPECT_EQ(bmp->commands, bmp_commands);

  EXPECT_EQ(catalog.Find(0x12345678), nullptr);
}

// ------------------------------------------------------- ModelServer fleet ---

ModelServerConfig FastConfig() {
  ModelServerConfig config;
  config.default_ttl_ms = 500.0;
  config.stream_period_ms = 200;
  return config;
}

// One manager, a TMP36 Thing and a Relay Thing, and a gateway client hosting
// the ModelServer under test.
class ModelGateway : public ::testing::Test {
 protected:
  ModelGateway()
      : manager_(deployment_.AddManager()),
        sensor_thing_(deployment_.AddThing("sensor-thing")),
        relay_thing_(deployment_.AddThing("relay-thing")),
        client_(deployment_.AddClient("gateway")),
        server_(deployment_.scheduler(), client_, ModelCatalog::BuiltIn(), FastConfig()) {}

  // Plugs both peripherals and runs until drivers install and the plug-time
  // (1) advertisements reach the gateway.
  void BringUp() {
    ASSERT_TRUE(sensor_thing_.Plug(0, &deployment_.MakeTmp36()).ok());
    ASSERT_TRUE(relay_thing_.Plug(0, &deployment_.MakeRelay()).ok());
    deployment_.RunForMillis(2000);
    ASSERT_EQ(server_.fleet_size(), 2u);
  }

  static AdvertisedPeripheral Advertised(DeviceTypeId type) {
    AdvertisedPeripheral peripheral;
    peripheral.type = type;
    return peripheral;
  }
  Ip6Address sensor_address() { return sensor_thing_.node().address(); }
  Ip6Address relay_address() { return relay_thing_.node().address(); }

  Deployment deployment_;
  MicroPnpManager& manager_;
  MicroPnpThing& sensor_thing_;
  MicroPnpThing& relay_thing_;
  MicroPnpClient& client_;
  ModelServer server_;
};

TEST_F(ModelGateway, AdvertisementsBuildTypedFleet) {
  BringUp();
  const DeviceModel* sensor = server_.ModelFor(sensor_address(), kTmp36TypeId);
  ASSERT_NE(sensor, nullptr);
  EXPECT_EQ(sensor->name, "TMP36");
  EXPECT_TRUE(sensor->readable);
  EXPECT_FALSE(sensor->writable);

  const DeviceModel* relay = server_.ModelFor(relay_address(), kRelayTypeId);
  ASSERT_NE(relay, nullptr);
  EXPECT_TRUE(relay->writable);

  EXPECT_EQ(server_.ModelFor(sensor_address(), kRelayTypeId), nullptr);
}

TEST_F(ModelGateway, FacetsTlvModelsUnknownDriver) {
  // A peripheral type absent from the catalog falls back to the advertised
  // kModelFacets TLV; with no TLV either, the protocol default is a
  // readable-only property (every installed driver answers (10)).
  AdvertisedPeripheral with_facets;
  with_facets.type = 0xdead0001;
  with_facets.info.AddU16(TlvType::kModelFacets, ModelFacets{true, true, 1}.Encode());
  AdvertisedPeripheral bare;
  bare.type = 0xdead0002;
  server_.ObserveAdvertisement(sensor_address(), {with_facets, bare});

  const DeviceModel* rich = server_.ModelFor(sensor_address(), 0xdead0001);
  ASSERT_NE(rich, nullptr);
  EXPECT_EQ(rich->source, ModelSource::kAdvertisement);
  EXPECT_TRUE(rich->writable);
  EXPECT_EQ(rich->commands.size(), 1u);

  const DeviceModel* plain = server_.ModelFor(sensor_address(), 0xdead0002);
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->readable);
  EXPECT_FALSE(plain->writable);
}

TEST_F(ModelGateway, RefreshFleetDiscoversActively) {
  // Suppress the listener path: this server only learns via RefreshFleet.
  ASSERT_TRUE(sensor_thing_.Plug(0, &deployment_.MakeTmp36()).ok());
  deployment_.RunForMillis(2000);

  ModelServerConfig config = FastConfig();
  config.hook_advertisements = false;
  MicroPnpClient& probe_client = deployment_.AddClient("probe");
  ModelServer probe(deployment_.scheduler(), probe_client, ModelCatalog::BuiltIn(), config);
  EXPECT_EQ(probe.fleet_size(), 0u);

  size_t answered = 0;
  probe.RefreshFleet(kTmp36TypeId, 500, [&](Result<size_t> count) {
    ASSERT_TRUE(count.ok());
    answered = *count;
  });
  deployment_.RunForMillis(800);
  EXPECT_EQ(answered, 1u);
  EXPECT_EQ(probe.fleet_size(), 1u);
  EXPECT_NE(probe.ModelFor(sensor_address(), kTmp36TypeId), nullptr);
}

// ------------------------------------------------------- last-value cache ---

TEST_F(ModelGateway, SingleFlightCoalescesConcurrentReads) {
  BringUp();
  // 8 reads of the same cold key issued back to back: one μPnP (10) goes on
  // the wire, the other 7 join its waiter cohort.
  int completed = 0;
  std::vector<int32_t> values;
  for (int i = 0; i < 8; ++i) {
    server_.ReadValue(sensor_address(), kTmp36TypeId, [&](Result<WireValue> value) {
      ASSERT_TRUE(value.ok());
      ++completed;
      values.push_back(value->scalar);
    });
  }
  deployment_.RunForMillis(300);  // fetch lands well inside the 500ms TTL
  EXPECT_EQ(completed, 8);
  // Every waiter saw the same fetched value.
  EXPECT_EQ(std::count(values.begin(), values.end(), values.front()), 8);

  const ModelServerCounters& counters = server_.counters();
  EXPECT_EQ(counters.reads, 8u);
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.cache_misses, 8u);
  EXPECT_EQ(counters.device_reads, 1u);
  EXPECT_EQ(counters.coalesced_reads, 7u);

  // The fetch populated the cache: an immediate 9th read is a hit.
  bool hit = false;
  server_.ReadValue(sensor_address(), kTmp36TypeId,
                    [&](Result<WireValue> value) { hit = value.ok(); });
  EXPECT_TRUE(hit);  // synchronous: no simulation time needed
  EXPECT_EQ(server_.counters().cache_hits, 1u);
  EXPECT_EQ(server_.counters().device_reads, 1u);

  // Ledger invariants.
  EXPECT_EQ(counters.cache_hits + counters.cache_misses, counters.reads);
  EXPECT_EQ(counters.coalesced_reads + counters.device_reads, counters.cache_misses);
}

TEST_F(ModelGateway, TtlExpiryForcesRefetch) {
  BringUp();
  auto read_once = [&] {
    bool done = false;
    server_.ReadValue(sensor_address(), kTmp36TypeId,
                      [&](Result<WireValue> value) { done = value.ok(); });
    deployment_.RunForMillis(300);
    EXPECT_TRUE(done);
  };
  read_once();  // cold: device read #1
  EXPECT_EQ(server_.counters().device_reads, 1u);
  read_once();  // 300ms later, inside the 500ms TTL: hit
  EXPECT_EQ(server_.counters().cache_hits, 1u);
  EXPECT_EQ(server_.counters().device_reads, 1u);

  deployment_.RunForMillis(600);  // now stale
  read_once();  // device read #2
  EXPECT_EQ(server_.counters().device_reads, 2u);
  EXPECT_EQ(server_.counters().cache_misses, 2u);
}

TEST_F(ModelGateway, WriteThroughMakesNextReadAHit) {
  BringUp();
  bool written = false;
  server_.WriteValue(relay_address(), kRelayTypeId, 1, [&](Status status) {
    ASSERT_TRUE(status.ok());
    written = true;
  });
  deployment_.RunForMillis(500);
  ASSERT_TRUE(written);
  EXPECT_EQ(server_.counters().device_writes, 1u);

  // The acked write primed the cache: the read is a hit, no (10) issued.
  bool read_done = false;
  server_.ReadValue(relay_address(), kRelayTypeId, [&](Result<WireValue> value) {
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->scalar, 1);
    read_done = true;
  });
  EXPECT_TRUE(read_done);
  EXPECT_EQ(server_.counters().cache_hits, 1u);
  EXPECT_EQ(server_.counters().device_reads, 0u);
}

TEST_F(ModelGateway, UnmodeledAndUnwritableTargetsRejectSynchronously) {
  BringUp();
  Status read_status = OkStatus();
  server_.ReadValue(sensor_address(), kBmp180TypeId,
                    [&](Result<WireValue> value) { read_status = value.status(); });
  EXPECT_EQ(read_status.code(), StatusCode::kNotFound);

  Status write_status = OkStatus();
  server_.WriteValue(sensor_address(), kTmp36TypeId, 7,
                     [&](Status status) { write_status = status; });
  EXPECT_EQ(write_status.code(), StatusCode::kFailedPrecondition);

  EXPECT_EQ(server_.counters().model_misses, 2u);
  EXPECT_EQ(server_.counters().reads, 0u);
  EXPECT_EQ(server_.counters().writes, 0u);
}

// ---------------------------------------------------- subscription fan-out ---

TEST_F(ModelGateway, OneUpstreamFansOutToAllSubscribers) {
  BringUp();
  int counts[3] = {0, 0, 0};
  SubscriptionId ids[3];
  for (int i = 0; i < 3; ++i) {
    Result<SubscriptionId> id = server_.Subscribe(
        sensor_address(), kTmp36TypeId, [&counts, i](const WireValue&) { ++counts[i]; });
    ASSERT_TRUE(id.ok());
    ids[i] = *id;
  }
  deployment_.RunForMillis(2000);

  std::vector<ModelServer::FanoutStat> stats = server_.FanoutStats();
  ASSERT_EQ(stats.size(), 1u);  // one upstream stream, three subscribers
  EXPECT_EQ(stats[0].subscribers, 3u);
  EXPECT_GT(stats[0].upstream_events, 0u);
  // Exactly-once: every received (14) reached every subscriber.
  for (int count : counts) {
    EXPECT_EQ(static_cast<uint64_t>(count), stats[0].upstream_events);
  }
  EXPECT_EQ(stats[0].delivered, 3 * stats[0].upstream_events);

  // Upstream telemetry feeds the cache: a read right after a (14) is a hit.
  bool hit = false;
  server_.ReadValue(sensor_address(), kTmp36TypeId,
                    [&](Result<WireValue> value) { hit = value.ok(); });
  EXPECT_TRUE(hit);
  EXPECT_EQ(server_.counters().device_reads, 0u);

  for (int i = 0; i < 3; ++i) {
    server_.Unsubscribe(sensor_address(), kTmp36TypeId, ids[i]);
  }
  EXPECT_TRUE(server_.FanoutStats().empty());
  const int after_teardown = counts[0];
  deployment_.RunForMillis(1000);
  EXPECT_EQ(counts[0], after_teardown);  // stream stopped, no stragglers
}

TEST_F(ModelGateway, FanOutSurvivesLossAndSubscriberChurn) {
  BringUp();
  LinkModel lossy;
  lossy.loss_rate = 0.2;
  deployment_.fabric().set_link(lossy);

  // One stable subscriber rides across five churn rounds of three
  // short-lived subscribers each.
  uint64_t stable_count = 0;
  Result<SubscriptionId> stable =
      server_.Subscribe(sensor_address(), kTmp36TypeId, [&](const WireValue&) { ++stable_count; });
  ASSERT_TRUE(stable.ok());

  for (int round = 0; round < 5; ++round) {
    SubscriptionId churned[3];
    for (int i = 0; i < 3; ++i) {
      Result<SubscriptionId> id =
          server_.Subscribe(sensor_address(), kTmp36TypeId, [](const WireValue&) {});
      ASSERT_TRUE(id.ok());
      churned[i] = *id;
    }
    deployment_.RunForMillis(600);
    for (SubscriptionId id : churned) {
      server_.Unsubscribe(sensor_address(), kTmp36TypeId, id);
    }
    deployment_.RunForMillis(200);
  }

  std::vector<ModelServer::FanoutStat> stats = server_.FanoutStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].subscribers, 1u);  // only the stable subscriber remains
  // Despite 20% loss and churn, the stable subscriber saw every (14) the
  // upstream delivered — exactly once each.
  EXPECT_GT(stable_count, 0u);
  EXPECT_EQ(stable_count, stats[0].upstream_events);
}

TEST_F(ModelGateway, UpstreamReestablishesAfterForeignStop) {
  BringUp();
  uint64_t received = 0;
  Result<SubscriptionId> id =
      server_.Subscribe(sensor_address(), kTmp36TypeId, [&](const WireValue&) { ++received; });
  ASSERT_TRUE(id.ok());
  deployment_.RunForMillis(1500);
  ASSERT_GT(received, 0u);
  const uint64_t before_stop = received;

  // Another client stops the Thing's stream ((12) period 0); the (15) goes
  // to the whole group, killing the gateway's upstream under it.  The
  // fan-out must re-establish on the backoff ladder and keep delivering.
  MicroPnpClient& other = deployment_.AddClient("other-client");
  other.StopStream(sensor_address(), kTmp36TypeId);
  deployment_.RunForMillis(3000);

  EXPECT_GE(server_.counters().upstream_restarts, 1u);
  EXPECT_GT(received, before_stop);
}

// ------------------------------------------------------------------ unplug ---

TEST_F(ModelGateway, UnplugDropsModelCacheAndSubscribers) {
  BringUp();
  Result<SubscriptionId> id =
      server_.Subscribe(sensor_address(), kTmp36TypeId, [](const WireValue&) {});
  ASSERT_TRUE(id.ok());
  deployment_.RunForMillis(1000);
  ASSERT_EQ(server_.FanoutStats().size(), 1u);

  // The unplug advertisement (empty peripheral list) must tear everything
  // down: model, cache entry, and the fan-out with its subscriber.
  ASSERT_TRUE(sensor_thing_.Unplug(0).ok());
  deployment_.RunForMillis(1000);
  EXPECT_EQ(server_.ModelFor(sensor_address(), kTmp36TypeId), nullptr);
  EXPECT_EQ(server_.fleet_size(), 1u);  // relay Thing remains
  EXPECT_TRUE(server_.FanoutStats().empty());
  EXPECT_EQ(server_.counters().dropped_subscribers, 1u);

  // Reads of the dropped device are model misses now.
  Status status = OkStatus();
  server_.ReadValue(sensor_address(), kTmp36TypeId,
                    [&](Result<WireValue> value) { status = value.status(); });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ModelGateway, UnplugFailsInFlightWaitersWithUnavailable) {
  BringUp();
  // Black-hole the network so the fetch stays in the air, then drop the
  // device via the listener path: the waiter cohort must fail immediately
  // with kUnavailable instead of dangling until the deadline.
  LinkModel black_hole;
  black_hole.loss_rate = 1.0;
  deployment_.fabric().set_link(black_hole);

  std::vector<StatusCode> codes;
  for (int i = 0; i < 3; ++i) {
    server_.ReadValue(sensor_address(), kTmp36TypeId,
                      [&](Result<WireValue> value) { codes.push_back(value.status().code()); });
  }
  EXPECT_TRUE(codes.empty());  // fetch pending
  server_.ObserveAdvertisement(sensor_address(), {});
  ASSERT_EQ(codes.size(), 3u);
  for (StatusCode code : codes) {
    EXPECT_EQ(code, StatusCode::kUnavailable);
  }
  // The orphaned μPnP read completing later must not resurrect the entry.
  deployment_.fabric().set_link(LinkModel{});
  deployment_.RunForMillis(3000);
  EXPECT_EQ(codes.size(), 3u);
}

// A write acked after its device was dropped leaves nothing behind: the
// re-advertised relay is a new record, so its first read goes to the device.
TEST_F(ModelGateway, WriteAckAfterDropDoesNotRecreateTheCacheEntry) {
  BringUp();
  bool acked = false;
  server_.WriteValue(relay_address(), kRelayTypeId, 1,
                     [&](Status status) { acked = status.ok(); });
  server_.ObserveAdvertisement(relay_address(), {});  // before the (17) lands
  deployment_.RunForMillis(500);
  ASSERT_TRUE(acked);

  server_.ObserveAdvertisement(relay_address(), {Advertised(kRelayTypeId)});
  bool read_done = false;
  server_.ReadValue(relay_address(), kRelayTypeId,
                    [&](Result<WireValue> value) { read_done = value.ok(); });
  EXPECT_FALSE(read_done);
  deployment_.RunForMillis(500);
  EXPECT_TRUE(read_done);
  EXPECT_EQ(server_.counters().cache_hits, 0u);
  EXPECT_EQ(server_.counters().device_reads, 1u);
}

// A fetch still in the air when its device is dropped belongs to that
// device's life: its deadline neither fails nor un-flights the reads of the
// re-advertised device.
TEST_F(ModelGateway, FetchOfADroppedDeviceDoesNotAnswerItsSuccessor) {
  BringUp();
  LinkModel black_hole;
  black_hole.loss_rate = 1.0;
  deployment_.fabric().set_link(black_hole);

  std::vector<StatusCode> first;
  server_.ReadValue(sensor_address(), kTmp36TypeId,
                    [&](Result<WireValue> value) { first.push_back(value.status().code()); });
  server_.ObserveAdvertisement(sensor_address(), {});
  deployment_.RunForMillis(1500);

  server_.ObserveAdvertisement(sensor_address(), {Advertised(kTmp36TypeId)});
  std::vector<StatusCode> second;
  server_.ReadValue(sensor_address(), kTmp36TypeId,
                    [&](Result<WireValue> value) { second.push_back(value.status().code()); });
  deployment_.RunForMillis(600);  // past the first fetch's 2 s deadline
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(server_.counters().read_failures, 0u);

  deployment_.fabric().set_link(LinkModel{});
  deployment_.RunForMillis(3000);
  EXPECT_EQ(second, std::vector<StatusCode>{StatusCode::kOk});
  EXPECT_EQ(first, std::vector<StatusCode>{StatusCode::kUnavailable});
  EXPECT_EQ(server_.counters().device_reads, 2u);
}

// A waiter failed by a drop that reads again finds the device gone, instead
// of opening a fetch for it.
TEST_F(ModelGateway, RetryFromAFailedWaiterSeesTheDeviceGone) {
  BringUp();
  LinkModel black_hole;
  black_hole.loss_rate = 1.0;
  deployment_.fabric().set_link(black_hole);

  std::vector<StatusCode> codes;
  server_.ReadValue(sensor_address(), kTmp36TypeId, [&](Result<WireValue> value) {
    codes.push_back(value.status().code());
    if (value.status().code() == StatusCode::kUnavailable) {
      server_.ReadValue(sensor_address(), kTmp36TypeId,
                        [&](Result<WireValue> retry) { codes.push_back(retry.status().code()); });
    }
  });
  server_.ObserveAdvertisement(sensor_address(), {});
  EXPECT_EQ(codes, (std::vector<StatusCode>{StatusCode::kUnavailable, StatusCode::kNotFound}));
  EXPECT_EQ(server_.counters().device_reads, 1u);
}

// Seeded churn at 20% loss: devices drop and come back while reads, writes
// and streams are in flight.  After each seed drains, every read and write
// has completed exactly once, the cache ledgers balance, and every fan-out
// belongs to a modeled device.
TEST_F(ModelGateway, ChurnKeepsLedgersAndCompletionsExact) {
  BringUp();
  LinkModel lossy;
  lossy.loss_rate = 0.2;
  deployment_.fabric().set_link(lossy);
  const Ip6Address things[] = {sensor_address(), relay_address()};
  const DeviceTypeId devices[] = {kTmp36TypeId, kRelayTypeId};

  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<int> fired;  // per read or write: callbacks seen
    std::function<void(size_t, bool)> read = [&](size_t t, bool retry) {
      const size_t slot = fired.size();
      fired.push_back(0);
      server_.ReadValue(things[t], devices[t], [&, t, retry, slot](Result<WireValue> value) {
        ++fired[slot];
        if (retry && value.status().code() == StatusCode::kUnavailable) {
          read(t, false);
        }
      });
    };
    for (int step = 0; step < 300; ++step) {
      const size_t t = rng.UniformInt(0, 1);
      switch (rng.UniformInt(0, 4)) {
        case 0:
          if (rng.UniformInt(0, 1) == 0) {
            server_.ObserveAdvertisement(things[t], {});
          } else {
            server_.ObserveAdvertisement(things[t], {Advertised(devices[t])});
          }
          break;
        case 1:
          read(t, true);
          break;
        case 2: {
          const size_t slot = fired.size();
          fired.push_back(0);
          server_.WriteValue(relay_address(), kRelayTypeId, static_cast<int32_t>(step % 2),
                             [&fired, slot](Status) { ++fired[slot]; });
          break;
        }
        case 3:
          (void)server_.Subscribe(things[t], devices[t], [](const WireValue&) {});
          break;
        default:
          deployment_.RunForMillis(static_cast<double>(rng.UniformInt(0, 300)));
          break;
      }
    }
    deployment_.RunForMillis(20000);

    for (size_t slot = 0; slot < fired.size(); ++slot) {
      ASSERT_EQ(fired[slot], 1) << "seed " << seed << ", operation " << slot;
    }
    const ModelServerCounters& counters = server_.counters();
    ASSERT_EQ(counters.cache_hits + counters.cache_misses, counters.reads) << "seed " << seed;
    ASSERT_EQ(counters.coalesced_reads + counters.device_reads, counters.cache_misses)
        << "seed " << seed;
    for (const ModelServer::FanoutStat& stat : server_.FanoutStats()) {
      ASSERT_NE(server_.ModelFor(stat.thing, stat.device), nullptr) << "seed " << seed;
    }
  }
}

// ------------------------------------------------------------- ModelClient ---

TEST_F(ModelGateway, ModelClientTeardownUnsubscribesEverything) {
  BringUp();
  {
    ModelClient consumer(server_);
    ASSERT_TRUE(consumer.Subscribe(sensor_address(), kTmp36TypeId, [](const WireValue&) {}).ok());
    ASSERT_TRUE(consumer.Subscribe(relay_address(), kRelayTypeId, [](const WireValue&) {}).ok());
    EXPECT_EQ(consumer.active_subscriptions(), 2u);
    EXPECT_EQ(server_.FanoutStats().size(), 2u);
  }  // ~ModelClient
  EXPECT_TRUE(server_.FanoutStats().empty());
  deployment_.RunForMillis(1000);  // stream stops drain cleanly
}

// A client can drop only its own subscriptions: another client's id leaves
// that subscription delivering and counted.
TEST_F(ModelGateway, ModelClientUnsubscribeIgnoresForeignIds) {
  BringUp();
  ModelClient a(server_);
  ModelClient b(server_);
  uint64_t b_values = 0;
  Result<SubscriptionId> b_id =
      b.Subscribe(sensor_address(), kTmp36TypeId, [&](const WireValue&) { ++b_values; });
  ASSERT_TRUE(b_id.ok());

  a.Unsubscribe(sensor_address(), kTmp36TypeId, *b_id);
  deployment_.RunForMillis(3000);
  EXPECT_GT(b_values, 0u);
  EXPECT_EQ(b.active_subscriptions(), 1u);
  const std::vector<ModelServer::FanoutStat> stats = server_.FanoutStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].subscribers, 1u);
}

}  // namespace
}  // namespace micropnp
