// Tests for the network substrate: IPv6 addresses, the μPnP multicast
// schema (Figure 9), and the simulated 6LoWPAN/RPL fabric with SMRF.

#include <algorithm>
#include <array>
#include <compare>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/net/ip6.h"
#include "src/net/multicast_schema.h"

namespace micropnp {
namespace {

// ------------------------------------------------------------------ ip6 ----

TEST(Ip6, ParseAndFormatRoundTrip) {
  for (const char* text : {"2001:db8::1", "::", "::1", "ff3e:30:2001:db8::ed3f:ac1",
                           "fe80::1:2:3:4", "1:2:3:4:5:6:7:8"}) {
    std::optional<Ip6Address> addr = Ip6Address::Parse(text);
    ASSERT_TRUE(addr.has_value()) << text;
    EXPECT_EQ(addr->ToString(), text);
  }
}

TEST(Ip6, ParseRejectsMalformed) {
  for (const char* text : {"", ":::", "1:2:3:4:5:6:7:8:9", "g::1", "12345::", "1:2:3:4:5:6:7"}) {
    EXPECT_FALSE(Ip6Address::Parse(text).has_value()) << text;
  }
}

TEST(Ip6, CompressionPicksLongestZeroRun) {
  std::optional<Ip6Address> addr = Ip6Address::Parse("1:0:0:2:0:0:0:3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ToString(), "1:0:0:2::3");
}

TEST(Ip6, MulticastClassification) {
  EXPECT_TRUE(Ip6Address::Parse("ff3e:30::1")->IsMulticast());
  EXPECT_FALSE(Ip6Address::Parse("2001:db8::1")->IsMulticast());
}

TEST(Ip6, PrefixContains) {
  Ip6Prefix prefix{*Ip6Address::Parse("2001:db8::"), 48};
  EXPECT_TRUE(prefix.Contains(*Ip6Address::Parse("2001:db8::42")));
  EXPECT_TRUE(prefix.Contains(*Ip6Address::Parse("2001:db8:0:1::9")));
  EXPECT_FALSE(prefix.Contains(*Ip6Address::Parse("2001:db9::1")));
}

TEST(Ip6, OrderingIsLexicographicByteOrder) {
  // ==, < and <=> against a byte-by-byte lexicographic compare, both ways
  // round: maps keyed by address iterate in this order.
  auto check = [](const std::array<uint8_t, 16>& x, const std::array<uint8_t, 16>& y) {
    const Ip6Address a(x);
    const Ip6Address b(y);
    const bool less = std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end());
    const bool greater = std::lexicographical_compare(y.begin(), y.end(), x.begin(), x.end());
    const std::strong_ordering want = less      ? std::strong_ordering::less
                                      : greater ? std::strong_ordering::greater
                                                : std::strong_ordering::equal;
    EXPECT_EQ(a == b, !less && !greater) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a < b, less) << a.ToString() << " vs " << b.ToString();
    EXPECT_TRUE((a <=> b) == want) << a.ToString() << " vs " << b.ToString();
    EXPECT_TRUE((b <=> a) == 0 <=> (a <=> b)) << a.ToString() << " vs " << b.ToString();
  };

  const std::array<uint8_t, 16> base = Ip6Address::Parse("2001:db8::7:ad1c:1")->bytes();
  check(base, base);
  std::array<uint8_t, 16> last = base;  // differs only in byte 15
  last[15] = 0x02;
  check(base, last);
  check(last, base);
  // Bytes 7 and 8 straddle the two words and disagree: byte 7 decides.
  std::array<uint8_t, 16> straddle_lo = base;
  std::array<uint8_t, 16> straddle_hi = base;
  straddle_lo[7] = 0x01;
  straddle_lo[8] = 0xff;
  straddle_hi[7] = 0x02;
  straddle_hi[8] = 0x00;
  check(straddle_lo, straddle_hi);
  check(straddle_hi, straddle_lo);
  // The top byte compares unsigned: 0x00 sorts before 0xff.
  std::array<uint8_t, 16> top_lo{};
  std::array<uint8_t, 16> top_hi{};
  top_hi[0] = 0xff;
  check(top_lo, top_hi);
  check(top_hi, top_lo);

  // Random pairs that share a prefix of random length (all 16 bytes makes
  // an equal pair), so every byte position decides some of them.
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    std::array<uint8_t, 16> x;
    for (uint8_t& byte : x) {
      byte = static_cast<uint8_t>(rng.NextU32());
    }
    std::array<uint8_t, 16> y = x;
    for (size_t k = rng.UniformInt(0, 16); k < y.size(); ++k) {
      y[k] = static_cast<uint8_t>(rng.NextU32());
    }
    check(x, y);
    if (HasFailure()) {
      return;  // one pair's report, not a flood of them
    }
  }
}

// --------------------------------------------------------------- schema ----

TEST(MulticastSchema, MatchesFigure9Example) {
  // Figure 10: peripheral 0xed3f0ac1 in 2001:db8::/48 ->
  // ff3e:30:2001:db8::ed3f:ac1.
  const NetworkPrefix48 prefix = PrefixOf(*Ip6Address::Parse("2001:db8::1"));
  Ip6Address group = PeripheralGroup(prefix, 0xed3f0ac1);
  EXPECT_EQ(group.ToString(), "ff3e:30:2001:db8::ed3f:ac1");  // the paper's exact rendering
  EXPECT_EQ(*Ip6Address::Parse("ff3e:30:2001:db8::ed3f:ac1"), group);
}

TEST(MulticastSchema, ReservedGroups) {
  const NetworkPrefix48 prefix = PrefixOf(*Ip6Address::Parse("2001:db8::1"));
  EXPECT_EQ(GroupPeripheral(AllClientsGroup(prefix)), kDeviceTypeAllClients);
  EXPECT_EQ(GroupPeripheral(AllPeripheralsGroup(prefix)), kDeviceTypeAllPeripherals);
}

TEST(MulticastSchema, RoundTripsPeripheralAndPrefix) {
  const NetworkPrefix48 prefix = 0x20010db80000ull;
  Ip6Address group = PeripheralGroup(prefix, 0xad1c0001);
  EXPECT_EQ(GroupPeripheral(group), 0xad1c0001u);
  EXPECT_EQ(GroupPrefix(group), prefix);
  EXPECT_TRUE(group.IsMulticast());
  EXPECT_TRUE(IsMicroPnpGroup(group));
  EXPECT_FALSE(IsMicroPnpGroup(*Ip6Address::Parse("ff02::1")));
}

TEST(MulticastSchema, StreamGroupIsPerThingAndNeverAFigure9Group) {
  // ff3e:00ff, the Thing's interface identifier, then the device id.
  EXPECT_EQ(StreamGroup(*Ip6Address::Parse("2001:db8::7"), 0xad1c0001).ToString(),
            "ff3e:ff::7:ad1c:1");

  const std::array<const char*, 4> things = {"2001:db8::7", "2001:db8::8", "2001:db8::1:7",
                                             "2001:db8::1234:5678:9abc:def0"};
  const std::array<DeviceTypeId, 4> devices = {0xad1c0001, 0xed3f0ac1, kDeviceTypeAllPeripherals,
                                               kDeviceTypeAllClients};
  std::set<Ip6Address> groups;
  for (const char* text : things) {
    const Ip6Address thing = *Ip6Address::Parse(text);
    const NetworkPrefix48 prefix = PrefixOf(thing);
    for (DeviceTypeId device : devices) {
      const Ip6Address group = StreamGroup(thing, device);
      SCOPED_TRACE(group.ToString());
      EXPECT_TRUE(group.IsMulticast());
      EXPECT_FALSE(IsMicroPnpGroup(group));
      EXPECT_FALSE(GroupPeripheral(group).has_value());
      EXPECT_NE(group, AllClientsGroup(prefix));
      EXPECT_NE(group, AllPeripheralsGroup(prefix));
      for (DeviceTypeId other : devices) {
        EXPECT_NE(group, PeripheralGroup(prefix, other));
      }
      groups.insert(group);
    }
  }
  // Distinct across Things and across devices.
  EXPECT_EQ(groups.size(), things.size() * devices.size());
}

// --------------------------------------------------------------- fabric ----

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(sched_, 99) {
    root_ = fabric_.CreateNode("root", *Ip6Address::Parse("2001:db8::1"), NodeProfile::Server(),
                               nullptr);
    a_ = fabric_.CreateNode("a", *Ip6Address::Parse("2001:db8::2"), NodeProfile::Embedded(), root_);
    b_ = fabric_.CreateNode("b", *Ip6Address::Parse("2001:db8::3"), NodeProfile::Embedded(), root_);
    c_ = fabric_.CreateNode("c", *Ip6Address::Parse("2001:db8::4"), NodeProfile::Embedded(), a_);
  }

  Scheduler sched_;
  Fabric fabric_;
  NetNode* root_;
  NetNode* a_;
  NetNode* b_;
  NetNode* c_;
};

TEST_F(FabricTest, LinkModelFragmentation) {
  LinkModel link;
  EXPECT_EQ(link.FragmentsFor(10), 1u);    // 10 + 10 header < 88
  EXPECT_EQ(link.FragmentsFor(100), 2u);   // 110 -> 2 fragments
  EXPECT_GT(link.AirtimeMs(100), link.AirtimeMs(10));
  // 20 B payload + 10 B header + 23 B MAC = 53 B at 250 kbit/s ~ 1.7 ms.
  EXPECT_NEAR(link.AirtimeMs(20), 53.0 * 8.0 / 250e3 * 1e3, 1e-9);
}

TEST_F(FabricTest, UnicastDeliversAcrossTree) {
  std::vector<uint8_t> received;
  double arrival_ms = 0;
  b_->BindUdp(6030, [&](const Ip6Address& src, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>& payload) {
    EXPECT_EQ(src, a_->address());
    received = payload;
    arrival_ms = sched_.now().millis();
  });
  a_->SendUdp(b_->address(), 6030, {1, 2, 3});
  sched_.Run();
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 3}));
  // a -> root -> b: two hops, plus embedded tx and rx processing.
  EXPECT_GT(arrival_ms, 30.0);
  EXPECT_LT(arrival_ms, 60.0);
  EXPECT_EQ(fabric_.frames_transmitted(), 2u);
}

TEST_F(FabricTest, HopDistances) {
  EXPECT_EQ(fabric_.HopDistance(*a_, *root_), 1);
  EXPECT_EQ(fabric_.HopDistance(*a_, *b_), 2);
  EXPECT_EQ(fabric_.HopDistance(*c_, *b_), 3);
  EXPECT_EQ(fabric_.HopDistance(*c_, *c_), 0);
}

TEST_F(FabricTest, MulticastReachesOnlyMembers) {
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x1234);
  b_->JoinGroup(group);
  int b_received = 0, c_received = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address& dst, uint16_t,
                        const std::vector<uint8_t>&) {
    EXPECT_EQ(dst, group);
    ++b_received;
  });
  c_->BindUdp(6030,
              [&](const Ip6Address&, const Ip6Address&, uint16_t, const std::vector<uint8_t>&) {
                ++c_received;
              });
  a_->SendUdp(group, 6030, {0xaa});
  sched_.Run();
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_received, 0);
}

TEST_F(FabricTest, SmrfTransmitsFewerFramesThanFlooding) {
  // Build a wider tree: 3 more leaves under b, members only under a.
  for (int i = 0; i < 3; ++i) {
    std::array<uint8_t, 16> raw = b_->address().bytes();
    raw[15] = static_cast<uint8_t>(0x10 + i);
    fabric_.CreateNode("leaf" + std::to_string(i), Ip6Address(raw), NodeProfile::Embedded(), b_);
  }
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x77);
  c_->JoinGroup(group);  // only c (under a) is a member

  fabric_.set_multicast_mode(MulticastMode::kSmrf);
  fabric_.ResetStats();
  root_->SendUdp(group, 6030, {1});
  sched_.Run();
  const uint64_t smrf_frames = fabric_.frames_transmitted();

  fabric_.set_multicast_mode(MulticastMode::kFlooding);
  fabric_.ResetStats();
  root_->SendUdp(group, 6030, {1});
  sched_.Run();
  const uint64_t flood_frames = fabric_.frames_transmitted();

  EXPECT_LT(smrf_frames, flood_frames);
  EXPECT_EQ(smrf_frames, 2u);   // root->a, a->c
  EXPECT_EQ(flood_frames, 6u);  // every edge
}

TEST_F(FabricTest, AnycastRoutesToNearest) {
  Ip6Address anycast = *Ip6Address::Parse("2001:db8:aaaa::1");
  int at_root = 0, at_c = 0;
  root_->BindAnycast(anycast);
  c_->BindAnycast(anycast);
  root_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                           const std::vector<uint8_t>&) { ++at_root; });
  c_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++at_c; });
  // From b: root is 1 hop, c is 3 hops -> root wins.
  b_->SendUdp(anycast, 6030, {1});
  // From a: c is 1 hop, root is 1 hop -> first-registered wins ties (root).
  a_->SendUdp(anycast, 6030, {1});
  sched_.Run();
  EXPECT_EQ(at_root, 2);
  EXPECT_EQ(at_c, 0);
}

TEST_F(FabricTest, GroupMembershipPropagatesUpForSmrf) {
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x42);
  c_->JoinGroup(group);
  int received = 0;
  c_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++received; });
  // Sender in a different subtree: must climb to root then descend via a.
  b_->SendUdp(group, 6030, {9});
  sched_.Run();
  EXPECT_EQ(received, 1);

  c_->LeaveGroup(group);
  b_->SendUdp(group, 6030, {9});
  sched_.Run();
  EXPECT_EQ(received, 1);  // no members left: pruned everywhere
}

TEST_F(FabricTest, LossDropsDatagrams) {
  LinkModel lossy;
  lossy.loss_rate = 1.0;  // every frame dies
  fabric_.set_link(lossy);
  int received = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++received; });
  a_->SendUdp(b_->address(), 6030, {1});
  sched_.Run();
  EXPECT_EQ(received, 0);
  EXPECT_GT(fabric_.frames_lost(), 0u);
}

TEST_F(FabricTest, ScratchReuseAcrossBackToBackRoutes) {
  // Regression for the routing scratch buffers: the fabric reuses
  // path/descent vectors across Route calls to avoid per-datagram
  // allocation.  A stale-length bug would surface exactly here: a long
  // multi-hop unicast, then a multicast descent, then a short unicast, all
  // through the same buffers — each must see only its own path.
  int at_b = 0, at_c = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++at_b; });
  c_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++at_c; });
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x55);
  b_->JoinGroup(group);

  c_->SendUdp(b_->address(), 6030, {1});  // 3 hops: c -> a -> root -> b
  c_->SendUdp(group, 6030, {2});          // SMRF climb + descend
  a_->SendUdp(c_->address(), 6030, {3});  // 1 hop, shorter than the first path
  sched_.Run();
  EXPECT_EQ(at_b, 2);  // unicast + multicast
  EXPECT_EQ(at_c, 1);

  // Route-from-delivery (reply on receive) is the reentrancy pattern the
  // in_route assert guards: deliveries are scheduled, never inline, so the
  // reply's Route starts with clean scratch rather than clobbering the
  // in-progress descent.
  int replies = 0;
  b_->BindUdp(7001, [&](const Ip6Address& src, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { b_->SendUdp(src, 7002, {0xcc}); });
  c_->BindUdp(7002, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++replies; });
  c_->SendUdp(b_->address(), 7001, {0xaa});
  sched_.Run();
  EXPECT_EQ(replies, 1);
}

TEST_F(FabricTest, PayloadOutlivesAHandlerThatSends) {
  // A delivery's payload must stay valid for the whole handler, even when
  // the handler sends: its 100 sends grow the fabric's delivery pool far
  // past its high-water mark (one pending delivery), moving every record.
  constexpr int kBurst = 100;
  const std::vector<uint8_t> sent = {0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90};
  std::vector<uint8_t> seen;
  int burst_received = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>& payload) {
    for (int i = 0; i < kBurst; ++i) {
      b_->SendUdp(c_->address(), 7000, {static_cast<uint8_t>(i), 0xee, 0xff});
    }
    seen = payload;  // read only after the sends
  });
  c_->BindUdp(7000, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>& payload) {
    EXPECT_EQ(payload.size(), 3u);
    ++burst_received;
  });
  a_->SendUdp(b_->address(), 6030, sent);
  sched_.Run();
  EXPECT_EQ(seen, sent);
  EXPECT_EQ(burst_received, kBurst);
}

TEST_F(FabricTest, DrainedBurstShrinksDeliveryPoolToItsFloor) {
  // 10k datagrams pending at once grow the pool to 10k records; once the
  // last one runs, the pool keeps only its floor.
  constexpr int kBurst = 10000;
  static_assert(kBurst > Fabric::kDeliveryPoolFloor);
  int received = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++received; });
  for (int i = 0; i < kBurst; ++i) {
    a_->SendUdp(b_->address(), 6030, {1, 2});
  }
  EXPECT_EQ(fabric_.delivery_pool_size(), static_cast<size_t>(kBurst));
  sched_.Run();
  EXPECT_EQ(received, kBurst);
  EXPECT_LE(fabric_.delivery_pool_size(), Fabric::kDeliveryPoolFloor);

  // The floor's records serve the next burst.
  for (int i = 0; i < 10; ++i) {
    a_->SendUdp(b_->address(), 6030, {1});
  }
  sched_.Run();
  EXPECT_EQ(received, kBurst + 10);
  EXPECT_LE(fabric_.delivery_pool_size(), Fabric::kDeliveryPoolFloor);
}

TEST_F(FabricTest, SelfSendLoopsBack) {
  int received = 0;
  a_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++received; });
  a_->SendUdp(a_->address(), 6030, {1});
  sched_.Run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(fabric_.frames_transmitted(), 0u);  // never hits the radio
}


// ------------------------------------------------------ SMRF member index ---

// A fabric on its own scheduler whose nodes log every datagram they receive
// on kPort as (node index, sim time in ns).
class LoggedNet {
 public:
  static constexpr uint16_t kPort = 6030;

  explicit LoggedNet(uint64_t seed) : fabric_(sched_, seed) {}
  LoggedNet(const LoggedNet&) = delete;
  LoggedNet& operator=(const LoggedNet&) = delete;

  // Adds a node under nodes()[parent], or a root when parent < 0.
  NetNode* Add(int parent) {
    const size_t index = nodes_.size();
    std::array<uint8_t, 16> raw = Ip6Address::Parse("2001:db8::")->bytes();
    raw[13] = static_cast<uint8_t>((index + 1) >> 16);
    raw[14] = static_cast<uint8_t>((index + 1) >> 8);
    raw[15] = static_cast<uint8_t>(index + 1);
    NetNode* node = fabric_.CreateNode(
        std::to_string(index), Ip6Address(raw),
        parent < 0 ? NodeProfile::Server() : NodeProfile::Embedded(),
        parent < 0 ? nullptr : nodes_[static_cast<size_t>(parent)]);
    node->BindUdp(kPort, [this, index](const Ip6Address&, const Ip6Address&, uint16_t,
                                       const std::vector<uint8_t>&) {
      deliveries_.emplace_back(index, sched_.now().nanos());
    });
    nodes_.push_back(node);
    return node;
  }

  // Multicasts one byte from nodes()[src] to `group` and runs to quiescence;
  // returns the deliveries it caused, in delivery order.
  std::vector<std::pair<size_t, uint64_t>> Send(size_t src, const Ip6Address& group) {
    deliveries_.clear();
    fabric_.ResetStats();
    nodes_[src]->SendUdp(group, kPort, {1});
    sched_.Run();
    return deliveries_;
  }

  Fabric& fabric() { return fabric_; }
  const std::vector<NetNode*>& nodes() const { return nodes_; }

 private:
  Scheduler sched_;
  Fabric fabric_;
  std::vector<NetNode*> nodes_;
  std::vector<std::pair<size_t, uint64_t>> deliveries_;
};

Ip6Address TestGroup(size_t i) {
  return PeripheralGroup(PrefixOf(*Ip6Address::Parse("2001:db8::1")),
                         0x5000u + static_cast<uint32_t>(i));
}

TEST(SmrfMemberIndex, DescentOrderIsIndependentOfJoinOrder) {
  // The descent forwards into member branches in children_ order, so its
  // fabric RNG draws, and with them every delivery time, must not depend on
  // the order in which members joined.
  LoggedNet forward(7);
  LoggedNet reverse(7);
  for (LoggedNet* net : {&forward, &reverse}) {
    net->Add(-1);
    for (int relay = 0; relay < 4; ++relay) {
      net->Add(0);
    }
    for (int leaf = 0; leaf < 12; ++leaf) {
      net->Add(1 + leaf % 4);
    }
  }
  // Relays 1 and 3 are members too; relay 2's subtree is memberless.
  const std::vector<size_t> members = {1, 3, 5, 7, 8, 11, 12, 15, 16};
  const Ip6Address group = TestGroup(0);
  for (size_t m : members) {
    forward.nodes()[m]->JoinGroup(group);
  }
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reverse.nodes()[*it]->JoinGroup(group);
  }

  const auto forward_log = forward.Send(5, group);
  const auto reverse_log = reverse.Send(5, group);
  EXPECT_EQ(forward_log.size(), members.size() - 1);  // everyone but the source
  EXPECT_EQ(forward_log, reverse_log);
  EXPECT_EQ(forward.fabric().multicast_frames(), reverse.fabric().multicast_frames());
  EXPECT_EQ(forward.fabric().descent_visits(), reverse.fabric().descent_visits());
}

TEST(SmrfMemberIndex, StarWithOneMemberExaminesOnlyItsBranch) {
  // On a star, a multicast to a one-member group must not look at every
  // leaf: that scan made each advertisement O(fleet) and fleet bring-up
  // quadratic.
  constexpr int kLeaves = 10000;
  LoggedNet net(3);
  net.Add(-1);
  for (int i = 0; i < kLeaves; ++i) {
    net.Add(0);
  }
  const Ip6Address group = TestGroup(0);
  net.nodes()[kLeaves / 2]->JoinGroup(group);

  const auto log = net.Send(1, group);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, static_cast<size_t>(kLeaves / 2));
  EXPECT_LE(net.fabric().descent_visits(), 2u);
  EXPECT_EQ(net.fabric().multicast_frames(), 2u);  // leaf -> root -> member

  net.fabric().set_multicast_mode(MulticastMode::kFlooding);
  net.Send(1, group);
  EXPECT_EQ(net.fabric().descent_visits(), static_cast<uint64_t>(kLeaves));
}

TEST(SmrfMemberIndex, RandomMembershipMatchesBruteForce) {
  // Differential check of the member-children index against membership
  // recomputed from parent pointers after every join or leave: relays that
  // are members themselves, repeated joins, leaves by non-members and
  // re-joins on seeded random trees.
  constexpr size_t kGroups = 3;
  int relay_joins = 0, repeated_joins = 0, stray_leaves = 0, rejoins = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    LoggedNet net(seed);
    const size_t num_nodes = rng.UniformInt(8, 48);
    std::vector<size_t> parent(num_nodes, 0);
    std::vector<uint64_t> depth(num_nodes, 0);
    std::vector<bool> is_relay(num_nodes, false);
    net.Add(-1);
    for (size_t i = 1; i < num_nodes; ++i) {
      // Half the nodes hang off one of the last three, so trees get deep as
      // well as wide.
      const size_t lo = rng.Bernoulli(0.5) && i > 3 ? i - 3 : 0;
      parent[i] = rng.UniformInt(lo, i - 1);
      depth[i] = depth[parent[i]] + 1;
      is_relay[parent[i]] = true;
      net.Add(static_cast<int>(parent[i]));
    }
    std::vector<std::set<size_t>> members(kGroups);
    std::vector<std::set<size_t>> ever_joined(kGroups);

    for (int op = 0; op < 150; ++op) {
      const size_t g = rng.UniformInt(0, kGroups - 1);
      const size_t n = rng.UniformInt(0, num_nodes - 1);
      const bool member = members[g].count(n) != 0;
      if (rng.Bernoulli(0.6)) {
        relay_joins += is_relay[n] ? 1 : 0;
        repeated_joins += member ? 1 : 0;
        rejoins += !member && ever_joined[g].count(n) != 0 ? 1 : 0;
        net.nodes()[n]->JoinGroup(TestGroup(g));
        members[g].insert(n);
        ever_joined[g].insert(n);
      } else {
        stray_leaves += member ? 0 : 1;
        net.nodes()[n]->LeaveGroup(TestGroup(g));
        members[g].erase(n);
      }

      // Brute force for one multicast: a non-root node's uplink is on the
      // member-pruned tree when its subtree holds a member of the group.
      const size_t probe = rng.UniformInt(0, kGroups - 1);
      const size_t src = rng.UniformInt(0, num_nodes - 1);
      std::vector<bool> on_tree(num_nodes, false);
      for (size_t m : members[probe]) {
        for (size_t v = m; v != 0 && !on_tree[v]; v = parent[v]) {
          on_tree[v] = true;
        }
      }
      const auto pruned_edges =
          static_cast<uint64_t>(std::count(on_tree.begin(), on_tree.end(), true));
      std::set<size_t> expected = members[probe];
      expected.erase(src);

      for (MulticastMode mode : {MulticastMode::kSmrf, MulticastMode::kFlooding}) {
        const bool smrf = mode == MulticastMode::kSmrf;
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " op " << op << (smrf ? " smrf" : " flooding"));
        net.fabric().set_multicast_mode(mode);
        std::set<size_t> received;
        for (const auto& delivery : net.Send(src, TestGroup(probe))) {
          EXPECT_TRUE(received.insert(delivery.first).second) << "duplicate delivery";
        }
        const uint64_t edges = smrf ? pruned_edges : num_nodes - 1;
        EXPECT_EQ(received, expected);
        EXPECT_EQ(net.fabric().multicast_frames(), depth[src] + edges);
        EXPECT_EQ(net.fabric().descent_visits(), edges);
      }
      net.fabric().set_multicast_mode(MulticastMode::kSmrf);
    }
  }
  // The random walk must have produced every case the test exists for.
  EXPECT_GT(relay_joins, 0);
  EXPECT_GT(repeated_joins, 0);
  EXPECT_GT(stray_leaves, 0);
  EXPECT_GT(rejoins, 0);
}

}  // namespace
}  // namespace micropnp
