#include "src/net/fabric.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace micropnp {

// ------------------------------------------------------------- LinkModel ---

size_t LinkModel::FragmentsFor(size_t payload_bytes) const {
  const size_t total = payload_bytes + compressed_header_bytes;
  return (total + fragment_payload_bytes - 1) / fragment_payload_bytes;
}

double LinkModel::AirtimeMs(size_t payload_bytes) const {
  const size_t fragments = FragmentsFor(payload_bytes);
  const size_t total = payload_bytes + compressed_header_bytes;
  const size_t on_air_bytes = total + fragments * mac_overhead_bytes;
  return static_cast<double>(on_air_bytes) * 8.0 / bitrate_bps * 1e3;
}

// --------------------------------------------------------------- NetNode ---

NetNode::NetNode(Fabric& fabric, std::string name, Ip6Address unicast, NodeProfile profile,
                 NetNode* parent)
    : fabric_(fabric),
      name_(std::move(name)),
      unicast_(unicast),
      profile_(profile),
      parent_(parent) {
  if (parent != nullptr) {
    parent->children_.push_back(this);
    depth_ = parent->depth_ + 1;
  }
}

void NetNode::SendUdp(const Ip6Address& dst, uint16_t port, const std::vector<uint8_t>& payload) {
  ++datagrams_sent_;
  fabric_.Route(*this, dst, port, payload);
}

void NetNode::JoinGroup(const Ip6Address& group) {
  if (groups_.insert(group).second) {
    fabric_.UpdateSubtreeMembership(*this, group, +1);
  }
}

void NetNode::LeaveGroup(const Ip6Address& group) {
  if (groups_.erase(group) != 0) {
    fabric_.UpdateSubtreeMembership(*this, group, -1);
  }
}

void NetNode::BindAnycast(const Ip6Address& anycast) {
  fabric_.anycast_bindings_[anycast].push_back(this);
}

void NetNode::Deliver(const Ip6Address& src, const Ip6Address& dst, uint16_t port,
                      const std::vector<uint8_t>& payload) {
  ++datagrams_received_;
  auto it = handlers_.find(port);
  if (it != handlers_.end() && it->second) {
    it->second(src, dst, port, payload);
  }
}

// ---------------------------------------------------------------- Fabric ---

Fabric::Fabric(Scheduler& scheduler, uint64_t seed, const LinkModel& link)
    : scheduler_(scheduler), rng_(seed), link_(link) {}

NetNode* Fabric::CreateNode(const std::string& name, const Ip6Address& unicast,
                            const NodeProfile& profile, NetNode* parent) {
  nodes_.push_back(std::unique_ptr<NetNode>(new NetNode(*this, name, unicast, profile, parent)));
  nodes_by_address_[unicast] = nodes_.back().get();
  return nodes_.back().get();
}

void Fabric::ResetStats() {
  frames_transmitted_ = 0;
  frames_lost_ = 0;
  multicast_frames_ = 0;
}

int Fabric::HopDistance(const NetNode& a, const NetNode& b) const {
  // Walk both up to equal depth, then in lockstep to the common ancestor.
  const NetNode* pa = &a;
  const NetNode* pb = &b;
  int hops = 0;
  while (pa->depth() > pb->depth()) {
    pa = pa->parent_;
    ++hops;
  }
  while (pb->depth() > pa->depth()) {
    pb = pb->parent_;
    ++hops;
  }
  while (pa != pb) {
    pa = pa->parent_;
    pb = pb->parent_;
    hops += 2;
  }
  return hops;
}

Fabric::ScratchGuard::ScratchGuard(bool& in_route) : in_route_(in_route) {
  assert(!in_route_ && "Fabric routing re-entered: the scratch buffers are single-owner");
  in_route_ = true;
}

Fabric::ScratchGuard::~ScratchGuard() { in_route_ = false; }

const std::vector<Fabric::Transfer>& Fabric::BuildTransfers(const std::vector<NetNode*>& path,
                                                            NetNode* src) {
  hops_scratch_.clear();
  NetNode* prev = src;
  for (NetNode* next : path) {
    hops_scratch_.push_back({prev, next});
    prev = next;
  }
  return hops_scratch_;
}

const std::vector<NetNode*>& Fabric::TreePath(NetNode& src, NetNode& dst) {
  // Depth-lockstep walk to the lowest common ancestor: O(depth) with no
  // chain materialization or membership scans.  path_scratch_ accumulates
  // the up segment (src's ancestors through the common node, exclusive of
  // src); down_scratch_ accumulates the down segment (dst up to, exclusive
  // of, the common node) which is appended in reverse.
  path_scratch_.clear();
  down_scratch_.clear();
  NetNode* a = &src;
  NetNode* b = &dst;
  while (a->depth() > b->depth()) {
    a = a->parent();
    path_scratch_.push_back(a);
  }
  while (b->depth() > a->depth()) {
    down_scratch_.push_back(b);
    b = b->parent();
  }
  while (a != b) {
    if (a->parent() == nullptr || b->parent() == nullptr) {
      path_scratch_.clear();  // disjoint trees: unroutable
      return path_scratch_;
    }
    a = a->parent();
    path_scratch_.push_back(a);
    down_scratch_.push_back(b);
    b = b->parent();
  }
  path_scratch_.insert(path_scratch_.end(), down_scratch_.rbegin(), down_scratch_.rend());
  return path_scratch_;
}

std::optional<double> Fabric::SimulateHops(const std::vector<Transfer>& hops,
                                           size_t payload_bytes, bool multicast) {
  double total_ms = 0.0;
  const size_t fragments = link_.FragmentsFor(payload_bytes);
  for (size_t h = 0; h < hops.size(); ++h) {
    // CSMA backoff + airtime per fragment.
    for (size_t f = 0; f < fragments; ++f) {
      ++frames_transmitted_;
      if (multicast) {
        ++multicast_frames_;
      }
      total_ms += rng_.Uniform(link_.csma_min_ms, link_.csma_max_ms);
      if (link_.loss_rate > 0.0 && rng_.Bernoulli(link_.loss_rate)) {
        ++frames_lost_;
        return std::nullopt;  // datagram lost (no link-layer retransmission)
      }
    }
    total_ms += link_.AirtimeMs(payload_bytes);
    // Intermediate nodes forward without full stack traversal.
    if (h + 1 < hops.size()) {
      const NodeProfile& p = hops[h].to->profile();
      total_ms += Jittered(p.forward_processing_ms, p);
    }
  }
  return total_ms;
}

double Fabric::Jittered(double ms, const NodeProfile& profile) {
  return ms * (1.0 + profile.jitter_fraction * rng_.Uniform(-1.0, 1.0));
}

void Fabric::Route(NetNode& src, const Ip6Address& dst, uint16_t port,
                   const std::vector<uint8_t>& payload) {
  ScratchGuard guard(in_route_);
  if (dst.IsMulticast()) {
    RouteMulticast(src, dst, port, payload);
    return;
  }
  // Anycast: deliver to the nearest bound node (Section 5: "the µPnP manager
  // is assigned an anycast IPv6 address to allow for network-level
  // redundancy and scalability").
  auto anycast = anycast_bindings_.find(dst);
  if (anycast != anycast_bindings_.end() && !anycast->second.empty()) {
    NetNode* nearest = anycast->second.front();
    int best = HopDistance(src, *nearest);
    for (NetNode* candidate : anycast->second) {
      const int d = HopDistance(src, *candidate);
      if (d < best) {
        best = d;
        nearest = candidate;
      }
    }
    RouteUnicast(src, *nearest, dst, port, payload);
    return;
  }
  // Plain unicast.
  auto node = nodes_by_address_.find(dst);
  if (node != nodes_by_address_.end()) {
    RouteUnicast(src, *node->second, dst, port, payload);
    return;
  }
  MLOG(kDebug, "net") << "no route to " << dst.ToString();
}

void Fabric::RouteUnicast(NetNode& src, NetNode& dst, const Ip6Address& dst_addr, uint16_t port,
                          const std::vector<uint8_t>& payload) {
  if (&src == &dst) {
    scheduler_.ScheduleAfter(SimTime::FromMillis(0.05),
                             [&dst, src_addr = src.address(), dst_addr, port, payload] {
                               dst.Deliver(src_addr, dst_addr, port, payload);
                             });
    return;
  }
  const std::vector<NetNode*>& path = TreePath(src, dst);
  if (path.empty()) {
    return;
  }
  const std::vector<Transfer>& hops = BuildTransfers(path, &src);
  // Sender-side stack processing.
  double latency = Jittered(src.profile().tx_processing_ms, src.profile());
  std::optional<double> wire = SimulateHops(hops, payload.size(), /*multicast=*/false);
  if (!wire.has_value()) {
    return;  // lost
  }
  latency += *wire;
  latency += Jittered(dst.profile().rx_processing_ms, dst.profile());
  scheduler_.ScheduleAfter(SimTime::FromMillis(latency),
                           [&dst, src_addr = src.address(), dst_addr, port, payload] {
                             dst.Deliver(src_addr, dst_addr, port, payload);
                           });
}

void Fabric::UpdateSubtreeMembership(NetNode& node, const Ip6Address& group, int delta) {
  // Propagate membership up the tree (the DAO-style state SMRF piggybacks
  // on RPL for).
  NetNode* current = &node;
  while (current != nullptr) {
    current->subtree_members_[group] += delta;
    if (current->subtree_members_[group] <= 0) {
      current->subtree_members_.erase(group);
    }
    current = current->parent();
  }
}

void Fabric::RouteMulticast(NetNode& src, const Ip6Address& group, uint16_t port,
                            const std::vector<uint8_t>& payload) {
  // Phase 1: the datagram climbs to the DODAG root.
  NetNode* root = &src;
  hops_scratch_.clear();
  while (root->parent() != nullptr) {
    hops_scratch_.push_back({root, root->parent()});
    root = root->parent();
  }

  const double tx = Jittered(src.profile().tx_processing_ms, src.profile());
  std::optional<double> climb = SimulateHops(hops_scratch_, payload.size(), /*multicast=*/true);
  if (!climb.has_value()) {
    return;
  }
  double base_latency = tx + *climb;

  // Phase 2: distribute down the tree.
  mcast_queue_.clear();
  mcast_queue_.push_back({root, base_latency});
  while (!mcast_queue_.empty()) {
    Descent current = mcast_queue_.back();
    mcast_queue_.pop_back();

    // Deliver locally if this node is a member (the source also receives its
    // own group traffic if subscribed, except we suppress the loopback).
    if (current.node != &src && current.node->InGroup(group)) {
      NetNode* dst = current.node;
      const double rx = Jittered(dst->profile().rx_processing_ms, dst->profile());
      scheduler_.ScheduleAfter(SimTime::FromMillis(current.latency + rx),
                               [dst, src_addr = src.address(), group, port, payload] {
                                 dst->Deliver(src_addr, group, port, payload);
                               });
    }

    // Forward into child subtrees.
    for (NetNode* child : current.node->children()) {
      const bool has_members = child->subtree_members_.count(group) != 0;
      const bool forward = (multicast_mode_ == MulticastMode::kFlooding) || has_members;
      if (!forward) {
        continue;
      }
      single_hop_.assign(1, Transfer{current.node, child});
      std::optional<double> wire = SimulateHops(single_hop_, payload.size(), /*multicast=*/true);
      if (!wire.has_value()) {
        continue;  // lost on this branch only
      }
      // The draw is taken even for the source, which forwards at no cost.
      double forward_cost =
          Jittered(current.node->profile().forward_processing_ms, current.node->profile());
      if (current.node == &src) {
        forward_cost = 0.0;
      }
      mcast_queue_.push_back({child, current.latency + *wire + forward_cost});
    }
  }
}

}  // namespace micropnp
