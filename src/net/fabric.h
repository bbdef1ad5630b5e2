// Simulated 6LoWPAN/RPL network fabric (Section 6 "Implementation").
//
// The paper's stack is IPv6 over 6LoWPAN on 802.15.4 radios, with RPL
// providing a DODAG (tree) for routing and SMRF forwarding multicast down
// that tree.  The fabric reproduces the pieces the μPnP protocol exercises:
//
//  * nodes arranged in a tree rooted at a border router (the RPL DODAG);
//  * UDP datagrams fragmented per 6LoWPAN and timed at 250 kbit/s per hop
//    with CSMA jitter and per-node stack-processing costs;
//  * unicast routed along the tree (RPL storing mode);
//  * multicast via SMRF: packets travel up to the root, then down only into
//    subtrees containing group members, found through each node's
//    group -> member-children index (RPL storing-mode DAO state) — plus a
//    classic-flooding mode, used by the A2 ablation, that walks every child;
//  * anycast delivered to the nearest node bound to the anycast address;
//  * optional per-link loss for the unreliable-network experiments the
//    paper defers to future work (Section 9).
//
// Frame transmissions are counted fabric-wide (all frames, multicast
// frames and lost frames), which is what the SMRF-vs-flooding ablation
// measures.
//
// Routing never delivers inline: each datagram's arrival at each receiver
// is a scheduler event.  Its state (receiver, addresses, port, payload
// bytes) sits in a pooled delivery record whose payload buffer keeps its
// capacity, and the event is a closure naming the record's slot, small
// enough for std::function's inline buffer, so a delivery allocates nothing
// once the pool has grown to its high-water mark.  The payload a handler
// receives stays valid for the whole handler, even when the handler sends
// (and so grows the pool).  A burst (a fleet's bring-up) can grow the pool
// far past what steady traffic needs; when the last pending delivery runs,
// the pool gives back every record beyond kDeliveryPoolFloor.

#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/ip6.h"
#include "src/net/multicast_schema.h"
#include "src/sim/scheduler.h"

namespace micropnp {

// 802.15.4 / 6LoWPAN link model (the PHY constants are in fabric.cpp).
struct LinkModel {
  double loss_rate = 0.0;  // per-frame loss probability

  // Number of 6LoWPAN fragments for a UDP payload.
  static size_t FragmentsFor(size_t payload_bytes);
  // Airtime of all fragments of one datagram across one hop (no jitter).
  static double AirtimeMs(size_t payload_bytes);
};

// Per-node stack costs.  The embedded profile models Contiki on an 8-bit
// ATMega128RFA1 (slow serialization + 6LoWPAN compression); the server
// profile models the μPnP Manager host.
struct NodeProfile {
  double tx_processing_ms = 21.0;   // build + compress + enqueue a datagram
  double rx_processing_ms = 13.5;   // reassemble + decompress + deliver
  double forward_processing_ms = 2.0;  // per intermediate hop
  double jitter_fraction = 0.04;    // +/- uniform on processing costs

  static NodeProfile Embedded() { return NodeProfile{}; }
  static NodeProfile Server() { return NodeProfile{0.4, 0.3, 0.2, 0.02}; }
};

enum class MulticastMode {
  kSmrf,      // up to the DODAG root, then down member subtrees only
  kFlooding,  // every node rebroadcasts once (classic flooding baseline)
};

class Fabric;

class NetNode {
 public:
  using UdpHandler =
      std::function<void(const Ip6Address& src, const Ip6Address& dst, uint16_t port,
                         const std::vector<uint8_t>& payload)>;

  const std::string& name() const { return name_; }
  const Ip6Address& address() const { return unicast_; }
  NetworkPrefix48 prefix() const { return PrefixOf(unicast_); }
  const NodeProfile& profile() const { return profile_; }

  // UDP port binding (one handler per port).
  void BindUdp(uint16_t port, UdpHandler handler) { handlers_[port] = std::move(handler); }
  void UnbindUdp(uint16_t port) { handlers_.erase(port); }

  // Sends a datagram into the fabric (unicast, multicast, or anycast).
  void SendUdp(const Ip6Address& dst, uint16_t port, const std::vector<uint8_t>& payload);

  // Multicast group membership (MLD-lite: a subtree's first join and last
  // leave propagate up the tree, so SMRF descends only into member branches).
  void JoinGroup(const Ip6Address& group);
  void LeaveGroup(const Ip6Address& group);
  bool InGroup(const Ip6Address& group) const { return groups_.count(group) != 0; }

  // Anycast service binding (the μPnP Manager address, Section 5).
  void BindAnycast(const Ip6Address& anycast);

  NetNode* parent() { return parent_; }
  const std::vector<NetNode*>& children() const { return children_; }
  int depth() const { return depth_; }

  uint64_t datagrams_received() const { return datagrams_received_; }

 private:
  friend class Fabric;
  NetNode(Fabric& fabric, std::string name, Ip6Address unicast, NodeProfile profile,
          NetNode* parent);

  void Deliver(const Ip6Address& src, const Ip6Address& dst, uint16_t port,
               const std::vector<uint8_t>& payload);

  // True when this node or a descendant is a member of `group`.
  bool SubtreeHasMember(const Ip6Address& group) const {
    return InGroup(group) || member_children_.count(group) != 0;
  }

  Fabric& fabric_;
  std::string name_;
  Ip6Address unicast_;
  NodeProfile profile_;
  NetNode* parent_;
  std::vector<NetNode*> children_;
  size_t child_index_ = 0;  // position in parent_->children_
  int depth_ = 0;
  std::unordered_map<uint16_t, UdpHandler> handlers_;
  std::unordered_set<Ip6Address> groups_;
  // SMRF downward state: group -> the children whose subtree holds a member,
  // in children_ order (the descent's RNG draw order).  A group has an entry
  // only while its list is non-empty.
  std::unordered_map<Ip6Address, std::vector<NetNode*>> member_children_;
  uint64_t datagrams_received_ = 0;
};

class Fabric {
 public:
  Fabric(Scheduler& scheduler, uint64_t seed, const LinkModel& link = LinkModel{});

  // Creates a node.  parent == nullptr makes a DODAG root (border router).
  NetNode* CreateNode(const std::string& name, const Ip6Address& unicast,
                      const NodeProfile& profile, NetNode* parent);

  Scheduler& scheduler() { return scheduler_; }
  const LinkModel& link() const { return link_; }
  void set_link(const LinkModel& link) { link_ = link; }

  void set_multicast_mode(MulticastMode mode) { multicast_mode_ = mode; }

  // --- statistics -----------------------------------------------------------
  uint64_t frames_transmitted() const { return frames_transmitted_; }
  uint64_t frames_lost() const { return frames_lost_; }
  uint64_t multicast_frames() const { return multicast_frames_; }
  // Child links the multicast descent examined: every child under flooding,
  // only member branches under SMRF.
  uint64_t descent_visits() const { return descent_visits_; }
  // Delivery records held, pending or free (see the file comment).
  size_t delivery_pool_size() const { return deliveries_.size(); }
  // Records the pool keeps once nothing is pending: well above what a
  // gateway's 256-read window keeps in flight.
  static constexpr size_t kDeliveryPoolFloor = 1024;
  void ResetStats();

  // Hop distance along the tree between two nodes.
  int HopDistance(const NetNode& a, const NetNode& b) const;

 private:
  friend class NetNode;

  void Route(NetNode& src, const Ip6Address& dst, uint16_t port,
             const std::vector<uint8_t>& payload);
  void RouteUnicast(NetNode& src, NetNode& dst, const Ip6Address& dst_addr, uint16_t port,
                    const std::vector<uint8_t>& payload);
  void RouteMulticast(NetNode& src, const Ip6Address& group, uint16_t port,
                      const std::vector<uint8_t>& payload);
  // Called when `node`'s subtree gained its first member of `group` or lost
  // its last: updates each ancestor's member-children list, walking up while
  // the ancestor's SubtreeHasMember answer flips.
  void UpdateMemberBranches(NetNode& node, const Ip6Address& group, bool gained);

  // Debug-asserts that no other Route call is live for the duration of the
  // guard (the scratch-buffer reentrancy contract, see TreePath).
  class ScratchGuard {
   public:
    explicit ScratchGuard(bool& in_route);
    ~ScratchGuard();
    ScratchGuard(const ScratchGuard&) = delete;
    ScratchGuard& operator=(const ScratchGuard&) = delete;

   private:
    bool& in_route_;
  };

  // Path along the tree (exclusive of src, inclusive of dst), built by a
  // depth-lockstep walk to the lowest common ancestor.  The result lives in
  // a scratch buffer reused across calls: routing runs at gateway datagram
  // rates, and Route never re-enters (delivery happens later, from scheduler
  // callbacks), so per-datagram path vectors would be pure allocator churn.
  const std::vector<NetNode*>& TreePath(NetNode& src, NetNode& dst);
  // Simulates the hop-by-hop delivery delay along `path`, the node receiving
  // each hop in order (every node but the last forwards), counting frames;
  // returns the total latency or nullopt if a frame was lost.
  std::optional<double> SimulateHops(std::span<NetNode* const> path, size_t payload_bytes,
                                     bool multicast);
  // A processing cost of `ms` on a node with `profile`, with the profile's
  // +/- uniform jitter applied (one RNG draw).
  double Jittered(double ms, const NodeProfile& profile);

  // One datagram on its way to one receiver, pooled (see the file comment).
  struct Delivery {
    NetNode* dst = nullptr;
    Ip6Address src;
    Ip6Address dst_addr;
    uint16_t port = 0;
    std::vector<uint8_t> payload;
  };
  // Copies the datagram into a free record and schedules its arrival at
  // `dst` after `delay`: the one delivery path for self-sends, unicast and
  // multicast members.
  void ScheduleDelivery(SimDuration delay, NetNode& dst, const Ip6Address& src,
                        const Ip6Address& dst_addr, uint16_t port,
                        const std::vector<uint8_t>& payload);
  // Hands the record in `slot` to its receiver, then frees the slot; the
  // last pending delivery also shrinks the pool to kDeliveryPoolFloor.
  void RunDelivery(uint32_t slot);

  Scheduler& scheduler_;
  Rng rng_;
  LinkModel link_;
  MulticastMode multicast_mode_ = MulticastMode::kSmrf;
  std::vector<std::unique_ptr<NetNode>> nodes_;
  // O(1) unicast destination lookup (the seed scanned nodes_ linearly, which
  // made every datagram O(N) at fleet scale).
  std::unordered_map<Ip6Address, NetNode*> nodes_by_address_;
  std::unordered_map<Ip6Address, std::vector<NetNode*>> anycast_bindings_;
  // Scratch buffers for the routing hot path (see TreePath).
  std::vector<NetNode*> path_scratch_;
  std::vector<NetNode*> down_scratch_;
  struct Descent {
    NetNode* node;
    double latency;
  };
  std::vector<Descent> mcast_queue_;
  bool in_route_ = false;
  std::vector<Delivery> deliveries_;
  std::vector<uint32_t> free_deliveries_;
  uint64_t frames_transmitted_ = 0;
  uint64_t frames_lost_ = 0;
  uint64_t multicast_frames_ = 0;
  uint64_t descent_visits_ = 0;
};

}  // namespace micropnp

#endif  // SRC_NET_FABRIC_H_
