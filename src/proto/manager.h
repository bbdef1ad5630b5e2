// The μPnP Manager (Section 5): a server-class node holding the driver
// repository and managing driver deployment on Things.
//
// "The µPnP Manager runs on a server-class device and manages the deployment
// and remote configuration of device drivers on µPnP Things."  It answers
// driver installation requests (4) and can remotely discover (6)/(7) and
// remove (8)/(9) drivers.
//
// Driver delivery is chunked: a (4) is answered with an (18) upload offer
// (image CRC-32 + chunk geometry, echoing the request's sequence so the
// Thing's endpoint transaction completes on it) followed by paced (19)
// chunks, each sized to fit a single 6LoWPAN fragment.  The Thing NACKs
// gaps with (20) selective-repeat chunk requests and the manager re-serves
// exactly those chunks.  A (4) that carries the CRC of an image the Thing
// already holds — fully or partially — short-circuits to an up-to-date
// offer or resumes from the request's chunk bitmap, so a re-plug transfers
// only the delta.
//
// Remote operations ride the shared ProtoEndpoint: DiscoverDrivers and
// RemoveDriver complete exactly once — with the Thing's answer or with
// kDeadlineExceeded when the Thing is unreachable (the seed leaked a
// pending-table entry forever in that case).

#ifndef SRC_PROTO_MANAGER_H_
#define SRC_PROTO_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/dsl/driver_image.h"
#include "src/net/fabric.h"
#include "src/proto/endpoint.h"
#include "src/proto/messages.h"

namespace micropnp {

class MicroPnpManager {
 public:
  // Binds the node to the well-known manager anycast address.
  MicroPnpManager(Scheduler& scheduler, NetNode* node);

  // --- repository (the micropnp.com driver store, Section 3.3) --------------
  Status AddDriver(const DriverImage& image);
  // Adds every bundled driver (TMP36, HIH-4030, ...), compiled once per
  // process; returns the first compile error.
  Status PreloadBundledDrivers();
  bool HasDriver(DeviceTypeId id) const { return repository_.count(id) != 0; }
  size_t repository_size() const { return repository_.size(); }

  // --- remote driver management (Figure 11 messages 6..9) -------------------
  using DriverListCallback = std::function<void(Result<std::vector<DeviceTypeId>>)>;
  void DiscoverDrivers(const Ip6Address& thing, DriverListCallback callback,
                       const RequestOptions& options = RequestOptions{});
  using AckCallback = std::function<void(Status)>;
  void RemoveDriver(const Ip6Address& thing, DeviceTypeId id, AckCallback callback,
                    const RequestOptions& options = RequestOptions{});

  NetNode& node() { return *node_; }
  ProtoEndpoint& endpoint() { return endpoint_; }
  const ProtoEndpoint& endpoint() const { return endpoint_; }
  // Distinct install transactions served; retransmitted copies of a (4)
  // already answered are re-served their offer and counted separately.
  uint64_t uploads() const { return uploads_; }
  uint64_t upload_retransmissions() const { return upload_retransmissions_; }
  // Chunk datagrams sent, total and NACK-served, plus the resume/cache-hit
  // split of uploads(): resumed (partial bitmap honoured) and short-circuited
  // (Thing's cached image already matched — zero chunks moved).
  uint64_t chunks_sent() const { return chunks_sent_; }
  uint64_t chunk_retransmissions() const { return chunk_retransmissions_; }
  uint64_t resumed_uploads() const { return resumed_uploads_; }
  uint64_t upload_short_circuits() const { return upload_short_circuits_; }

 private:
  // A repository entry in its wire form, lowered once by AddDriver:
  // serialized bytes, their CRC-32 and the chunk geometry every offer/chunk
  // for this device quotes.
  struct PreparedImage {
    std::vector<uint8_t> bytes;
    uint32_t crc = 0;
    uint16_t chunk_size = 0;
    uint16_t chunk_count = 0;
  };

  // Messages the endpoint did not match to a pending transaction.
  void OnMessage(const Ip6Address& src, const Message& m);
  void HandleInstallRequest(const Ip6Address& src, const Message& m);
  void HandleChunkRequest(const Ip6Address& src, const Message& m);
  // Schedules the (19) carrying chunk `index` of `img`, built now so a later
  // repository change cannot alter it.
  void SendChunkAfter(double delay_ms, const Ip6Address& thing, DeviceTypeId id,
                      const PreparedImage& img, uint16_t index);
  void SendAfter(double delay_ms, const Ip6Address& thing, MessageType type,
                 SequenceNumber sequence, MessagePayload payload);

  Scheduler& scheduler_;
  NetNode* node_;
  ProtoEndpoint endpoint_;
  std::map<DeviceTypeId, PreparedImage> repository_;
  // Recently served (4)s, keyed by (thing, sequence), with the (18) offer
  // kept for cheap re-serve when the Thing retransmits.  The chunks
  // themselves are not replayed on a duplicate (4): the Thing's
  // selective-repeat NACK asks for exactly the gaps.  Bounded FIFO.
  struct ServedOffer {
    Ip6Address thing;
    SequenceNumber sequence = 0;
    DriverOfferPayload offer;
  };
  std::deque<ServedOffer> recent_offers_;
  uint64_t uploads_ = 0;
  uint64_t upload_retransmissions_ = 0;
  uint64_t chunks_sent_ = 0;
  uint64_t chunk_retransmissions_ = 0;
  uint64_t resumed_uploads_ = 0;
  uint64_t upload_short_circuits_ = 0;
};

}  // namespace micropnp

#endif  // SRC_PROTO_MANAGER_H_
