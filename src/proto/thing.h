// The μPnP Thing (Section 5): an embedded IoT device with locally connected
// μPnP hardware, exposing its peripherals to the network.
//
// The Thing composes the whole paper: control board + peripheral controller
// (Section 3), driver runtime (Section 4), and the interaction protocol
// (Section 5).  When a peripheral is plugged in it executes the flow that
// Table 4 measures:
//
//   identify -> generate multicast address -> join group ->
//   [request driver -> install driver]     -> advertise (1)
//
// and afterwards serves discovery (2)/(3), read (10)/(11), stream
// (12)..(15) and write (16)/(17), plus the manager-facing driver operations
// (6)..(9).
//
// Lossy-network hardening on top of the paper's flow:
//  - Advertisements repeat on a bounded trickle schedule: after any
//    peripheral change the interval restarts at readvertise_min_ms and
//    doubles up to 64 s, whose tick is the last.  A solicited
//    advertisement (3) suppresses the next tick.  Clients that missed the
//    one-shot (1) converge without flooding the fabric.
//  - The driver request (4) is a ProtoEndpoint transaction toward the
//    Manager anycast address carrying the resume state of any held partial
//    image.  It is answered by an (18) upload offer followed by (19) chunks
//    sized to single 6LoWPAN fragments; the Thing NACKs gaps with (20)
//    selective-repeat requests, and assembles + CRC-verifies the image.  A
//    failed request re-arms with capped exponential backoff instead of
//    giving up, and a re-plug resumes from the held chunk bitmap.
//
// Each connector of the control board has one record (device, plug-flow
// phase, retry backoff, stream, pending reads).  A plug-flow step drops itself
// once its channel's peripheral has changed, so no step of an unplugged
// peripheral, a driver activation among them, outlives it.

#ifndef SRC_PROTO_THING_H_
#define SRC_PROTO_THING_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/net/fabric.h"
#include "src/proto/endpoint.h"
#include "src/proto/messages.h"
#include "src/rt/driver_manager.h"
#include "src/rt/peripheral_controller.h"

namespace micropnp {

// The one per-Thing setting (the protocol's timers and the Table 4 CPU costs
// are constants in thing.cpp): the first trickle re-advertisement interval.
// <= 0 disables the schedule (benchmarks that only measure the read path).
struct ThingConfig {
  double readvertise_min_ms = 1000.0;
};

// Where a channel is in the plug flow: one phase per Table 4 step it waits in.
enum class ChannelPhase : uint8_t {
  kEmpty,           // nothing identified
  kJoining,         // identified: address and group join (Table 4 rows 1-2)
  kAwaitingDriver,  // the (4) and the image transfer (row 3)
  kActivating,      // image installed: VM setup and init (row 4)
  kReady,           // driver host active; the (1) follows (row 5)
  kFailed,          // retry budget spent, image rejected or activation failed
};

// Simulation-time marks of the most recent plug-in flow (consumed by the
// Table 4 bench).
struct PlugFlowMarks {
  ChannelId channel = 0;
  DeviceTypeId device = 0;
  bool driver_was_cached = false;
  SimTime plugged;            // physical connect (interrupt)
  SimTime identified;         // identification scan complete
  SimTime address_generated;  // multicast address derived
  SimTime group_joined;       // group membership active
  SimTime driver_requested;   // (4) sent (equals group_joined when cached)
  SimTime driver_received;    // full image held (chunks assembled or cached)
  SimTime driver_installed;   // image activated
  SimTime advertised;         // (1) handed to the network stack
};

class MicroPnpThing {
 public:
  // `decode_cache` shares verified decoded driver images with other Things
  // (see DecodeCache); it must outlive the Thing.
  MicroPnpThing(Scheduler& scheduler, NetNode* node, uint64_t seed, DecodeCache& decode_cache,
                const ThingConfig& config = ThingConfig{});

  // --- local hardware access ------------------------------------------------
  Status Plug(ChannelId channel, Peripheral* peripheral);
  Status Unplug(ChannelId channel);
  ChannelPhase phase(ChannelId channel) const { return channels_[channel].phase; }
  PeripheralController& controller() { return controller_; }
  DriverManager& drivers() { return driver_manager_; }
  NetNode& node() { return *node_; }
  ProtoEndpoint& endpoint() { return endpoint_; }
  const ProtoEndpoint& endpoint() const { return endpoint_; }

  // Pre-provisions a driver image locally (no over-the-air request needed).
  Status PreinstallDriver(const DriverImage& image);

  // --- instrumentation --------------------------------------------------------
  const std::optional<PlugFlowMarks>& last_plug_flow() const { return last_flow_; }
  uint64_t advertisements_sent() const { return advertisements_sent_; }
  uint64_t reads_served() const { return reads_served_; }
  uint64_t writes_served() const { return writes_served_; }
  uint64_t driver_requests_failed() const { return driver_requests_failed_; }
  uint64_t driver_request_retries() const { return driver_request_retries_; }
  uint64_t readvertisements_sent() const { return readvertisements_sent_; }
  uint64_t readvertisements_suppressed() const { return readvertisements_suppressed_; }
  uint64_t chunks_received() const { return chunks_received_; }
  uint64_t duplicate_chunks() const { return duplicate_chunks_; }
  uint64_t chunk_nacks_sent() const { return chunk_nacks_sent_; }
  uint64_t transfers_completed() const { return transfers_completed_; }

 private:
  struct PendingRead {
    Ip6Address client;
    SequenceNumber sequence;
  };
  // One connector's protocol state.
  struct Channel {
    ChannelPhase phase = ChannelPhase::kEmpty;
    bool streaming = false;
    DeviceTypeId device = 0;  // the identified device, unless kEmpty
    uint32_t generation = 0;  // bumped at every peripheral change
    int retries = 0;          // (4) retry backoff; resets on every (re-)plug
    uint32_t stream_period_ms = 0;
    uint32_t stream_generation = 0;  // a restart invalidates the old stream's ticks
    Ip6Address stream_group;
    // Reads awaiting the channel's next value, oldest first.  Nothing bounds
    // them, so this is a vector that pops from the front and keeps its
    // capacity: only a channel's first read allocates.
    std::vector<PendingRead> pending_reads;
  };
  // One chunked driver transfer, which doubles as the resume cache: chunks
  // survive unplug/deadline, so the next (4) advertises them in its bitmap
  // and only the gaps move again.
  struct DriverTransfer {
    uint32_t crc = 0;  // CRC-32 the offer/chunks quote for the full image
    uint16_t chunk_count = 0;
    std::vector<std::vector<uint8_t>> chunks;
    std::vector<bool> have;
    uint16_t have_count = 0;
    bool complete = false;  // all chunks held and CRC verified
    bool install_started = false;
    bool nack_armed = false;
    int nacks_sent = 0;
    double nack_delay_ms = 0.0;
    uint32_t generation = 0;  // bump invalidates armed NACK timers
  };

  // Schedules `Step` for `channel` after `delay_ms`, dropped if the channel's
  // generation has moved by then.  The closure is 16 B: this, channel, generation.
  template <void (MicroPnpThing::*Step)(ChannelId)>
  void After(double delay_ms, ChannelId channel);
  // Whether `generation` is still `channel`'s: no peripheral change since.
  bool Current(ChannelId channel, uint32_t generation) const {
    return channels_[channel].generation == generation;
  }

  // Plug-in network flow (Figure 10/11): channel steps chained through After().
  void OnPeripheralChange(ChannelId channel, DeviceTypeId id, bool connected);
  void OnAddressGenerated(ChannelId channel);
  void JoinPeripheralGroup(ChannelId channel);
  void EnsureDriver(ChannelId channel);
  void SendDriverRequest(ChannelId channel);
  void OnDriverRequestComplete(ChannelId channel, Result<Message> reply);
  void ScheduleDriverRetry(ChannelId channel);
  void InstallReceivedDriver(DeviceTypeId id, std::vector<uint8_t> image);
  void ActivateAndAdvertise(ChannelId channel);
  void ActivateDriver(ChannelId channel);
  void AdvertiseDriver(ChannelId channel);
  void SendUnsolicitedAdvertisement();
  void SendSolicitedAdvertisement(const Ip6Address& client, SequenceNumber seq);

  // Chunked driver transfer (18)/(19)/(20).
  void ProcessOffer(ChannelId channel, const DriverOfferPayload& offer);
  void HandleDriverChunk(const Message& m);
  void ResetTransfer(DriverTransfer& t, uint32_t crc, uint16_t chunk_count);
  void MaybeCompleteTransfer(DeviceTypeId id, DriverTransfer& t);
  // The lowest channel whose identified peripheral is `id` and, with
  // `with_driver`, is ready; kInvalidChannel when none.
  ChannelId ChannelFor(DeviceTypeId id, bool with_driver = false) const;
  std::vector<uint8_t> AssembleTransfer(const DriverTransfer& t) const;
  void ArmNackTimer(DeviceTypeId id);
  void NackTick(DeviceTypeId id, uint32_t generation);

  // Trickle re-advertisement.
  void ResetTrickle();
  void TrickleTick(uint64_t generation);

  // Message handling: what the endpoint did not match to a pending
  // transaction.
  void OnMessage(const Ip6Address& src, const Ip6Address& dst, const Message& m);
  void HandleDiscovery(const Ip6Address& src, const Message& m, const Ip6Address& group);
  void HandleRead(const Ip6Address& src, const Message& m);
  void HandleStream(const Ip6Address& src, const Message& m);
  void HandleWrite(const Ip6Address& src, const Message& m);
  void HandleDriverDiscovery(const Ip6Address& src, const Message& m);
  void HandleDriverRemoval(const Ip6Address& src, const Message& m);
  // Sends a reply after the CPU cost of building it.
  void ReplyAfterBuild(const Ip6Address& peer, MessageType type, SequenceNumber sequence,
                       MessagePayload payload);

  // Driver result routing (read replies and stream data).
  void OnProduced(ChannelId channel, const ProducedValue& value);
  void StreamTick(ChannelId channel, uint32_t generation);

  std::vector<AdvertisedPeripheral> ConnectedPeripherals() const;
  double Jitter(double nominal_ms);
  // Stamps `mark` with the current time when the latest plug flow is on
  // `channel`, and returns that flow's marks; null when it is elsewhere.
  PlugFlowMarks* MarkFlow(ChannelId channel, SimTime PlugFlowMarks::*mark);

  Scheduler& scheduler_;
  NetNode* node_;
  ThingConfig config_;
  Rng rng_;
  EventRouter router_;
  DriverManager driver_manager_;
  PeripheralController controller_;
  ProtoEndpoint endpoint_;

  std::array<Channel, ControlBoard::kNumChannels> channels_;
  // Keyed by device type: one transfer serves every channel of that type.
  std::map<DeviceTypeId, DriverTransfer> transfers_;
  std::optional<PlugFlowMarks> last_flow_;
  // Trickle state: 0 interval = dormant; the generation invalidates
  // scheduled ticks after a reset.
  double advert_interval_ms_ = 0.0;
  bool advert_suppressed_ = false;
  uint64_t advert_generation_ = 0;
  uint64_t advertisements_sent_ = 0;
  uint64_t readvertisements_sent_ = 0;
  uint64_t readvertisements_suppressed_ = 0;
  uint64_t reads_served_ = 0;
  uint64_t writes_served_ = 0;
  uint64_t driver_requests_failed_ = 0;
  uint64_t driver_request_retries_ = 0;
  uint64_t chunks_received_ = 0;
  uint64_t duplicate_chunks_ = 0;
  uint64_t chunk_nacks_sent_ = 0;
  uint64_t transfers_completed_ = 0;
};

}  // namespace micropnp

#endif  // SRC_PROTO_THING_H_
