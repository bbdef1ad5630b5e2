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
//    doubles up to readvertise_max_ms, whose tick is the last.  A solicited
//    advertisement (3) suppresses the next tick.  Clients that missed the
//    one-shot (1) converge without flooding the fabric.
//  - The driver request (4) is a ProtoEndpoint transaction toward the
//    Manager anycast address carrying the resume state of any held partial
//    image.  It is answered by an (18) upload offer followed by (19) chunks
//    sized to single 6LoWPAN fragments; the Thing NACKs gaps with (20)
//    selective-repeat requests, and assembles + CRC-verifies the image.  A
//    failed request re-arms with capped exponential backoff instead of
//    giving up, and a re-plug resumes from the held chunk bitmap.

#ifndef SRC_PROTO_THING_H_
#define SRC_PROTO_THING_H_

#include <cstdint>
#include <deque>
#include <map>

#include "src/net/fabric.h"
#include "src/proto/endpoint.h"
#include "src/proto/messages.h"
#include "src/rt/driver_manager.h"
#include "src/rt/peripheral_controller.h"

namespace micropnp {

// CPU cost model of the embedded protocol operations (calibration knobs for
// the Table 4 reproduction; milliseconds on the 16 MHz AVR).
struct ThingConfig {
  double generate_address_cpu_ms = 2.58;   // Table 4 row 1
  double join_group_cpu_ms = 5.43;         // Table 4 row 2 (MLD + RPL DAO)
  double request_build_cpu_ms = 0.4;
  double install_parse_cpu_ms = 6.0;       // image parse + CRC check
  double flash_write_ms_per_byte = 0.58;   // driver write to internal flash
  double flash_jitter_fraction = 0.35;     // page-boundary/erase variance
  double install_activate_cpu_ms = 9.0;    // VM setup + init dispatch
  double advert_build_cpu_ms = 18.0;       // TLV serialization on the AVR
  double reply_build_cpu_ms = 6.0;         // read/data response construction
  double cpu_jitter_fraction = 0.012;
  // Driver request (4) transaction policy toward the Manager anycast
  // address: bounded retransmit-with-backoff per attempt.
  double driver_request_deadline_ms = 15000.0;
  int driver_request_retransmits = 7;
  double driver_request_backoff_ms = 400.0;
  // Sub-doubling growth packs more attempts into the deadline: at 20% frame
  // loss over multiple hops, attempt count dominates convergence.
  double driver_request_backoff_multiplier = 1.7;
  // A failed (4) re-arms with capped exponential backoff — the link may
  // heal — instead of leaving the channel identified-but-driverless
  // forever.  Bounded so a manager-less deployment still drains.
  double driver_retry_initial_ms = 2000.0;
  double driver_retry_max_ms = 30000.0;
  int driver_retry_limit = 100;
  // Chunked transfer gap repair: after the offer arrives, a NACK timer with
  // capped exponential backoff requests the missing chunks, up to a bounded
  // budget per attempt (then the (4)-level retry takes over, resuming from
  // the bitmap).
  double chunk_nack_delay_ms = 250.0;
  double chunk_nack_max_delay_ms = 2000.0;
  int chunk_nack_budget = 8;
  // Trickle-style re-advertisement: interval restarts at min after any
  // peripheral change, doubles to max, then goes dormant.  min <= 0
  // disables the schedule (benchmarks that only measure the read path).
  double readvertise_min_ms = 1000.0;
  double readvertise_max_ms = 64000.0;
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
  // `decode_cache` (optional) shares verified decoded driver images with
  // other Things (see DecodeCache); it must outlive the Thing.
  MicroPnpThing(Scheduler& scheduler, NetNode* node, const ControlBoardConfig& board_config,
                uint64_t seed, const ThingConfig& config = ThingConfig{},
                DecodeCache* decode_cache = nullptr);

  // --- local hardware access ------------------------------------------------
  Status Plug(ChannelId channel, Peripheral* peripheral);
  Status Unplug(ChannelId channel);
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
  struct StreamState {
    bool active = false;
    uint32_t period_ms = 0;
    Ip6Address group;
    uint64_t generation = 0;
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
    ChannelId channel = kInvalidChannel;  // most recent requesting channel
    bool offer_seen = false;
    bool complete = false;  // all chunks held and CRC verified
    bool install_started = false;
    bool nack_armed = false;
    int nacks_sent = 0;
    double nack_delay_ms = 0.0;
    uint64_t generation = 0;  // bump invalidates armed NACK timers
  };
  // Per-channel plug-flow bookkeeping: the generation invalidates stale
  // request completions and scheduled retries across unplug/re-plug; the
  // retry backoff resets on every (re-)plug.
  struct FlowState {
    uint64_t generation = 0;
    double retry_delay_ms = 0.0;
    int retries = 0;
  };

  // Plug-in network flow (Figure 10/11), chained on the scheduler.
  void OnPeripheralChange(ChannelId channel, DeviceTypeId id, bool connected);
  void ContinueFlowJoinGroup(ChannelId channel, DeviceTypeId id);
  void ContinueFlowEnsureDriver(ChannelId channel, DeviceTypeId id);
  void OnDriverRequestComplete(ChannelId channel, DeviceTypeId id, uint64_t flow_generation,
                               Result<Message> reply);
  void ScheduleDriverRetry(ChannelId channel, DeviceTypeId id);
  void InstallReceivedDriver(ChannelId channel, DeviceTypeId id, std::vector<uint8_t> image);
  void ActivateAndAdvertise(ChannelId channel, DeviceTypeId id);
  void SendUnsolicitedAdvertisement();
  void SendSolicitedAdvertisement(const Ip6Address& client, SequenceNumber seq);

  // Chunked driver transfer (18)/(19)/(20).
  void ProcessOffer(ChannelId channel, DeviceTypeId id, const DriverOfferPayload& offer);
  void HandleDriverChunk(const Message& m);
  void ResetTransfer(DriverTransfer& t, uint32_t crc, uint16_t chunk_count);
  void MaybeCompleteTransfer(DeviceTypeId id, DriverTransfer& t);
  ChannelId ChannelFor(DeviceTypeId id);
  std::vector<uint8_t> AssembleTransfer(const DriverTransfer& t) const;
  void ArmNackTimer(DeviceTypeId id);
  void NackTick(DeviceTypeId id, uint64_t generation);

  // Trickle re-advertisement.
  void ResetTrickle();
  void TrickleTick(uint64_t generation);

  // Message handling.
  void OnDatagram(const Ip6Address& src, const Ip6Address& dst, uint16_t port,
                  const std::vector<uint8_t>& payload);
  void HandleDiscovery(const Ip6Address& src, const Message& m, const Ip6Address& group);
  void HandleRead(const Ip6Address& src, const Message& m);
  void HandleStream(const Ip6Address& src, const Message& m);
  void HandleWrite(const Ip6Address& src, const Message& m);
  void HandleDriverDiscovery(const Ip6Address& src, const Message& m);
  void HandleDriverRemoval(const Ip6Address& src, const Message& m);

  // Driver result routing (read replies and stream data).
  void OnProduced(ChannelId channel, const ProducedValue& value);
  void StreamTick(ChannelId channel, uint64_t generation);

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

  std::map<ChannelId, std::deque<PendingRead>> pending_reads_;
  std::map<ChannelId, StreamState> streams_;
  std::map<ChannelId, FlowState> flows_;
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
