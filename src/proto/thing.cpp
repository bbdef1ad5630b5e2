#include "src/proto/thing.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "src/common/crc.h"
#include "src/common/logging.h"
#include "src/model/device_model.h"

namespace micropnp {
namespace {

// CPU cost model of the embedded protocol operations (the Table 4
// calibration; milliseconds on the 16 MHz AVR).
constexpr double kGenerateAddressCpuMs = 2.58;  // Table 4 row 1
constexpr double kJoinGroupCpuMs = 5.43;        // Table 4 row 2 (MLD + RPL DAO)
constexpr double kRequestBuildCpuMs = 0.4;
constexpr double kInstallParseCpuMs = 6.0;      // image parse + CRC check
constexpr double kFlashWriteMsPerByte = 0.58;   // driver write to internal flash
constexpr double kFlashJitterFraction = 0.35;   // page-boundary/erase variance
constexpr double kInstallActivateCpuMs = 9.0;   // VM setup + init dispatch
constexpr double kAdvertBuildCpuMs = 18.0;      // TLV serialization on the AVR
constexpr double kReplyBuildCpuMs = 6.0;        // read/data response construction
constexpr double kCpuJitterFraction = 0.012;
// Driver request (4) transaction policy toward the Manager anycast
// address: bounded retransmit-with-backoff per attempt.
constexpr double kDriverRequestDeadlineMs = 15000.0;
constexpr int kDriverRequestRetransmits = 7;
constexpr double kDriverRequestBackoffMs = 400.0;
// Sub-doubling growth packs more attempts into the deadline: at 20% frame
// loss over multiple hops, attempt count dominates convergence.
constexpr double kDriverRequestBackoffMultiplier = 1.7;
// A failed (4) re-arms with capped exponential backoff — the link may
// heal — instead of giving up at once.  Bounded so a manager-less
// deployment still drains: a spent budget leaves the channel failed.
constexpr double kDriverRetryInitialMs = 2000.0;
constexpr double kDriverRetryMaxMs = 30000.0;
constexpr int kDriverRetryLimit = 100;
// Chunked transfer gap repair: after the offer arrives, a NACK timer with
// capped exponential backoff requests the missing chunks, up to a bounded
// budget per attempt (then the (4)-level retry takes over, resuming from
// the bitmap).
constexpr double kChunkNackDelayMs = 250.0;
constexpr double kChunkNackMaxDelayMs = 2000.0;
constexpr int kChunkNackBudget = 8;
// Trickle-style re-advertisement: the interval restarts at
// ThingConfig::readvertise_min_ms after any peripheral change, doubles to
// this, then goes dormant.
constexpr double kReadvertiseMaxMs = 64000.0;

}  // namespace

MicroPnpThing::MicroPnpThing(Scheduler& scheduler, NetNode* node, uint64_t seed,
                             DecodeCache& decode_cache, const ThingConfig& config)
    : scheduler_(scheduler),
      node_(node),
      config_(config),
      rng_(seed),
      driver_manager_(scheduler, router_, decode_cache),
      controller_(scheduler, rng_),
      endpoint_(scheduler, node,
                [this](const Ip6Address& src, const Ip6Address& dst, const Message& m) {
                  OnMessage(src, dst, m);
                }) {
  controller_.set_change_listener([this](ChannelId ch, DeviceTypeId id, bool connected) {
    OnPeripheralChange(ch, id, connected);
  });
}

double MicroPnpThing::Jitter(double nominal_ms) {
  return nominal_ms * (1.0 + kCpuJitterFraction * rng_.Uniform(-1.0, 1.0));
}

PlugFlowMarks* MicroPnpThing::MarkFlow(ChannelId channel, SimTime PlugFlowMarks::*mark) {
  if (!last_flow_.has_value() || last_flow_->channel != channel) {
    return nullptr;
  }
  (*last_flow_).*mark = scheduler_.now();
  return &*last_flow_;
}

Status MicroPnpThing::Plug(ChannelId channel, Peripheral* peripheral) {
  PlugFlowMarks marks;
  marks.channel = channel;
  marks.device = peripheral != nullptr ? peripheral->type_id() : 0;
  marks.plugged = scheduler_.now();
  MICROPNP_RETURN_IF_ERROR(controller_.Plug(channel, peripheral));
  last_flow_ = marks;
  return OkStatus();
}

Status MicroPnpThing::Unplug(ChannelId channel) { return controller_.Unplug(channel); }

Status MicroPnpThing::PreinstallDriver(const DriverImage& image) {
  return driver_manager_.InstallImage(image);
}

std::vector<AdvertisedPeripheral> MicroPnpThing::ConnectedPeripherals() const {
  std::vector<AdvertisedPeripheral> out;
  for (ChannelId ch = 0; ch < channels_.size(); ++ch) {
    const Channel& c = channels_[ch];
    if (c.phase == ChannelPhase::kEmpty) {
      continue;
    }
    AdvertisedPeripheral p;
    p.type = c.device;
    p.info.AddU8(TlvType::kChannel, ch);
    if (const Peripheral* peripheral = controller_.peripheral(ch)) {
      p.info.AddString(TlvType::kFriendlyName, peripheral->name());
      p.info.AddU8(TlvType::kBusKind, static_cast<uint8_t>(peripheral->bus()));
    }
    // Model facets from the installed driver's handled events, so a gateway
    // can type this peripheral without ever having seen its driver.
    const std::vector<EventId> events = driver_manager_.HandledEventsFor(c.device);
    if (!events.empty()) {
      p.info.AddU16(TlvType::kModelFacets, FacetsFromHandledEvents(events).Encode());
    }
    out.push_back(std::move(p));
  }
  return out;
}

// --------------------------------------------------------- plug-in flow ----

template <void (MicroPnpThing::*Step)(ChannelId)>
void MicroPnpThing::After(double delay_ms, ChannelId channel) {
  auto step = [this, channel, generation = channels_[channel].generation] {
    if (Current(channel, generation)) {
      (this->*Step)(channel);
    }
  };
  static_assert(sizeof(step) <= 16 && std::is_trivially_copyable_v<decltype(step)>);
  scheduler_.ScheduleAfter(SimTime::FromMillis(delay_ms), step);
}

void MicroPnpThing::OnPeripheralChange(ChannelId channel, DeviceTypeId id, bool connected) {
  Channel& c = channels_[channel];
  ++c.generation;  // every step scheduled for the old peripheral dies here
  c.retries = 0;
  ResetTrickle();  // any peripheral change restarts the re-advertisement ladder

  if (!connected) {
    if (c.streaming) {
      // Subscribers would otherwise wait until their deadlines:
      // disconnect-while-streaming notifies the group with (15).
      endpoint_.Send(c.stream_group, MessageType::kStreamClosed, 0, DeviceTargetPayload{id});
    }
    c.streaming = false;
    c.pending_reads.clear();
    // Nothing is pending or streaming, so destroy's return value goes nowhere.
    if (c.phase == ChannelPhase::kReady) {
      (void)driver_manager_.Deactivate(channel);
    }
    c.phase = ChannelPhase::kEmpty;
    // Leave the peripheral group only when no other channel still serves
    // this device type — otherwise the Thing goes deaf to discovery/read for
    // the remaining peripheral.
    if (ChannelFor(id) == kInvalidChannel) {
      node_->LeaveGroup(PeripheralGroup(node_->prefix(), id));
    }
    // Unsolicited advertisement reflecting the new peripheral set
    // (Section 5.2.1: generated on connect *or* disconnect).
    scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(kAdvertBuildCpuMs)),
                             [this] { SendUnsolicitedAdvertisement(); });
    return;
  }

  c.phase = ChannelPhase::kJoining;
  c.device = id;
  if (PlugFlowMarks* marks = MarkFlow(channel, &PlugFlowMarks::identified)) {
    marks->device = id;
  }
  // Step 1: derive the peripheral's multicast address (Table 4 row 1).
  After<&MicroPnpThing::OnAddressGenerated>(Jitter(kGenerateAddressCpuMs), channel);
}

void MicroPnpThing::OnAddressGenerated(ChannelId channel) {
  MarkFlow(channel, &PlugFlowMarks::address_generated);
  // Step 2: join the peripheral group (Table 4 row 2).
  After<&MicroPnpThing::JoinPeripheralGroup>(Jitter(kJoinGroupCpuMs), channel);
}

void MicroPnpThing::JoinPeripheralGroup(ChannelId channel) {
  node_->JoinGroup(PeripheralGroup(node_->prefix(), channels_[channel].device));
  MarkFlow(channel, &PlugFlowMarks::group_joined);
  EnsureDriver(channel);
}

void MicroPnpThing::EnsureDriver(ChannelId channel) {
  Channel& c = channels_[channel];
  if (c.phase != ChannelPhase::kJoining && c.phase != ChannelPhase::kAwaitingDriver) {
    return;  // the image reached the channel another way, or the channel gave up
  }
  if (driver_manager_.HasDriverFor(c.device)) {
    if (PlugFlowMarks* marks = MarkFlow(channel, &PlugFlowMarks::driver_received)) {
      marks->driver_was_cached = true;
      marks->driver_requested = marks->driver_received;
    }
    ActivateAndAdvertise(channel);
    return;
  }
  // Step 3: request the driver from the manager's anycast address (4).
  c.phase = ChannelPhase::kAwaitingDriver;
  After<&MicroPnpThing::SendDriverRequest>(Jitter(kRequestBuildCpuMs), channel);
}

void MicroPnpThing::SendDriverRequest(ChannelId channel) {
  const DeviceTypeId id = channels_[channel].device;
  MarkFlow(channel, &PlugFlowMarks::driver_requested);
  // The endpoint owns the transaction: the (18) offer comes from the
  // manager's unicast address, hence match_any_source, and lossy links are
  // covered by retransmit-with-backoff up to the deadline.
  RequestOptions options;
  options.deadline_ms = kDriverRequestDeadlineMs;
  options.max_retransmits = kDriverRequestRetransmits;
  options.initial_backoff_ms = kDriverRequestBackoffMs;
  options.backoff_multiplier = kDriverRequestBackoffMultiplier;
  options.match_any_source = true;
  // A reply for a different device (e.g. a stale manager-side cache entry)
  // must not consume this transaction — drop it and keep retransmitting.
  options.accept = [id](const Message& reply) {
    const auto* offer = reply.payload_as<DriverOfferPayload>();
    return offer != nullptr && offer->device_id == id;
  };
  // The (4) carries the resume state of any held partial (or full) image:
  // the manager streams only the gaps, or short-circuits to "already up to
  // date" with zero chunks.
  DriverRequestPayload request;
  request.device_id = id;
  auto held = transfers_.find(id);
  if (held != transfers_.end() && held->second.have_count > 0) {
    DriverTransfer& t = held->second;
    // Reaching here means no driver is installed for `id`, so even a
    // complete cached image needs (re-)installation once validated.
    t.install_started = false;
    request.cached_crc = t.crc;
    request.cached_chunk_count = t.chunk_count;
    request.have_bitmap.assign((t.chunk_count + 7u) / 8u, 0);
    for (uint16_t i = 0; i < t.chunk_count; ++i) {
      if (t.have[i]) {
        request.have_bitmap[i / 8u] |= static_cast<uint8_t>(1u << (i % 8u));
      }
    }
  }
  endpoint_.SendRequest(
      ManagerAnycastAddress(), MessageType::kDriverInstallRequest, std::move(request),
      {MessageType::kDriverUploadOffer},
      [this, channel, generation = channels_[channel].generation](Result<Message> reply) {
        if (Current(channel, generation)) {
          OnDriverRequestComplete(channel, std::move(reply));
        }
      },
      options);
}

void MicroPnpThing::OnDriverRequestComplete(ChannelId channel, Result<Message> reply) {
  if (!reply.ok()) {
    ++driver_requests_failed_;
    MLOG(kWarning, "thing") << "driver request for "
                            << FormatDeviceTypeId(channels_[channel].device)
                            << " failed: " << reply.status().ToString();
    // The manager (or the path to it) may heal: re-arm with capped
    // exponential backoff rather than giving up at once.  Any chunks that
    // did arrive are kept and resumed.
    ScheduleDriverRetry(channel);
    return;
  }
  // `accept` admitted only an (18) offer for the channel's device.
  ProcessOffer(channel, *reply->payload_as<DriverOfferPayload>());
}

void MicroPnpThing::ScheduleDriverRetry(ChannelId channel) {
  Channel& c = channels_[channel];
  if (c.retries >= kDriverRetryLimit) {
    MLOG(kWarning, "thing") << "driver retry budget exhausted for " << FormatDeviceTypeId(c.device);
    if (c.phase == ChannelPhase::kAwaitingDriver) {
      c.phase = ChannelPhase::kFailed;
    }
    return;
  }
  ++driver_request_retries_;
  const double delay_ms = std::min(std::ldexp(kDriverRetryInitialMs, c.retries), kDriverRetryMaxMs);
  ++c.retries;
  After<&MicroPnpThing::EnsureDriver>(Jitter(delay_ms), channel);
}

// --------------------------------------------- chunked driver transfer ----

void MicroPnpThing::ProcessOffer(ChannelId channel, const DriverOfferPayload& offer) {
  const DeviceTypeId id = offer.device_id;
  DriverTransfer& t = transfers_[id];
  if (t.crc != offer.image_crc || t.chunk_count != offer.chunk_count) {
    // First offer, or the repository image changed since our cache was
    // built: what we hold is useless, restart from scratch.
    ResetTransfer(t, offer.image_crc, offer.chunk_count);
  }
  const bool up_to_date = (offer.flags & kDriverOfferUpToDate) != 0;
  if (up_to_date && !t.complete) {
    // The manager judged us complete but we are not (cache lost between
    // the (4) and its answer): drop the claim and request again.
    transfers_.erase(id);
    ScheduleDriverRetry(channel);
    return;
  }
  if (t.complete) {
    // The image is already here: either our cached copy is current (up to
    // date, so zero chunks crossed the network for this re-plug), or all
    // chunks arrived and verified before the offer did (reordering).
    if (!t.install_started) {
      t.install_started = true;
      PlugFlowMarks* marks = MarkFlow(channel, &PlugFlowMarks::driver_received);
      if (marks != nullptr && up_to_date) {
        marks->driver_was_cached = true;
      }
      InstallReceivedDriver(id, AssembleTransfer(t));
    } else if (!driver_manager_.HasDriverFor(id)) {
      // The install is still in flight (flash write): retry later.  An
      // install that is done has activated every channel waiting for it.
      ScheduleDriverRetry(channel);
    }
    return;
  }
  // Chunks are streaming (or already lost): arm the gap-repair NACK timer
  // with a fresh budget for this attempt.
  t.nacks_sent = 0;
  t.nack_delay_ms = kChunkNackDelayMs;
  ArmNackTimer(id);
}

void MicroPnpThing::HandleDriverChunk(const Message& m) {
  const auto* chunk = m.payload_as<DriverChunkPayload>();
  ++chunks_received_;
  DriverTransfer& t = transfers_[chunk->device_id];
  if (t.crc != chunk->image_crc || t.chunk_count != chunk->chunk_count) {
    if (t.complete) {
      return;  // a stale chunk must not wipe the verified resume cache
    }
    // Latest image wins (the repository was replaced mid-transfer); an (18)
    // offer for the new CRC follows via the (4) machinery.
    ResetTransfer(t, chunk->image_crc, chunk->chunk_count);
  }
  if (t.have[chunk->chunk_index]) {
    ++duplicate_chunks_;
    return;
  }
  t.chunks[chunk->chunk_index] = chunk->data;
  t.have[chunk->chunk_index] = true;
  ++t.have_count;
  MaybeCompleteTransfer(chunk->device_id, t);
  // A chunk carries everything needed to detect gaps (CRC + chunk count),
  // so repair does not wait for the offer — at high loss the offer and the
  // chunk stream fail independently, and whichever arrives first drives
  // the transfer forward.
  if (!t.complete && !t.nack_armed) {
    ArmNackTimer(chunk->device_id);
  }
}

void MicroPnpThing::ResetTransfer(DriverTransfer& t, uint32_t crc, uint16_t chunk_count) {
  t.crc = crc;
  t.chunk_count = chunk_count;
  t.chunks.assign(chunk_count, {});
  t.have.assign(chunk_count, false);
  t.have_count = 0;
  t.complete = false;
  t.install_started = false;
  t.nack_armed = false;
  t.nacks_sent = 0;
  t.nack_delay_ms = kChunkNackDelayMs;
  ++t.generation;  // armed NACK timers for the old image die silently
}

void MicroPnpThing::MaybeCompleteTransfer(DeviceTypeId id, DriverTransfer& t) {
  if (t.complete || t.chunk_count == 0 || t.have_count != t.chunk_count) {
    return;
  }
  std::vector<uint8_t> image = AssembleTransfer(t);
  if (Crc32(ByteSpan(image.data(), image.size())) != t.crc) {
    MLOG(kWarning, "thing") << "assembled driver image failed CRC; restarting transfer";
    ResetTransfer(t, 0, 0);
    if (const ChannelId channel = ChannelFor(id); channel != kInvalidChannel) {
      ScheduleDriverRetry(channel);
    }
    return;
  }
  t.complete = true;
  t.nack_armed = false;
  ++t.generation;  // cancels any armed NACK tick
  ++transfers_completed_;
  // With the peripheral gone, the verified cache waits for the next plug.
  const ChannelId channel = ChannelFor(id);
  if (channel != kInvalidChannel && !t.install_started) {
    t.install_started = true;
    MarkFlow(channel, &PlugFlowMarks::driver_received);
    InstallReceivedDriver(id, std::move(image));
  }
}

ChannelId MicroPnpThing::ChannelFor(DeviceTypeId id, bool with_driver) const {
  for (ChannelId ch = 0; ch < channels_.size(); ++ch) {
    const Channel& c = channels_[ch];
    if (c.phase != ChannelPhase::kEmpty && c.device == id &&
        (!with_driver || c.phase == ChannelPhase::kReady)) {
      return ch;
    }
  }
  return kInvalidChannel;
}

std::vector<uint8_t> MicroPnpThing::AssembleTransfer(const DriverTransfer& t) const {
  size_t total = 0;
  for (const std::vector<uint8_t>& c : t.chunks) {
    total += c.size();
  }
  std::vector<uint8_t> image;
  image.reserve(total);
  for (const std::vector<uint8_t>& c : t.chunks) {
    image.insert(image.end(), c.begin(), c.end());
  }
  return image;
}

void MicroPnpThing::ArmNackTimer(DeviceTypeId id) {
  DriverTransfer& t = transfers_[id];
  if (t.complete || t.nack_armed) {
    return;
  }
  t.nack_armed = true;
  const uint32_t generation = t.generation;
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(t.nack_delay_ms)),
                           [this, id, generation] { NackTick(id, generation); });
}

void MicroPnpThing::NackTick(DeviceTypeId id, uint32_t generation) {
  auto it = transfers_.find(id);
  if (it == transfers_.end() || it->second.generation != generation || it->second.complete) {
    return;
  }
  DriverTransfer& t = it->second;
  t.nack_armed = false;
  if (t.nacks_sent >= kChunkNackBudget) {
    // Gap repair exhausted its budget; fall back to a fresh (4), which
    // resumes from the bitmap under the capped-backoff retry policy.
    if (const ChannelId channel = ChannelFor(id); channel != kInvalidChannel) {
      ScheduleDriverRetry(channel);
    }
    return;
  }
  // (20) selective-repeat: ask only for the gaps (bounded by the payload's
  // 255-index clamp; a following NACK collects the remainder).
  DriverChunkRequestPayload nack;
  nack.device_id = id;
  nack.image_crc = t.crc;
  for (uint16_t i = 0; i < t.chunk_count && nack.chunk_indices.size() < 255; ++i) {
    if (!t.have[i]) {
      nack.chunk_indices.push_back(i);
    }
  }
  if (nack.chunk_indices.empty()) {
    return;  // nothing missing; the completion path owns the rest
  }
  ++t.nacks_sent;
  ++chunk_nacks_sent_;
  endpoint_.SendOneWay(ManagerAnycastAddress(), MessageType::kDriverChunkRequest,
                       std::move(nack));
  t.nack_delay_ms = std::min(t.nack_delay_ms * 2.0, kChunkNackMaxDelayMs);
  ArmNackTimer(id);
}

// ----------------------------------------------------- install/advertise ----

void MicroPnpThing::InstallReceivedDriver(DeviceTypeId id, std::vector<uint8_t> image_bytes) {
  // Step 4: parse, CRC-check and flash the image (Table 4 row 4).  Flash
  // writes carry high variance (page boundaries, erase cycles), which is
  // what drives Table 4's large install stddev.
  const double flash_ms = kFlashWriteMsPerByte *
                          static_cast<double>(image_bytes.size()) *
                          (1.0 + kFlashJitterFraction * rng_.Uniform(-1.0, 1.0));
  const double install_ms = Jitter(kInstallParseCpuMs) + flash_ms;
  scheduler_.ScheduleAfter(
      SimTime::FromMillis(install_ms), [this, id, image_bytes = std::move(image_bytes)] {
        Result<DriverImage> image = DriverImage::Parse(ByteSpan(image_bytes.data(), image_bytes.size()));
        Status installed = image.status();
        if (installed.ok()) {
          installed = image->device_id == id ? driver_manager_.InstallImage(*image)
                                             : InvalidArgument("driver image device mismatch");
        }
        if (!installed.ok()) {
          MLOG(kWarning, "thing") << "driver install failed: " << installed.ToString();
        }
        // Every channel waiting on this image moves on, a failed one too: two
        // same-type peripherals plugged concurrently share one transfer, and
        // only one channel's flow carried the install.
        for (ChannelId ch = 0; ch < channels_.size(); ++ch) {
          Channel& c = channels_[ch];
          if (c.device != id || (c.phase != ChannelPhase::kJoining &&
                                 c.phase != ChannelPhase::kAwaitingDriver &&
                                 c.phase != ChannelPhase::kFailed)) {
            continue;
          }
          if (installed.ok()) {
            ActivateAndAdvertise(ch);
          } else if (c.phase == ChannelPhase::kAwaitingDriver) {
            c.phase = ChannelPhase::kFailed;
          }
        }
      });
}

void MicroPnpThing::ActivateAndAdvertise(ChannelId channel) {
  channels_[channel].phase = ChannelPhase::kActivating;
  After<&MicroPnpThing::ActivateDriver>(Jitter(kInstallActivateCpuMs), channel);
}

void MicroPnpThing::ActivateDriver(ChannelId channel) {
  Channel& c = channels_[channel];
  Status activated = driver_manager_.Activate(channel, c.device, controller_.bus(channel));
  if (!activated.ok()) {
    MLOG(kWarning, "thing") << "driver activation failed: " << activated.ToString();
    c.phase = ChannelPhase::kFailed;
    return;
  }
  c.phase = ChannelPhase::kReady;
  driver_manager_.HostForChannel(channel)->set_result_handler(
      [this, channel](const ProducedValue& v) { OnProduced(channel, v); });
  MarkFlow(channel, &PlugFlowMarks::driver_installed);
  // Step 5: unsolicited advertisement to all μPnP clients (Table 4 row 5,
  // message (1) of Figure 10).
  After<&MicroPnpThing::AdvertiseDriver>(Jitter(kAdvertBuildCpuMs), channel);
}

void MicroPnpThing::AdvertiseDriver(ChannelId channel) {
  SendUnsolicitedAdvertisement();
  MarkFlow(channel, &PlugFlowMarks::advertised);
}

void MicroPnpThing::SendUnsolicitedAdvertisement() {
  endpoint_.SendOneWay(AllClientsGroup(node_->prefix()), MessageType::kUnsolicitedAdvertisement,
                       AdvertisementPayload{ConnectedPeripherals()});
  ++advertisements_sent_;
}

void MicroPnpThing::SendSolicitedAdvertisement(const Ip6Address& client, SequenceNumber seq) {
  // (3) echoes the discovery's sequence so the client's gather matches it.
  endpoint_.Send(client, MessageType::kSolicitedAdvertisement, seq,
                 AdvertisementPayload{ConnectedPeripherals()});
  ++advertisements_sent_;
  // The neighbourhood just heard our inventory: suppress the next trickle
  // tick (the interval keeps doubling regardless).
  advert_suppressed_ = true;
}

// -------------------------------------------------- trickle re-advertise ----

void MicroPnpThing::ResetTrickle() {
  if (config_.readvertise_min_ms <= 0.0) {
    return;  // re-advertisement disabled
  }
  advert_interval_ms_ = config_.readvertise_min_ms;
  advert_suppressed_ = false;
  const uint64_t generation = ++advert_generation_;
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(advert_interval_ms_)),
                           [this, generation] { TrickleTick(generation); });
}

void MicroPnpThing::TrickleTick(uint64_t generation) {
  if (generation != advert_generation_) {
    return;  // the ladder restarted after this tick was scheduled
  }
  if (advert_suppressed_) {
    advert_suppressed_ = false;
    ++readvertisements_suppressed_;
  } else {
    SendUnsolicitedAdvertisement();
    ++readvertisements_sent_;
  }
  if (advert_interval_ms_ >= kReadvertiseMaxMs) {
    return;  // ladder complete: dormant until the next peripheral change
  }
  advert_interval_ms_ = std::min(advert_interval_ms_ * 2.0, kReadvertiseMaxMs);
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(advert_interval_ms_)),
                           [this, generation] { TrickleTick(generation); });
}

// ------------------------------------------------------ message handling ----

void MicroPnpThing::OnMessage(const Ip6Address& src, const Ip6Address& dst, const Message& m) {
  switch (m.type) {
    case MessageType::kPeripheralDiscovery:
      HandleDiscovery(src, m, dst);
      break;
    case MessageType::kRead:
      HandleRead(src, m);
      break;
    case MessageType::kStream:
      HandleStream(src, m);
      break;
    case MessageType::kWrite:
      HandleWrite(src, m);
      break;
    case MessageType::kDriverDiscovery:
      HandleDriverDiscovery(src, m);
      break;
    case MessageType::kDriverRemovalRequest:
      HandleDriverRemoval(src, m);
      break;
    case MessageType::kDriverChunk:
      HandleDriverChunk(m);
      break;
    default:
      break;  // not addressed to Things
  }
}

void MicroPnpThing::HandleDiscovery(const Ip6Address& src, const Message& m,
                                    const Ip6Address& group) {
  // The destination group names the wanted peripheral type (Section 5.2.1).
  std::optional<DeviceTypeId> wanted = GroupPeripheral(group);
  if (!wanted.has_value()) {
    return;
  }
  if (*wanted != kDeviceTypeAllPeripherals && ChannelFor(*wanted) == kInvalidChannel) {
    return;
  }
  // (3) solicited advertisement, unicast back to the discovering client.
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(kAdvertBuildCpuMs)),
                           [this, src, seq = m.sequence] {
                             SendSolicitedAdvertisement(src, seq);
                           });
}

void MicroPnpThing::HandleRead(const Ip6Address& src, const Message& m) {
  const ChannelId ch = ChannelFor(m.payload_as<DeviceTargetPayload>()->device_id,
                                 /*with_driver=*/true);
  if (ch == kInvalidChannel) {
    // No such peripheral: the paper defines no negative response; we simply
    // stay silent, as a real Thing would, and the client's deadline fires.
    return;
  }
  // A full router queue drops the event; queuing the read anyway would hand
  // the next value the driver produces to this orphan.  Stay silent instead:
  // the client's retransmit or deadline takes over.
  if (router_.Post(ch, Event::Of(kEventRead))) {
    channels_[ch].pending_reads.push_back(PendingRead{src, m.sequence});
  }
}

void MicroPnpThing::OnProduced(ChannelId channel, const ProducedValue& value) {
  Channel& c = channels_[channel];
  WireValue wire;
  wire.is_array = value.is_array;
  wire.scalar = value.scalar;
  wire.bytes = value.bytes;

  std::vector<PendingRead>& queue = c.pending_reads;
  if (!queue.empty()) {
    const PendingRead pending = queue.front();
    queue.erase(queue.begin());
    ++reads_served_;
    // (11) echoes the read's sequence.
    ReplyAfterBuild(pending.client, MessageType::kData, pending.sequence,
                    ValuePayload{c.device, std::move(wire)});
    return;
  }
  if (c.streaming) {
    scheduler_.ScheduleAfter(
        SimTime::FromMillis(Jitter(kReplyBuildCpuMs)),
        [this, group = c.stream_group, id = c.device, wire] {
          endpoint_.SendOneWay(group, MessageType::kStreamData, ValuePayload{id, wire});
        });
  }
}

void MicroPnpThing::HandleStream(const Ip6Address& src, const Message& m) {
  const auto* request = m.payload_as<StreamRequestPayload>();
  if (request->period_ms == 0) {
    // Stream shutdown.  Stop is idempotent: a client whose first (15) was
    // lost retransmits the (12), and an unanswered retransmit would stall
    // it until its deadline — so a reply is always produced, active stream
    // or not.
    for (Channel& c : channels_) {
      if (c.device == request->device_id && c.streaming) {  // only a ready channel streams
        c.streaming = false;
        // (15) to the group: every subscriber learns the stream is gone.
        endpoint_.Send(c.stream_group, MessageType::kStreamClosed, m.sequence,
                       DeviceTargetPayload{request->device_id});
      }
    }
    // Direct reply to the requester (it may no longer — or never — be a
    // group member); its endpoint drops the group copy as a duplicate.
    endpoint_.Send(src, MessageType::kStreamClosed, m.sequence,
                   DeviceTargetPayload{request->device_id});
    return;
  }
  const ChannelId ch = ChannelFor(request->device_id, /*with_driver=*/true);
  if (ch == kInvalidChannel) {
    return;
  }
  Channel& c = channels_[ch];
  c.streaming = true;
  c.stream_period_ms = request->period_ms;
  c.stream_group = StreamGroup(node_->address(), request->device_id);
  const uint32_t generation = ++c.stream_generation;
  // (13) established: tell the client which group carries the values.
  endpoint_.Send(src, MessageType::kStreamEstablished, m.sequence,
                 StreamEstablishedPayload{request->device_id, c.stream_group});
  // Periodic reads drive (14) data messages.
  scheduler_.ScheduleAfter(SimTime::FromMillis(c.stream_period_ms),
                           [this, ch, generation] { StreamTick(ch, generation); });
}

void MicroPnpThing::StreamTick(ChannelId channel, uint32_t generation) {
  const Channel& c = channels_[channel];
  if (!c.streaming || c.stream_generation != generation) {
    return;
  }
  router_.Post(channel, Event::Of(kEventRead));
  scheduler_.ScheduleAfter(SimTime::FromMillis(c.stream_period_ms),
                           [this, channel, generation] { StreamTick(channel, generation); });
}

void MicroPnpThing::HandleWrite(const Ip6Address& src, const Message& m) {
  const auto* write = m.payload_as<WritePayload>();
  uint8_t status = 1;  // not found
  const ChannelId ch = ChannelFor(write->device_id, /*with_driver=*/true);
  if (ch != kInvalidChannel) {
    if (!router_.Post(ch, Event::Of(kEventWrite, write->value))) {
      return;  // router queue full: the value was not applied, so no (17)
    }
    ++writes_served_;
    status = 0;
  }
  // (17) acknowledgement confirming the establishment of the new value.
  ReplyAfterBuild(src, MessageType::kWriteAck, m.sequence,
                  StatusAckPayload{write->device_id, status});
}

void MicroPnpThing::HandleDriverDiscovery(const Ip6Address& src, const Message& m) {
  ReplyAfterBuild(src, MessageType::kDriverAdvertisement, m.sequence,
                  DriverAdvertisementPayload{driver_manager_.InstalledDrivers()});
}

void MicroPnpThing::HandleDriverRemoval(const Ip6Address& src, const Message& m) {
  const auto* target = m.payload_as<DeviceTargetPayload>();
  Status removed = driver_manager_.RemoveImage(target->device_id);
  ReplyAfterBuild(src, MessageType::kDriverRemovalAck, m.sequence,
                  StatusAckPayload{target->device_id, static_cast<uint8_t>(removed.ok() ? 0 : 1)});
}

void MicroPnpThing::ReplyAfterBuild(const Ip6Address& peer, MessageType type,
                                    SequenceNumber sequence, MessagePayload payload) {
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(kReplyBuildCpuMs)),
                           [this, peer, type, sequence, payload = std::move(payload)]() mutable {
                             endpoint_.Send(peer, type, sequence, std::move(payload));
                           });
}

}  // namespace micropnp
