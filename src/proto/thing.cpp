#include "src/proto/thing.h"

#include <algorithm>

#include "src/common/crc.h"
#include "src/common/logging.h"
#include "src/model/device_model.h"

namespace micropnp {

MicroPnpThing::MicroPnpThing(Scheduler& scheduler, NetNode* node,
                             const ControlBoardConfig& board_config, uint64_t seed,
                             const ThingConfig& config, DecodeCache* decode_cache)
    : scheduler_(scheduler),
      node_(node),
      config_(config),
      rng_(seed),
      driver_manager_(scheduler, router_, decode_cache),
      controller_(scheduler, board_config, rng_),
      endpoint_(scheduler, node) {
  controller_.set_change_listener([this](ChannelId ch, DeviceTypeId id, bool connected) {
    OnPeripheralChange(ch, id, connected);
  });
  node_->BindUdp(kMicroPnpUdpPort,
                 [this](const Ip6Address& src, const Ip6Address& dst, uint16_t port,
                        const std::vector<uint8_t>& payload) { OnDatagram(src, dst, port, payload); });
}

double MicroPnpThing::Jitter(double nominal_ms) {
  return nominal_ms * (1.0 + config_.cpu_jitter_fraction * rng_.Uniform(-1.0, 1.0));
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
  auto& self = const_cast<MicroPnpThing&>(*this);
  for (ChannelId ch = 0; ch < self.controller_.num_channels(); ++ch) {
    std::optional<DeviceTypeId> id = self.controller_.identified(ch);
    if (!id.has_value()) {
      continue;
    }
    AdvertisedPeripheral p;
    p.type = *id;
    p.info.AddU8(TlvType::kChannel, ch);
    Peripheral* peripheral = self.controller_.peripheral(ch);
    if (peripheral != nullptr) {
      p.info.AddString(TlvType::kFriendlyName, peripheral->name());
      p.info.AddU8(TlvType::kBusKind, static_cast<uint8_t>(peripheral->bus()));
    }
    // Model facets from the installed driver's handled events, so a gateway
    // can type this peripheral without ever having seen its driver.
    const std::vector<EventId> events = self.driver_manager_.HandledEventsFor(*id);
    if (!events.empty()) {
      p.info.AddU16(TlvType::kModelFacets, FacetsFromHandledEvents(events).Encode());
    }
    out.push_back(std::move(p));
  }
  return out;
}

// --------------------------------------------------------- plug-in flow ----

void MicroPnpThing::OnPeripheralChange(ChannelId channel, DeviceTypeId id, bool connected) {
  FlowState& flow = flows_[channel];
  ++flow.generation;  // stale request completions and retries die here
  flow.retry_delay_ms = 0.0;
  flow.retries = 0;
  ResetTrickle();  // any peripheral change restarts the re-advertisement ladder

  if (!connected) {
    StreamState& stream = streams_[channel];
    if (stream.active) {
      // Subscribers would otherwise wait until their deadlines:
      // disconnect-while-streaming notifies the group with (15).
      Message closed = MakeDeviceMessage(MessageType::kStreamClosed, 0, id);
      node_->SendUdp(stream.group, kMicroPnpUdpPort, closed.Serialize());
    }
    stream.active = false;
    stream.generation++;
    pending_reads_[channel].clear();
    if (driver_manager_.HostForChannel(channel) != nullptr) {
      (void)driver_manager_.Deactivate(channel);
    }
    // Leave the peripheral group only when no other connected channel still
    // serves this device type — otherwise the Thing goes deaf to
    // discovery/read for the remaining peripheral.
    bool type_still_served = false;
    for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
      if (ch != channel && controller_.identified(ch) == id) {
        type_still_served = true;
        break;
      }
    }
    if (!type_still_served) {
      node_->LeaveGroup(PeripheralGroup(node_->prefix(), id));
    }
    // Unsolicited advertisement reflecting the new peripheral set
    // (Section 5.2.1: generated on connect *or* disconnect).
    scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(config_.advert_build_cpu_ms)),
                             [this] { SendUnsolicitedAdvertisement(); });
    return;
  }

  if (PlugFlowMarks* marks = MarkFlow(channel, &PlugFlowMarks::identified)) {
    marks->device = id;
  }
  // Step 1: derive the peripheral's multicast address (Table 4 row 1).
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(config_.generate_address_cpu_ms)),
                           [this, channel, id] {
                             MarkFlow(channel, &PlugFlowMarks::address_generated);
                             ContinueFlowJoinGroup(channel, id);
                           });
}

void MicroPnpThing::ContinueFlowJoinGroup(ChannelId channel, DeviceTypeId id) {
  // Step 2: join the peripheral group (Table 4 row 2).
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(config_.join_group_cpu_ms)),
                           [this, channel, id] {
                             node_->JoinGroup(PeripheralGroup(node_->prefix(), id));
                             MarkFlow(channel, &PlugFlowMarks::group_joined);
                             ContinueFlowEnsureDriver(channel, id);
                           });
}

void MicroPnpThing::ContinueFlowEnsureDriver(ChannelId channel, DeviceTypeId id) {
  if (driver_manager_.HasDriverFor(id)) {
    if (driver_manager_.HostForChannel(channel) != nullptr) {
      return;  // a late (4) retry landed after the channel was fully plumbed
    }
    if (PlugFlowMarks* marks = MarkFlow(channel, &PlugFlowMarks::driver_received)) {
      marks->driver_was_cached = true;
      marks->driver_requested = marks->driver_received;
    }
    ActivateAndAdvertise(channel, id);
    return;
  }
  // Step 3: request the driver from the manager's anycast address (4).  The
  // endpoint owns the transaction: the (18) offer comes from the manager's
  // unicast address, hence match_any_source, and lossy links are covered by
  // retransmit-with-backoff up to the deadline.
  scheduler_.ScheduleAfter(
      SimTime::FromMillis(Jitter(config_.request_build_cpu_ms)), [this, channel, id] {
        if (controller_.identified(channel) != id) {
          return;  // unplugged while the request was being built
        }
        MarkFlow(channel, &PlugFlowMarks::driver_requested);
        RequestOptions options;
        options.deadline_ms = config_.driver_request_deadline_ms;
        options.max_retransmits = config_.driver_request_retransmits;
        options.initial_backoff_ms = config_.driver_request_backoff_ms;
        options.backoff_multiplier = config_.driver_request_backoff_multiplier;
        options.match_any_source = true;
        // A reply for a different device (e.g. a stale manager-side cache
        // entry) must not consume this transaction — drop it and keep
        // retransmitting.
        options.accept = [id](const Message& reply) {
          const auto* offer = reply.payload_as<DriverOfferPayload>();
          return offer != nullptr && offer->device_id == id;
        };
        // The (4) carries the resume state of any held partial (or full)
        // image: the manager streams only the gaps, or short-circuits to
        // "already up to date" with zero chunks.
        DriverRequestPayload request;
        request.device_id = id;
        auto held = transfers_.find(id);
        if (held != transfers_.end() && held->second.have_count > 0) {
          DriverTransfer& t = held->second;
          t.channel = channel;
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
        const uint64_t flow_generation = flows_[channel].generation;
        endpoint_.SendRequest(
            ManagerAnycastAddress(), MessageType::kDriverInstallRequest, std::move(request),
            {MessageType::kDriverUploadOffer},
            [this, channel, id, flow_generation](Result<Message> reply) {
              OnDriverRequestComplete(channel, id, flow_generation, std::move(reply));
            },
            options);
      });
}

void MicroPnpThing::OnDriverRequestComplete(ChannelId channel, DeviceTypeId id,
                                            uint64_t flow_generation, Result<Message> reply) {
  if (flows_[channel].generation != flow_generation) {
    return;  // the channel was unplugged (or re-plugged) since this (4) went out
  }
  if (!reply.ok()) {
    ++driver_requests_failed_;
    MLOG(kWarning, "thing") << "driver request for " << FormatDeviceTypeId(id)
                            << " failed: " << reply.status().ToString();
    // The manager (or the path to it) may heal: re-arm with capped
    // exponential backoff rather than staying identified-but-driverless
    // forever.  Any chunks that did arrive are kept and resumed.
    ScheduleDriverRetry(channel, id);
    return;
  }
  // `accept` admitted only an (18) offer for `id`.
  ProcessOffer(channel, id, *reply->payload_as<DriverOfferPayload>());
}

void MicroPnpThing::ScheduleDriverRetry(ChannelId channel, DeviceTypeId id) {
  FlowState& flow = flows_[channel];
  if (flow.retries >= config_.driver_retry_limit) {
    MLOG(kWarning, "thing") << "driver retry budget exhausted for " << FormatDeviceTypeId(id);
    return;
  }
  ++flow.retries;
  ++driver_request_retries_;
  flow.retry_delay_ms = flow.retry_delay_ms <= 0.0
                            ? config_.driver_retry_initial_ms
                            : std::min(flow.retry_delay_ms * 2.0, config_.driver_retry_max_ms);
  const uint64_t flow_generation = flow.generation;
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(flow.retry_delay_ms)),
                           [this, channel, id, flow_generation] {
                             if (flows_[channel].generation != flow_generation ||
                                 controller_.identified(channel) != id) {
                               return;
                             }
                             ContinueFlowEnsureDriver(channel, id);
                           });
}

// --------------------------------------------- chunked driver transfer ----

void MicroPnpThing::ProcessOffer(ChannelId channel, DeviceTypeId id,
                                 const DriverOfferPayload& offer) {
  DriverTransfer& t = transfers_[id];
  if (t.crc != offer.image_crc || t.chunk_count != offer.chunk_count) {
    // First offer, or the repository image changed since our cache was
    // built: what we hold is useless, restart from scratch.
    ResetTransfer(t, offer.image_crc, offer.chunk_count);
  }
  t.channel = channel;
  t.offer_seen = true;
  const bool up_to_date = (offer.flags & kDriverOfferUpToDate) != 0;
  if (up_to_date && !t.complete) {
    // The manager judged us complete but we are not (cache lost between
    // the (4) and its answer): drop the claim and request again.
    transfers_.erase(id);
    ScheduleDriverRetry(channel, id);
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
      InstallReceivedDriver(channel, id, AssembleTransfer(t));
    } else if (driver_manager_.HasDriverFor(id)) {
      // Another channel's flow already installed this image (two
      // same-type peripherals plugged concurrently): this channel only
      // needs activation.
      if (driver_manager_.HostForChannel(channel) == nullptr) {
        ActivateAndAdvertise(channel, id);
      }
    } else {
      // The install is still in flight (flash write): retry later; by
      // then the cached-driver fast path activates this channel.
      ScheduleDriverRetry(channel, id);
    }
    return;
  }
  // Chunks are streaming (or already lost): arm the gap-repair NACK timer
  // with a fresh budget for this attempt.
  t.nacks_sent = 0;
  t.nack_delay_ms = config_.chunk_nack_delay_ms;
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
  t.offer_seen = false;
  t.complete = false;
  t.install_started = false;
  t.nack_armed = false;
  t.nacks_sent = 0;
  t.nack_delay_ms = config_.chunk_nack_delay_ms;
  ++t.generation;  // armed NACK timers for the old image die silently
}

void MicroPnpThing::MaybeCompleteTransfer(DeviceTypeId id, DriverTransfer& t) {
  if (t.complete || t.chunk_count == 0 || t.have_count != t.chunk_count) {
    return;
  }
  std::vector<uint8_t> image = AssembleTransfer(t);
  if (Crc32(ByteSpan(image.data(), image.size())) != t.crc) {
    MLOG(kWarning, "thing") << "assembled driver image failed CRC; restarting transfer";
    const ChannelId channel = t.channel;
    ResetTransfer(t, 0, 0);
    if (channel != kInvalidChannel && controller_.identified(channel).has_value()) {
      ScheduleDriverRetry(channel, *controller_.identified(channel));
    }
    return;
  }
  t.complete = true;
  t.nack_armed = false;
  ++t.generation;  // cancels any armed NACK tick
  ++transfers_completed_;
  // A transfer created by chunks alone (the offer never arrived) has no
  // channel binding yet: find the channel serving this device type.
  if (t.channel == kInvalidChannel || controller_.identified(t.channel) != id) {
    t.channel = ChannelFor(id);
  }
  if (t.channel == kInvalidChannel) {
    return;  // peripheral gone; the verified cache waits for the next plug
  }
  if (!t.install_started) {
    t.install_started = true;
    MarkFlow(t.channel, &PlugFlowMarks::driver_received);
    InstallReceivedDriver(t.channel, id, std::move(image));
  }
}

ChannelId MicroPnpThing::ChannelFor(DeviceTypeId id) {
  for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
    if (controller_.identified(ch) == id) {
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
  const uint64_t generation = t.generation;
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(t.nack_delay_ms)),
                           [this, id, generation] { NackTick(id, generation); });
}

void MicroPnpThing::NackTick(DeviceTypeId id, uint64_t generation) {
  auto it = transfers_.find(id);
  if (it == transfers_.end() || it->second.generation != generation || it->second.complete) {
    return;
  }
  DriverTransfer& t = it->second;
  t.nack_armed = false;
  if (t.nacks_sent >= config_.chunk_nack_budget) {
    // Gap repair exhausted its budget; fall back to a fresh (4), which
    // resumes from the bitmap under the capped-backoff retry policy.
    if (t.channel == kInvalidChannel || controller_.identified(t.channel) != id) {
      t.channel = ChannelFor(id);
    }
    if (t.channel != kInvalidChannel) {
      ScheduleDriverRetry(t.channel, id);
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
  t.nack_delay_ms = std::min(t.nack_delay_ms * 2.0, config_.chunk_nack_max_delay_ms);
  ArmNackTimer(id);
}

// ----------------------------------------------------- install/advertise ----

void MicroPnpThing::InstallReceivedDriver(ChannelId channel, DeviceTypeId id,
                                          std::vector<uint8_t> image_bytes) {
  // Step 4: parse, CRC-check and flash the image (Table 4 row 4).  Flash
  // writes carry high variance (page boundaries, erase cycles), which is
  // what drives Table 4's large install stddev.
  const double flash_ms = config_.flash_write_ms_per_byte *
                          static_cast<double>(image_bytes.size()) *
                          (1.0 + config_.flash_jitter_fraction * rng_.Uniform(-1.0, 1.0));
  const double install_ms = Jitter(config_.install_parse_cpu_ms) + flash_ms;
  scheduler_.ScheduleAfter(
      SimTime::FromMillis(install_ms), [this, channel, id, image_bytes = std::move(image_bytes)] {
        Result<DriverImage> image = DriverImage::Parse(ByteSpan(image_bytes.data(), image_bytes.size()));
        if (!image.ok()) {
          MLOG(kWarning, "thing") << "driver image rejected: " << image.status().ToString();
          return;
        }
        if (image->device_id != id) {
          MLOG(kWarning, "thing") << "driver image device mismatch";
          return;
        }
        Status installed = driver_manager_.InstallImage(*image);
        if (!installed.ok()) {
          MLOG(kWarning, "thing") << "driver install failed: " << installed.ToString();
          return;
        }
        // Activate every channel waiting on this image — two same-type
        // peripherals plugged concurrently share one transfer, and only one
        // channel's flow carried the install.
        for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
          if (controller_.identified(ch) == id && driver_manager_.HostForChannel(ch) == nullptr) {
            ActivateAndAdvertise(ch, id);
          }
        }
      });
}

void MicroPnpThing::ActivateAndAdvertise(ChannelId channel, DeviceTypeId id) {
  scheduler_.ScheduleAfter(
      SimTime::FromMillis(Jitter(config_.install_activate_cpu_ms)), [this, channel, id] {
        Status activated = driver_manager_.Activate(channel, id, controller_.bus(channel));
        if (!activated.ok()) {
          MLOG(kWarning, "thing") << "driver activation failed: " << activated.ToString();
          return;
        }
        DriverHost* host = driver_manager_.HostForChannel(channel);
        host->set_result_handler(
            [this, channel](const ProducedValue& v) { OnProduced(channel, v); });
        MarkFlow(channel, &PlugFlowMarks::driver_installed);
        // Step 5: unsolicited advertisement to all μPnP clients (Table 4
        // row 5, message (1) of Figure 10).
        scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(config_.advert_build_cpu_ms)),
                                 [this, channel] {
                                   SendUnsolicitedAdvertisement();
                                   MarkFlow(channel, &PlugFlowMarks::advertised);
                                 });
      });
}

void MicroPnpThing::SendUnsolicitedAdvertisement() {
  endpoint_.SendOneWay(AllClientsGroup(node_->prefix()), MessageType::kUnsolicitedAdvertisement,
                       AdvertisementPayload{ConnectedPeripherals()});
  ++advertisements_sent_;
}

void MicroPnpThing::SendSolicitedAdvertisement(const Ip6Address& client, SequenceNumber seq) {
  // (3) echoes the discovery's sequence so the client's gather matches it.
  Message m = MakeAdvertisement(MessageType::kSolicitedAdvertisement, seq, ConnectedPeripherals());
  node_->SendUdp(client, kMicroPnpUdpPort, m.Serialize());
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
  if (advert_interval_ms_ >= config_.readvertise_max_ms) {
    return;  // ladder complete: dormant until the next peripheral change
  }
  advert_interval_ms_ = std::min(advert_interval_ms_ * 2.0, config_.readvertise_max_ms);
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(advert_interval_ms_)),
                           [this, generation] { TrickleTick(generation); });
}

// ------------------------------------------------------ message handling ----

void MicroPnpThing::OnDatagram(const Ip6Address& src, const Ip6Address& dst, uint16_t /*port*/,
                               const std::vector<uint8_t>& payload) {
  Result<Message> parsed = Message::Parse(ByteSpan(payload.data(), payload.size()));
  if (!parsed.ok()) {
    MLOG(kDebug, "thing") << "dropping malformed datagram from " << src.ToString();
    return;
  }
  const Message& m = *parsed;
  if (endpoint_.HandleReply(src, m)) {
    return;  // (18) offers complete their transaction
  }
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
  bool match = (*wanted == kDeviceTypeAllPeripherals);
  for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
    if (controller_.identified(ch) == *wanted) {
      match = true;
    }
  }
  if (!match) {
    return;
  }
  // (3) solicited advertisement, unicast back to the discovering client.
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(config_.advert_build_cpu_ms)),
                           [this, src, seq = m.sequence] {
                             SendSolicitedAdvertisement(src, seq);
                           });
}

void MicroPnpThing::HandleRead(const Ip6Address& src, const Message& m) {
  const auto* target = m.payload_as<DeviceTargetPayload>();
  // Locate the channel serving this device type.
  for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
    if (controller_.identified(ch) == target->device_id &&
        driver_manager_.HostForChannel(ch) != nullptr) {
      pending_reads_[ch].push_back(PendingRead{src, m.sequence});
      router_.Post(ch, Event::Of(kEventRead));
      return;
    }
  }
  // No such peripheral: the paper defines no negative response; we simply
  // stay silent, as a real Thing would, and the client's deadline fires.
}

void MicroPnpThing::OnProduced(ChannelId channel, const ProducedValue& value) {
  WireValue wire;
  wire.is_array = value.is_array;
  wire.scalar = value.scalar;
  wire.bytes = value.bytes;
  const std::optional<DeviceTypeId> id = controller_.identified(channel);
  if (!id.has_value()) {
    return;
  }

  auto& queue = pending_reads_[channel];
  if (!queue.empty()) {
    PendingRead pending = queue.front();
    queue.pop_front();
    ++reads_served_;
    scheduler_.ScheduleAfter(
        SimTime::FromMillis(Jitter(config_.reply_build_cpu_ms)), [this, pending, id, wire] {
          // (11) echoes the read's sequence.
          Message reply =
              MakeMessage(MessageType::kData, pending.sequence, ValuePayload{*id, wire});
          node_->SendUdp(pending.client, kMicroPnpUdpPort, reply.Serialize());
        });
    return;
  }
  StreamState& stream = streams_[channel];
  if (stream.active) {
    scheduler_.ScheduleAfter(
        SimTime::FromMillis(Jitter(config_.reply_build_cpu_ms)),
        [this, group = stream.group, id, wire] {
          endpoint_.SendOneWay(group, MessageType::kStreamData, ValuePayload{*id, wire});
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
    for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
      if (controller_.identified(ch) != request->device_id) {
        continue;
      }
      StreamState& stream = streams_[ch];
      if (stream.active) {
        stream.active = false;
        ++stream.generation;
        // (15) to the group: every subscriber learns the stream is gone.
        Message closed = MakeDeviceMessage(MessageType::kStreamClosed, m.sequence,
                                           request->device_id);
        node_->SendUdp(stream.group, kMicroPnpUdpPort, closed.Serialize());
      }
    }
    // Direct reply to the requester (it may no longer — or never — be a
    // group member); its endpoint drops the group copy as a duplicate.
    Message closed = MakeDeviceMessage(MessageType::kStreamClosed, m.sequence,
                                       request->device_id);
    node_->SendUdp(src, kMicroPnpUdpPort, closed.Serialize());
    return;
  }
  for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
    if (controller_.identified(ch) != request->device_id ||
        driver_manager_.HostForChannel(ch) == nullptr) {
      continue;
    }
    StreamState& stream = streams_[ch];
    stream.active = true;
    stream.period_ms = request->period_ms;
    stream.group = PeripheralGroup(node_->prefix(), request->device_id);
    const uint64_t generation = ++stream.generation;
    // (13) established: tell the client which group carries the values.
    Message established =
        MakeMessage(MessageType::kStreamEstablished, m.sequence,
                    StreamEstablishedPayload{request->device_id, stream.group});
    node_->SendUdp(src, kMicroPnpUdpPort, established.Serialize());
    // Periodic reads drive (14) data messages.
    scheduler_.ScheduleAfter(SimTime::FromMillis(stream.period_ms),
                             [this, ch, generation] { StreamTick(ch, generation); });
    return;
  }
}

void MicroPnpThing::StreamTick(ChannelId channel, uint64_t generation) {
  StreamState& stream = streams_[channel];
  if (!stream.active || stream.generation != generation) {
    return;
  }
  router_.Post(channel, Event::Of(kEventRead));
  scheduler_.ScheduleAfter(SimTime::FromMillis(stream.period_ms),
                           [this, channel, generation] { StreamTick(channel, generation); });
}

void MicroPnpThing::HandleWrite(const Ip6Address& src, const Message& m) {
  const auto* write = m.payload_as<WritePayload>();
  uint8_t status = 1;  // not found
  for (ChannelId ch = 0; ch < controller_.num_channels(); ++ch) {
    if (controller_.identified(ch) == write->device_id &&
        driver_manager_.HostForChannel(ch) != nullptr) {
      router_.Post(ch, Event::Of(kEventWrite, write->value));
      ++writes_served_;
      status = 0;
      break;
    }
  }
  // (17) acknowledgement confirming the establishment of the new value.
  scheduler_.ScheduleAfter(
      SimTime::FromMillis(Jitter(config_.reply_build_cpu_ms)),
      [this, src, seq = m.sequence, device = write->device_id, status] {
        Message ack =
            MakeMessage(MessageType::kWriteAck, seq, StatusAckPayload{device, status});
        node_->SendUdp(src, kMicroPnpUdpPort, ack.Serialize());
      });
}

void MicroPnpThing::HandleDriverDiscovery(const Ip6Address& src, const Message& m) {
  Message reply = MakeMessage(MessageType::kDriverAdvertisement, m.sequence,
                              DriverAdvertisementPayload{driver_manager_.InstalledDrivers()});
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(config_.reply_build_cpu_ms)),
                           [this, src, reply] {
                             node_->SendUdp(src, kMicroPnpUdpPort, reply.Serialize());
                           });
}

void MicroPnpThing::HandleDriverRemoval(const Ip6Address& src, const Message& m) {
  const auto* target = m.payload_as<DeviceTargetPayload>();
  Status removed = driver_manager_.RemoveImage(target->device_id);
  Message ack = MakeMessage(MessageType::kDriverRemovalAck, m.sequence,
                            StatusAckPayload{target->device_id,
                                             static_cast<uint8_t>(removed.ok() ? 0 : 1)});
  scheduler_.ScheduleAfter(SimTime::FromMillis(Jitter(config_.reply_build_cpu_ms)),
                           [this, src, ack] {
                             node_->SendUdp(src, kMicroPnpUdpPort, ack.Serialize());
                           });
}

}  // namespace micropnp
