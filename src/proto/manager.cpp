#include "src/proto/manager.h"

#include <algorithm>

#include "src/common/crc.h"
#include "src/common/logging.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"

namespace micropnp {
namespace {

// Repository lookup time on the server (milliseconds).
constexpr double kLookupCpuMs = 0.6;
// Pacing between consecutive chunk datagrams: keeps a multi-chunk stream
// from bursting into one radio queue and lets forwarding nodes drain.
constexpr double kChunkIntervalMs = 2.0;
// Chunk payload sized so header + chunk framing + data fit one 88-byte
// 6LoWPAN fragment (17 bytes of framing leaves <= 61; 56 keeps margin).
constexpr uint16_t kChunkPayloadBytes = 56;

}  // namespace

MicroPnpManager::MicroPnpManager(Scheduler& scheduler, NetNode* node)
    : scheduler_(scheduler),
      node_(node),
      endpoint_(scheduler, node,
                [this](const Ip6Address& src, const Ip6Address&, const Message& m) {
                  OnMessage(src, m);
                }) {
  node_->BindAnycast(ManagerAnycastAddress());
}

Status MicroPnpManager::AddDriver(const DriverImage& image) {
  if (image.device_id == kDeviceTypeAllPeripherals || image.device_id == kDeviceTypeAllClients) {
    return InvalidArgument("reserved device type id");
  }
  PreparedImage& img = repository_[image.device_id];
  img.bytes = image.Serialize();
  img.crc = Crc32(ByteSpan(img.bytes.data(), img.bytes.size()));
  img.chunk_size = kChunkPayloadBytes;
  img.chunk_count =
      static_cast<uint16_t>((img.bytes.size() + img.chunk_size - 1) / img.chunk_size);
  return OkStatus();
}

Status MicroPnpManager::PreloadBundledDrivers() {
  // The bundled sources are compiled into the binary, so every manager in
  // the process can share one compile of them.
  static const std::vector<Result<DriverImage>> kCompiled = [] {
    std::vector<Result<DriverImage>> images;
    for (const BundledDriver& d : BundledDrivers()) {
      images.push_back(CompileDriver(d.source));
    }
    return images;
  }();
  for (const Result<DriverImage>& image : kCompiled) {
    if (!image.ok()) {
      return image.status();
    }
    MICROPNP_RETURN_IF_ERROR(AddDriver(*image));
  }
  return OkStatus();
}

void MicroPnpManager::DiscoverDrivers(const Ip6Address& thing, DriverListCallback callback,
                                      const RequestOptions& options) {
  endpoint_.SendRequest(
      thing, MessageType::kDriverDiscovery, DeviceTargetPayload{kDeviceTypeAllPeripherals},
      {MessageType::kDriverAdvertisement},
      [callback = std::move(callback)](Result<Message> reply) {
        if (!callback) {
          return;
        }
        if (!reply.ok()) {
          callback(reply.status());
          return;
        }
        const auto* ad = reply->payload_as<DriverAdvertisementPayload>();
        callback(ad != nullptr
                     ? Result<std::vector<DeviceTypeId>>(ad->driver_ids)
                     : Result<std::vector<DeviceTypeId>>(
                           CorruptError("malformed driver advertisement")));
      },
      options);
}

void MicroPnpManager::RemoveDriver(const Ip6Address& thing, DeviceTypeId id, AckCallback callback,
                                   const RequestOptions& options) {
  endpoint_.SendRequest(
      thing, MessageType::kDriverRemovalRequest, DeviceTargetPayload{id},
      {MessageType::kDriverRemovalAck},
      [callback = std::move(callback)](Result<Message> reply) {
        if (!callback) {
          return;
        }
        if (!reply.ok()) {
          callback(reply.status());
          return;
        }
        const auto* ack = reply->payload_as<StatusAckPayload>();
        if (ack == nullptr) {
          callback(CorruptError("malformed removal ack"));
          return;
        }
        callback(ack->status == 0 ? OkStatus() : InternalError("removal refused"));
      },
      options);
}

void MicroPnpManager::OnMessage(const Ip6Address& src, const Message& m) {
  switch (m.type) {
    case MessageType::kDriverInstallRequest:
      HandleInstallRequest(src, m);
      break;
    case MessageType::kDriverChunkRequest:
      HandleChunkRequest(src, m);
      break;
    default:
      break;  // not addressed to managers
  }
}

void MicroPnpManager::HandleInstallRequest(const Ip6Address& src, const Message& m) {
  const auto* request = m.payload_as<DriverRequestPayload>();
  // A retransmitted copy of a (4) already answered (its (18) offer was lost
  // or is still in flight): re-serve the cached offer, don't recount and
  // don't replay the chunk stream — once the Thing holds the offer, its
  // selective-repeat NACK pulls exactly the chunks that were lost.  The
  // device check keeps a peer whose sequence counter restarted from being
  // handed a stale entry for a different device.
  for (const ServedOffer& served : recent_offers_) {
    if (served.thing == src && served.sequence == m.sequence &&
        served.offer.device_id == request->device_id) {
      ++upload_retransmissions_;
      SendAfter(kLookupCpuMs, src, MessageType::kDriverUploadOffer, m.sequence, served.offer);
      return;
    }
  }
  auto entry = repository_.find(request->device_id);
  if (entry == repository_.end()) {
    MLOG(kWarning, "manager") << "no driver in repository for "
                              << FormatDeviceTypeId(request->device_id);
    return;
  }
  const PreparedImage& img = entry->second;
  // Which chunks the Thing still needs.  The bitmap is only honoured when
  // the request's CRC and geometry match the repository's current image —
  // a partial transfer of a since-replaced image restarts from scratch.
  std::vector<uint16_t> missing;
  const bool resume =
      request->cached_crc == img.crc && request->cached_chunk_count == img.chunk_count;
  if (resume) {
    for (uint16_t i = 0; i < img.chunk_count; ++i) {
      const size_t byte = i / 8u;
      const bool have = byte < request->have_bitmap.size() &&
                        ((request->have_bitmap[byte] >> (i % 8u)) & 1u) != 0;
      if (!have) {
        missing.push_back(i);
      }
    }
  } else {
    missing.resize(img.chunk_count);
    for (uint16_t i = 0; i < img.chunk_count; ++i) {
      missing[i] = i;
    }
  }
  // (18) upload offer, echoing the request's sequence so the Thing's
  // endpoint can match it.
  DriverOfferPayload offer;
  offer.device_id = request->device_id;
  offer.image_crc = img.crc;
  offer.total_size = static_cast<uint32_t>(img.bytes.size());
  offer.chunk_size = img.chunk_size;
  offer.chunk_count = img.chunk_count;
  if (resume && missing.empty()) {
    offer.flags = kDriverOfferUpToDate;  // re-plug with a complete cache: zero chunks
    ++upload_short_circuits_;
  } else if (resume) {
    ++resumed_uploads_;
  }
  recent_offers_.push_back(ServedOffer{src, m.sequence, offer});
  if (recent_offers_.size() > 64) {
    recent_offers_.pop_front();
  }
  ++uploads_;
  SendAfter(kLookupCpuMs, src, MessageType::kDriverUploadOffer, m.sequence, offer);
  double at_ms = kLookupCpuMs;
  for (uint16_t index : missing) {
    at_ms += kChunkIntervalMs;
    ++chunks_sent_;
    SendChunkAfter(at_ms, src, request->device_id, img, index);
  }
}

void MicroPnpManager::HandleChunkRequest(const Ip6Address& src, const Message& m) {
  const auto* request = m.payload_as<DriverChunkRequestPayload>();
  auto entry = repository_.find(request->device_id);
  if (entry == repository_.end() || entry->second.crc != request->image_crc) {
    // Stale NACK for an image no longer (or never) served; the Thing's own
    // (4) retry machinery restarts the transfer against the current image.
    MLOG(kDebug, "manager") << "ignoring stale chunk request for "
                            << FormatDeviceTypeId(request->device_id);
    return;
  }
  const PreparedImage& img = entry->second;
  double at_ms = 0.0;
  for (uint16_t index : request->chunk_indices) {
    if (index >= img.chunk_count) {
      continue;
    }
    at_ms += kChunkIntervalMs;
    ++chunks_sent_;
    ++chunk_retransmissions_;
    SendChunkAfter(at_ms, src, request->device_id, img, index);
  }
}

void MicroPnpManager::SendChunkAfter(double delay_ms, const Ip6Address& thing, DeviceTypeId id,
                                     const PreparedImage& img, uint16_t index) {
  const size_t begin = static_cast<size_t>(index) * img.chunk_size;
  const size_t len = std::min<size_t>(img.chunk_size, img.bytes.size() - begin);
  DriverChunkPayload chunk;
  chunk.device_id = id;
  chunk.image_crc = img.crc;
  chunk.chunk_index = index;
  chunk.chunk_count = img.chunk_count;
  chunk.data.assign(img.bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                    img.bytes.begin() + static_cast<std::ptrdiff_t>(begin + len));
  // Chunks are notifications outside any endpoint transaction; sequence 0.
  SendAfter(delay_ms, thing, MessageType::kDriverChunk, 0, std::move(chunk));
}

void MicroPnpManager::SendAfter(double delay_ms, const Ip6Address& thing, MessageType type,
                                SequenceNumber sequence, MessagePayload payload) {
  scheduler_.ScheduleAfter(SimTime::FromMillis(delay_ms),
                           [this, thing, type, sequence, payload = std::move(payload)]() mutable {
                             endpoint_.Send(thing, type, sequence, std::move(payload));
                           });
}

}  // namespace micropnp
