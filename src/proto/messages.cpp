#include "src/proto/messages.h"

#include <array>
#include <cassert>
#include <type_traits>
#include <utility>

namespace micropnp {

const Ip6Address& ManagerAnycastAddress() {
  static const Ip6Address kAddress = *Ip6Address::Parse("2001:db8:aaaa::1");
  return kAddress;
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kUnsolicitedAdvertisement:
      return "unsolicited-advertisement";
    case MessageType::kPeripheralDiscovery:
      return "peripheral-discovery";
    case MessageType::kSolicitedAdvertisement:
      return "solicited-advertisement";
    case MessageType::kDriverInstallRequest:
      return "driver-install-request";
    case MessageType::kDriverUpload:
      return "driver-upload";
    case MessageType::kDriverDiscovery:
      return "driver-discovery";
    case MessageType::kDriverAdvertisement:
      return "driver-advertisement";
    case MessageType::kDriverRemovalRequest:
      return "driver-removal-request";
    case MessageType::kDriverRemovalAck:
      return "driver-removal-ack";
    case MessageType::kRead:
      return "read";
    case MessageType::kData:
      return "data";
    case MessageType::kStream:
      return "stream";
    case MessageType::kStreamEstablished:
      return "stream-established";
    case MessageType::kStreamData:
      return "stream-data";
    case MessageType::kStreamClosed:
      return "stream-closed";
    case MessageType::kWrite:
      return "write";
    case MessageType::kWriteAck:
      return "write-ack";
    case MessageType::kDriverUploadOffer:
      return "driver-upload-offer";
    case MessageType::kDriverChunk:
      return "driver-chunk";
    case MessageType::kDriverChunkRequest:
      return "driver-chunk-request";
  }
  return "unknown";
}

// ------------------------------------------------------------- payloads ----
// Length prefixes clamp the element count they describe AND the elements
// written, so an oversized payload serializes to a well-formed (truncated)
// datagram instead of one the receiver's trailing-bytes check rejects.

namespace {

template <typename T>
size_t ClampedCount(const std::vector<T>& items, size_t limit) {
  return items.size() < limit ? items.size() : limit;
}

}  // namespace

void AdvertisementPayload::Serialize(ByteWriter& w) const {
  const size_t count = ClampedCount(peripherals, 255);
  w.WriteU8(static_cast<uint8_t>(count));
  for (size_t i = 0; i < count; ++i) {
    w.WriteU32(peripherals[i].type);
    peripherals[i].info.Serialize(w);
  }
}

Result<AdvertisementPayload> AdvertisementPayload::Parse(ByteReader& r) {
  AdvertisementPayload out;
  const uint8_t count = r.ReadU8();
  for (uint8_t i = 0; i < count && r.ok(); ++i) {
    AdvertisedPeripheral p;
    p.type = r.ReadU32();
    Result<TlvList> info = TlvList::Parse(r);
    if (!info.ok()) {
      return info.status();
    }
    p.info = std::move(*info);
    out.peripherals.push_back(std::move(p));
  }
  if (!r.ok()) {
    return CorruptError("truncated advertisement");
  }
  return out;
}

void PeripheralDiscoveryPayload::Serialize(ByteWriter& w) const { filters.Serialize(w); }

Result<PeripheralDiscoveryPayload> PeripheralDiscoveryPayload::Parse(ByteReader& r) {
  Result<TlvList> filters = TlvList::Parse(r);
  if (!filters.ok()) {
    return filters.status();
  }
  PeripheralDiscoveryPayload out;
  out.filters = std::move(*filters);
  return out;
}

void DeviceTargetPayload::Serialize(ByteWriter& w) const { w.WriteU32(device_id); }

Result<DeviceTargetPayload> DeviceTargetPayload::Parse(ByteReader& r) {
  DeviceTargetPayload out;
  out.device_id = r.ReadU32();
  if (!r.ok()) {
    return CorruptError("truncated device target");
  }
  return out;
}

void DriverRequestPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteU32(cached_crc);
  w.WriteU16(cached_chunk_count);
  const size_t len = ClampedCount(have_bitmap, 255);
  w.WriteU8(static_cast<uint8_t>(len));
  w.WriteBytes(ByteSpan(have_bitmap.data(), len));
}

Result<DriverRequestPayload> DriverRequestPayload::Parse(ByteReader& r) {
  DriverRequestPayload out;
  out.device_id = r.ReadU32();
  out.cached_crc = r.ReadU32();
  out.cached_chunk_count = r.ReadU16();
  const uint8_t len = r.ReadU8();
  out.have_bitmap = r.ReadBytes(len);
  if (!r.ok()) {
    return CorruptError("truncated driver request");
  }
  return out;
}

void DriverUploadPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  const size_t len = ClampedCount(driver_image, 65535);
  w.WriteU16(static_cast<uint16_t>(len));
  w.WriteBytes(ByteSpan(driver_image.data(), len));
}

Result<DriverUploadPayload> DriverUploadPayload::Parse(ByteReader& r) {
  DriverUploadPayload out;
  out.device_id = r.ReadU32();
  const uint16_t len = r.ReadU16();
  out.driver_image = r.ReadBytes(len);
  if (!r.ok()) {
    return CorruptError("truncated driver upload");
  }
  return out;
}

void DriverAdvertisementPayload::Serialize(ByteWriter& w) const {
  const size_t count = ClampedCount(driver_ids, 255);
  w.WriteU8(static_cast<uint8_t>(count));
  for (size_t i = 0; i < count; ++i) {
    w.WriteU32(driver_ids[i]);
  }
}

Result<DriverAdvertisementPayload> DriverAdvertisementPayload::Parse(ByteReader& r) {
  DriverAdvertisementPayload out;
  const uint8_t count = r.ReadU8();
  for (uint8_t i = 0; i < count && r.ok(); ++i) {
    out.driver_ids.push_back(r.ReadU32());
  }
  if (!r.ok()) {
    return CorruptError("truncated driver advertisement");
  }
  return out;
}

void StatusAckPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteU8(status);
}

Result<StatusAckPayload> StatusAckPayload::Parse(ByteReader& r) {
  StatusAckPayload out;
  out.device_id = r.ReadU32();
  out.status = r.ReadU8();
  if (!r.ok()) {
    return CorruptError("truncated ack");
  }
  return out;
}

void ValuePayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteU8(value.is_array ? 1 : 0);
  if (value.is_array) {
    const size_t len = ClampedCount(value.bytes, 255);
    w.WriteU8(static_cast<uint8_t>(len));
    w.WriteBytes(ByteSpan(value.bytes.data(), len));
  } else {
    w.WriteI32(value.scalar);
  }
}

Result<ValuePayload> ValuePayload::Parse(ByteReader& r) {
  ValuePayload out;
  out.device_id = r.ReadU32();
  out.value.is_array = (r.ReadU8() != 0);
  if (out.value.is_array) {
    const uint8_t len = r.ReadU8();
    out.value.bytes = r.ReadBytes(len);
  } else {
    out.value.scalar = r.ReadI32();
  }
  if (!r.ok()) {
    return CorruptError("truncated value");
  }
  return out;
}

void StreamRequestPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteU32(period_ms);
}

Result<StreamRequestPayload> StreamRequestPayload::Parse(ByteReader& r) {
  StreamRequestPayload out;
  out.device_id = r.ReadU32();
  out.period_ms = r.ReadU32();
  if (!r.ok()) {
    return CorruptError("truncated stream request");
  }
  return out;
}

void StreamEstablishedPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteBytes(ByteSpan(group.bytes().data(), 16));
}

Result<StreamEstablishedPayload> StreamEstablishedPayload::Parse(ByteReader& r) {
  StreamEstablishedPayload out;
  out.device_id = r.ReadU32();
  std::vector<uint8_t> raw = r.ReadBytes(16);
  if (!r.ok() || raw.size() != 16) {
    return CorruptError("truncated stream group");
  }
  std::array<uint8_t, 16> arr{};
  std::copy(raw.begin(), raw.end(), arr.begin());
  out.group = Ip6Address(arr);
  return out;
}

void WritePayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteI32(value);
}

Result<WritePayload> WritePayload::Parse(ByteReader& r) {
  WritePayload out;
  out.device_id = r.ReadU32();
  out.value = r.ReadI32();
  if (!r.ok()) {
    return CorruptError("truncated write");
  }
  return out;
}

void DriverOfferPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteU32(image_crc);
  w.WriteU32(total_size);
  w.WriteU16(chunk_size);
  w.WriteU16(chunk_count);
  w.WriteU8(flags);
}

Result<DriverOfferPayload> DriverOfferPayload::Parse(ByteReader& r) {
  DriverOfferPayload out;
  out.device_id = r.ReadU32();
  out.image_crc = r.ReadU32();
  out.total_size = r.ReadU32();
  out.chunk_size = r.ReadU16();
  out.chunk_count = r.ReadU16();
  out.flags = r.ReadU8();
  if (!r.ok()) {
    return CorruptError("truncated driver offer");
  }
  // Internal consistency: chunk geometry must cover the image exactly, so a
  // receiver never has to re-derive (and mistrust) buffer sizes per chunk.
  if (out.chunk_count > 0) {
    if (out.chunk_size == 0) {
      return CorruptError("driver offer with zero chunk size");
    }
    const uint32_t covered = static_cast<uint32_t>(out.chunk_size) * out.chunk_count;
    const uint32_t prev = static_cast<uint32_t>(out.chunk_size) * (out.chunk_count - 1);
    if (out.total_size > covered || out.total_size <= prev) {
      return CorruptError("driver offer chunk geometry mismatch");
    }
  } else if (out.total_size != 0 && (out.flags & kDriverOfferUpToDate) == 0) {
    return CorruptError("driver offer with no chunks for a non-empty image");
  }
  return out;
}

void DriverChunkPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteU32(image_crc);
  w.WriteU16(chunk_index);
  w.WriteU16(chunk_count);
  const size_t len = ClampedCount(data, 65535);
  w.WriteU16(static_cast<uint16_t>(len));
  w.WriteBytes(ByteSpan(data.data(), len));
}

Result<DriverChunkPayload> DriverChunkPayload::Parse(ByteReader& r) {
  DriverChunkPayload out;
  out.device_id = r.ReadU32();
  out.image_crc = r.ReadU32();
  out.chunk_index = r.ReadU16();
  out.chunk_count = r.ReadU16();
  const uint16_t len = r.ReadU16();
  out.data = r.ReadBytes(len);
  if (!r.ok()) {
    return CorruptError("truncated driver chunk");
  }
  if (out.chunk_index >= out.chunk_count) {
    return CorruptError("driver chunk index out of range");
  }
  return out;
}

void DriverChunkRequestPayload::Serialize(ByteWriter& w) const {
  w.WriteU32(device_id);
  w.WriteU32(image_crc);
  const size_t count = ClampedCount(chunk_indices, 255);
  w.WriteU8(static_cast<uint8_t>(count));
  for (size_t i = 0; i < count; ++i) {
    w.WriteU16(chunk_indices[i]);
  }
}

Result<DriverChunkRequestPayload> DriverChunkRequestPayload::Parse(ByteReader& r) {
  DriverChunkRequestPayload out;
  out.device_id = r.ReadU32();
  out.image_crc = r.ReadU32();
  const uint8_t count = r.ReadU8();
  for (uint8_t i = 0; i < count && r.ok(); ++i) {
    out.chunk_indices.push_back(r.ReadU16());
  }
  if (!r.ok()) {
    return CorruptError("truncated driver chunk request");
  }
  return out;
}

// -------------------------------------------------------------- message ----

namespace {

// The variant alternative index that each wire type carries, resolved at
// compile time (no payload object is constructed).
template <typename T, typename Variant>
struct AlternativeIndexImpl;
template <typename T, typename... Ts>
struct AlternativeIndexImpl<T, std::variant<Ts...>> {
  static constexpr size_t value = [] {
    size_t index = 0;
    const bool found = ((std::is_same_v<T, Ts> ? true : (++index, false)) || ...);
    return found ? index : std::variant_npos;
  }();
};
template <typename T>
constexpr size_t AlternativeIndex() {
  return AlternativeIndexImpl<T, MessagePayload>::value;
}

size_t ExpectedAlternative(MessageType type) {
  switch (type) {
    case MessageType::kUnsolicitedAdvertisement:
    case MessageType::kSolicitedAdvertisement:
      return AlternativeIndex<AdvertisementPayload>();
    case MessageType::kPeripheralDiscovery:
      return AlternativeIndex<PeripheralDiscoveryPayload>();
    case MessageType::kDriverDiscovery:
    case MessageType::kDriverRemovalRequest:
    case MessageType::kRead:
    case MessageType::kStreamClosed:
      return AlternativeIndex<DeviceTargetPayload>();
    case MessageType::kDriverInstallRequest:
      return AlternativeIndex<DriverRequestPayload>();
    case MessageType::kDriverUpload:
      return AlternativeIndex<DriverUploadPayload>();
    case MessageType::kDriverUploadOffer:
      return AlternativeIndex<DriverOfferPayload>();
    case MessageType::kDriverChunk:
      return AlternativeIndex<DriverChunkPayload>();
    case MessageType::kDriverChunkRequest:
      return AlternativeIndex<DriverChunkRequestPayload>();
    case MessageType::kDriverAdvertisement:
      return AlternativeIndex<DriverAdvertisementPayload>();
    case MessageType::kDriverRemovalAck:
    case MessageType::kWriteAck:
      return AlternativeIndex<StatusAckPayload>();
    case MessageType::kData:
    case MessageType::kStreamData:
      return AlternativeIndex<ValuePayload>();
    case MessageType::kStream:
      return AlternativeIndex<StreamRequestPayload>();
    case MessageType::kStreamEstablished:
      return AlternativeIndex<StreamEstablishedPayload>();
    case MessageType::kWrite:
      return AlternativeIndex<WritePayload>();
  }
  return std::variant_npos;
}

// Parses the payload shape of variant alternative I.
template <size_t I>
Result<MessagePayload> ParseAlternative(ByteReader& r) {
  auto parsed = std::variant_alternative_t<I, MessagePayload>::Parse(r);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return MessagePayload(std::in_place_index<I>, std::move(*parsed));
}

using PayloadParser = Result<MessagePayload> (*)(ByteReader&);

template <size_t... I>
constexpr std::array<PayloadParser, sizeof...(I)> MakePayloadParsers(std::index_sequence<I...>) {
  return {&ParseAlternative<I>...};
}

// One parser per variant alternative, indexed by alternative, so the wire
// type -> shape table above is the only place a wire type is mapped.
constexpr auto kPayloadParsers =
    MakePayloadParsers(std::make_index_sequence<std::variant_size_v<MessagePayload>>{});

Result<MessagePayload> ParsePayload(MessageType type, ByteReader& r) {
  const size_t alternative = ExpectedAlternative(type);
  if (alternative == std::variant_npos) {
    return CorruptError("unknown message type");
  }
  return kPayloadParsers[alternative](r);
}

}  // namespace

bool PayloadMatchesType(MessageType type, const MessagePayload& payload) {
  return payload.index() == ExpectedAlternative(type);
}

std::vector<uint8_t> Message::Serialize() const {
  std::vector<uint8_t> out;
  SerializeInto(out);
  return out;
}

void Message::SerializeInto(std::vector<uint8_t>& out) const {
  assert(PayloadMatchesType(type, payload) && "message payload does not match wire type");
  ByteWriter w(std::move(out));
  w.WriteU8(static_cast<uint8_t>(type));
  w.WriteU16(sequence);
  if (PayloadMatchesType(type, payload)) {
    std::visit([&w](const auto& p) { p.Serialize(w); }, payload);
  }
  out = w.Take();
}

Result<Message> Message::Parse(ByteSpan bytes) {
  ByteReader r(bytes);
  const uint8_t raw_type = r.ReadU8();
  const SequenceNumber sequence = r.ReadU16();
  if (!r.ok()) {
    return CorruptError("truncated message header");
  }
  if (raw_type < 1 || raw_type > kMessageTypeMax) {
    return CorruptError("unknown message type");
  }
  Message m;
  m.type = static_cast<MessageType>(raw_type);
  m.sequence = sequence;
  Result<MessagePayload> payload = ParsePayload(m.type, r);
  if (!payload.ok()) {
    return payload.status();
  }
  m.payload = std::move(*payload);
  if (!r.ok()) {
    return CorruptError("truncated message");
  }
  if (r.remaining() != 0) {
    return CorruptError("trailing bytes after payload");
  }
  return m;
}

Message MakeMessage(MessageType type, SequenceNumber seq, MessagePayload payload) {
  assert(PayloadMatchesType(type, payload) && "message payload does not match wire type");
  Message m;
  m.type = type;
  m.sequence = seq;
  m.payload = std::move(payload);
  return m;
}

Message MakeAdvertisement(MessageType type, SequenceNumber seq,
                          std::vector<AdvertisedPeripheral> peripherals) {
  return MakeMessage(type, seq, AdvertisementPayload{std::move(peripherals)});
}

Message MakeDeviceMessage(MessageType type, SequenceNumber seq, DeviceTypeId device) {
  return MakeMessage(type, seq, DeviceTargetPayload{device});
}

}  // namespace micropnp
