// μPnP interaction protocol messages (Section 5.2, Figures 10 and 11).
//
// "All messages are sent as UDP packets to port 6030. ... All messages carry
// a unique 16-bit unsigned sequence number which is used to associate
// request and reply messages."  Message numbering follows the paper's
// (1)..(17) annotations exactly; (18)..(20) extend the vocabulary with the
// chunked driver-transfer shapes for lossy multi-hop networks (the paper's
// Section 9 future work).
//
// Wire format: u8 type | u16 sequence | type-specific payload (big-endian).
//
// Each of the paper's message shapes is a distinct payload struct with its
// own Serialize/Parse round trip; a Message is the (type, sequence) header
// plus a std::variant over those shapes.  Several wire types share a shape —
// e.g. (6)(8)(10)(15) all carry just a device id — so the header type
// stays explicit and Parse/Serialize enforce that it matches the payload
// alternative.

#ifndef SRC_PROTO_MESSAGES_H_
#define SRC_PROTO_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/tlv.h"
#include "src/common/types.h"
#include "src/net/ip6.h"

namespace micropnp {

// Well-known anycast address of the μPnP Manager (Figure 11's
// 2001:db8:aaaa::1): "the µPnP manager is assigned an anycast IPv6 address
// to allow for network-level redundancy and scalability".
const Ip6Address& ManagerAnycastAddress();

enum class MessageType : uint8_t {
  kUnsolicitedAdvertisement = 1,  // Thing -> all-clients group
  kPeripheralDiscovery = 2,       // client -> peripheral group
  kSolicitedAdvertisement = 3,    // Thing -> client (unicast)
  kDriverInstallRequest = 4,      // Thing -> manager (anycast)
  kDriverUpload = 5,              // manager -> Thing (monolithic, legacy)
  kDriverDiscovery = 6,           // manager -> Thing
  kDriverAdvertisement = 7,       // Thing -> manager
  kDriverRemovalRequest = 8,      // manager -> Thing
  kDriverRemovalAck = 9,          // Thing -> manager
  kRead = 10,                     // client -> Thing
  kData = 11,                     // Thing -> client
  kStream = 12,                   // client -> Thing
  kStreamEstablished = 13,        // Thing -> client
  kStreamData = 14,               // Thing -> stream group
  kStreamClosed = 15,             // Thing -> stream group
  kWrite = 16,                    // client -> Thing
  kWriteAck = 17,                 // Thing -> client
  // Chunked driver transfer (the (5) upload split for lossy multi-hop
  // fabrics: one lost 6LoWPAN fragment no longer re-sends the whole image).
  kDriverUploadOffer = 18,   // manager -> Thing: transfer preamble, answers (4)
  kDriverChunk = 19,         // manager -> Thing: one MTU-sized image slice
  kDriverChunkRequest = 20,  // Thing -> manager: selective-repeat NACK
};

inline constexpr uint8_t kMessageTypeMax = 20;

const char* MessageTypeName(MessageType type);

// One peripheral entry inside an advertisement: "(a) the type of sensor
// (fixed length of 4 bytes) and (b) a set of type-length-value (TLV) encoded
// tuples" (Section 5.2.1).
struct AdvertisedPeripheral {
  DeviceTypeId type = 0;
  TlvList info;

  bool operator==(const AdvertisedPeripheral&) const = default;
};

// A value produced by a driver, carried by Data / StreamData messages.
struct WireValue {
  bool is_array = false;
  int32_t scalar = 0;
  std::vector<uint8_t> bytes;

  bool operator==(const WireValue&) const = default;
};

// --------------------------------------------------------------------------
// Typed payloads, one struct per wire shape.  Each serializes into / parses
// out of the bytes that follow the u8 type + u16 sequence header.

// (1) unsolicited and (3) solicited advertisements.
struct AdvertisementPayload {
  std::vector<AdvertisedPeripheral> peripherals;

  void Serialize(ByteWriter& w) const;
  static Result<AdvertisementPayload> Parse(ByteReader& r);
  bool operator==(const AdvertisementPayload&) const = default;
};

// (2) peripheral discovery: TLV filters (the destination group selects the
// wanted device type).
struct PeripheralDiscoveryPayload {
  TlvList filters;

  void Serialize(ByteWriter& w) const;
  static Result<PeripheralDiscoveryPayload> Parse(ByteReader& r);
  bool operator==(const PeripheralDiscoveryPayload&) const = default;
};

// (6) driver discovery, (8) driver removal request, (10) read, (15) stream
// closed: the target device type alone.
struct DeviceTargetPayload {
  DeviceTypeId device_id = 0;

  void Serialize(ByteWriter& w) const;
  static Result<DeviceTargetPayload> Parse(ByteReader& r);
  bool operator==(const DeviceTargetPayload&) const = default;
};

// (4) driver install request: the target device type plus the resume state
// of any partially (or fully) held image from an interrupted transfer.
// `cached_crc == 0` means "nothing held, send everything"; otherwise the
// bitmap says which chunks of the image with that CRC-32 the Thing already
// has, and the manager streams only the gaps (re-plug -> delta, not
// re-send).
struct DriverRequestPayload {
  DeviceTypeId device_id = 0;
  uint32_t cached_crc = 0;         // CRC-32 of the held image bytes; 0 = none
  uint16_t cached_chunk_count = 0; // chunk count of the held partial transfer
  std::vector<uint8_t> have_bitmap;  // bit i set = chunk i held (LSB first)

  void Serialize(ByteWriter& w) const;
  static Result<DriverRequestPayload> Parse(ByteReader& r);
  bool operator==(const DriverRequestPayload&) const = default;
};

// (5) driver upload: the serialized DriverImage for one device type.
struct DriverUploadPayload {
  DeviceTypeId device_id = 0;
  std::vector<uint8_t> driver_image;

  void Serialize(ByteWriter& w) const;
  static Result<DriverUploadPayload> Parse(ByteReader& r);
  bool operator==(const DriverUploadPayload&) const = default;
};

// (7) driver advertisement: the installed driver ids.
struct DriverAdvertisementPayload {
  std::vector<DeviceTypeId> driver_ids;

  void Serialize(ByteWriter& w) const;
  static Result<DriverAdvertisementPayload> Parse(ByteReader& r);
  bool operator==(const DriverAdvertisementPayload&) const = default;
};

// (9) driver removal ack and (17) write ack: device + status (0 = ok).
struct StatusAckPayload {
  DeviceTypeId device_id = 0;
  uint8_t status = 0;

  void Serialize(ByteWriter& w) const;
  static Result<StatusAckPayload> Parse(ByteReader& r);
  bool operator==(const StatusAckPayload&) const = default;
};

// (11) data and (14) stream data: a produced value.
struct ValuePayload {
  DeviceTypeId device_id = 0;
  WireValue value;

  void Serialize(ByteWriter& w) const;
  static Result<ValuePayload> Parse(ByteReader& r);
  bool operator==(const ValuePayload&) const = default;
};

// (12) stream request: period in ms; 0 requests stream shutdown.
struct StreamRequestPayload {
  DeviceTypeId device_id = 0;
  uint32_t period_ms = 0;

  void Serialize(ByteWriter& w) const;
  static Result<StreamRequestPayload> Parse(ByteReader& r);
  bool operator==(const StreamRequestPayload&) const = default;
};

// (13) stream established: the multicast group carrying the values.
struct StreamEstablishedPayload {
  DeviceTypeId device_id = 0;
  Ip6Address group;

  void Serialize(ByteWriter& w) const;
  static Result<StreamEstablishedPayload> Parse(ByteReader& r);
  bool operator==(const StreamEstablishedPayload&) const = default;
};

// (16) write: the value to establish.
struct WritePayload {
  DeviceTypeId device_id = 0;
  int32_t value = 0;

  void Serialize(ByteWriter& w) const;
  static Result<WritePayload> Parse(ByteReader& r);
  bool operator==(const WritePayload&) const = default;
};

// Offer flag: the Thing's cached image is byte-identical to the repository's
// current image — no chunks follow, install from the local copy.
inline constexpr uint8_t kDriverOfferUpToDate = 0x01;

// (18) driver upload offer: the chunked-transfer preamble, echoing the (4)'s
// sequence so the Thing's endpoint transaction completes on it.  Everything
// the receiver needs to size buffers and detect gaps before a single chunk
// arrives.
struct DriverOfferPayload {
  DeviceTypeId device_id = 0;
  uint32_t image_crc = 0;   // CRC-32 of the full serialized image
  uint32_t total_size = 0;  // serialized image size in bytes
  uint16_t chunk_size = 0;  // bytes per chunk (last chunk may be shorter)
  uint16_t chunk_count = 0;
  uint8_t flags = 0;        // kDriverOfferUpToDate

  void Serialize(ByteWriter& w) const;
  static Result<DriverOfferPayload> Parse(ByteReader& r);
  bool operator==(const DriverOfferPayload&) const = default;
};

// (19) one image chunk.  Sized so the whole message fits a single 6LoWPAN
// fragment: losing one frame costs one chunk, never the whole image.
struct DriverChunkPayload {
  DeviceTypeId device_id = 0;
  uint32_t image_crc = 0;
  uint16_t chunk_index = 0;
  uint16_t chunk_count = 0;
  std::vector<uint8_t> data;

  void Serialize(ByteWriter& w) const;
  static Result<DriverChunkPayload> Parse(ByteReader& r);
  bool operator==(const DriverChunkPayload&) const = default;
};

// (20) selective-repeat chunk request: the Thing NACKs only the gaps.
struct DriverChunkRequestPayload {
  DeviceTypeId device_id = 0;
  uint32_t image_crc = 0;
  std::vector<uint16_t> chunk_indices;

  void Serialize(ByteWriter& w) const;
  static Result<DriverChunkRequestPayload> Parse(ByteReader& r);
  bool operator==(const DriverChunkRequestPayload&) const = default;
};

using MessagePayload =
    std::variant<AdvertisementPayload, PeripheralDiscoveryPayload, DeviceTargetPayload,
                 DriverUploadPayload, DriverAdvertisementPayload, StatusAckPayload, ValuePayload,
                 StreamRequestPayload, StreamEstablishedPayload, WritePayload,
                 DriverRequestPayload, DriverOfferPayload, DriverChunkPayload,
                 DriverChunkRequestPayload>;

// True iff `payload` holds the variant alternative that wire type `type`
// carries.
bool PayloadMatchesType(MessageType type, const MessagePayload& payload);

struct Message {
  // Defaults are mutually consistent: the default-constructed payload holds
  // the first variant alternative (AdvertisementPayload), which is what an
  // unsolicited advertisement carries.
  MessageType type = MessageType::kUnsolicitedAdvertisement;
  SequenceNumber sequence = 0;
  MessagePayload payload;

  // Typed access; nullptr when the payload is a different shape.
  template <typename T>
  const T* payload_as() const {
    return std::get_if<T>(&payload);
  }
  template <typename T>
  T* payload_as() {
    return std::get_if<T>(&payload);
  }

  // Serializes header + payload.  The payload alternative must match `type`
  // (checked; a mismatched message serializes as an empty-payload header in
  // release builds and asserts in debug builds).
  std::vector<uint8_t> Serialize() const;
  // Serializes into `out` (cleared first, capacity reused) — the endpoint's
  // retransmit buffers go through this to avoid per-request allocation.
  void SerializeInto(std::vector<uint8_t>& out) const;
  // Parses and validates: unknown types, payload/type mismatches and
  // truncated or trailing bytes are all parse errors, never crashes.
  static Result<Message> Parse(ByteSpan bytes);

  bool operator==(const Message&) const = default;
};

// Builds a message, asserting the payload shape matches the wire type.
Message MakeMessage(MessageType type, SequenceNumber seq, MessagePayload payload);

}  // namespace micropnp

#endif  // SRC_PROTO_MESSAGES_H_
