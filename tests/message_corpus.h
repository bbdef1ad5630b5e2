// Shared test corpus: one representative message per wire type (1)..(20),
// with every payload field populated.  proto_test uses it for round-trip
// coverage; endpoint_test drives its truncation/garbage robustness sweeps
// over the same list, so a new message type added here is automatically
// covered by both suites.

#ifndef TESTS_MESSAGE_CORPUS_H_
#define TESTS_MESSAGE_CORPUS_H_

#include <vector>

#include "src/net/multicast_schema.h"
#include "src/periph/peripheral.h"
#include "src/proto/messages.h"

namespace micropnp {

inline std::vector<Message> RepresentativeMessages() {
  AdvertisedPeripheral p;
  p.type = kTmp36TypeId;
  p.info.AddString(TlvType::kFriendlyName, "TMP36");
  p.info.AddU8(TlvType::kChannel, 1);
  WireValue scalar;
  scalar.scalar = -42;
  WireValue array;
  array.is_array = true;
  array.bytes = {'4', 'A', '0', '0', 'D', '2'};
  const Ip6Address group = PeripheralGroup(0x20010db80000ull, 0xad1c0001);
  return {
      MakeMessage(MessageType::kUnsolicitedAdvertisement, 101, AdvertisementPayload{{p}}),
      MakeMessage(MessageType::kPeripheralDiscovery, 102, PeripheralDiscoveryPayload{}),
      MakeMessage(MessageType::kSolicitedAdvertisement, 103, AdvertisementPayload{{p}}),
      MakeMessage(MessageType::kDriverInstallRequest, 104,
                  DriverRequestPayload{0xad1c0001, 0xdeadbeef, 12, {0xff, 0x0f}}),
      MakeMessage(MessageType::kDriverUpload, 105, DriverUploadPayload{0xad1c0001, {1, 2, 3}}),
      MakeMessage(MessageType::kDriverDiscovery, 106,
                  DeviceTargetPayload{kDeviceTypeAllPeripherals}),
      MakeMessage(MessageType::kDriverAdvertisement, 107,
                  DriverAdvertisementPayload{{0xad1c0001, 0x0a0b0004}}),
      MakeMessage(MessageType::kDriverRemovalRequest, 108, DeviceTargetPayload{0xad1c0001}),
      MakeMessage(MessageType::kDriverRemovalAck, 109, StatusAckPayload{0xad1c0001, 1}),
      MakeMessage(MessageType::kRead, 110, DeviceTargetPayload{0xad1c0001}),
      MakeMessage(MessageType::kData, 111, ValuePayload{0xad1c0001, scalar}),
      MakeMessage(MessageType::kStream, 112, StreamRequestPayload{0xad1c0001, 10'000}),
      MakeMessage(MessageType::kStreamEstablished, 113,
                  StreamEstablishedPayload{0xad1c0001, group}),
      MakeMessage(MessageType::kStreamData, 114, ValuePayload{0xad1c0001, array}),
      MakeMessage(MessageType::kStreamClosed, 115, DeviceTargetPayload{0xad1c0001}),
      MakeMessage(MessageType::kWrite, 116, WritePayload{0xad1c0001, 17}),
      MakeMessage(MessageType::kWriteAck, 117, StatusAckPayload{0xad1c0001, 0}),
      MakeMessage(MessageType::kDriverUploadOffer, 118,
                  DriverOfferPayload{0xad1c0001, 0xdeadbeef, 670, 56, 12, 0}),
      MakeMessage(MessageType::kDriverChunk, 119,
                  DriverChunkPayload{0xad1c0001, 0xdeadbeef, 11, 12, {9, 8, 7, 6}}),
      MakeMessage(MessageType::kDriverChunkRequest, 120,
                  DriverChunkRequestPayload{0xad1c0001, 0xdeadbeef, {0, 3, 11}}),
  };
}

}  // namespace micropnp

#endif  // TESTS_MESSAGE_CORPUS_H_
