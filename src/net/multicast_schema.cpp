#include "src/net/multicast_schema.h"

namespace micropnp {

NetworkPrefix48 PrefixOf(const Ip6Address& unicast) {
  NetworkPrefix48 prefix = 0;
  for (int i = 0; i < 6; ++i) {
    prefix = (prefix << 8) | unicast.bytes()[i];
  }
  return prefix;
}

Ip6Address PeripheralGroup(NetworkPrefix48 prefix, DeviceTypeId id) {
  Ip6Address addr;
  addr.set_group(0, kMulticastGroup0);
  addr.set_group(1, kMulticastGroup1);
  addr.set_group(2, static_cast<uint16_t>((prefix >> 32) & 0xffff));
  addr.set_group(3, static_cast<uint16_t>((prefix >> 16) & 0xffff));
  addr.set_group(4, static_cast<uint16_t>(prefix & 0xffff));
  addr.set_group(5, 0);  // 16 bits of padding (Figure 9)
  addr.set_group(6, static_cast<uint16_t>(id >> 16));
  addr.set_group(7, static_cast<uint16_t>(id & 0xffff));
  return addr;
}

Ip6Address AllPeripheralsGroup(NetworkPrefix48 prefix) {
  return PeripheralGroup(prefix, kDeviceTypeAllPeripherals);
}

Ip6Address AllClientsGroup(NetworkPrefix48 prefix) {
  return PeripheralGroup(prefix, kDeviceTypeAllClients);
}

Ip6Address StreamGroup(const Ip6Address& thing, DeviceTypeId device) {
  Ip6Address addr;
  addr.set_group(0, kMulticastGroup0);
  addr.set_group(1, kStreamGroup1);
  for (int i = 2; i < 6; ++i) {
    addr.set_group(i, thing.group(i + 2));  // the 64-bit interface identifier
  }
  addr.set_group(6, static_cast<uint16_t>(device >> 16));
  addr.set_group(7, static_cast<uint16_t>(device & 0xffff));
  return addr;
}

bool IsMicroPnpGroup(const Ip6Address& addr) {
  return addr.group(0) == kMulticastGroup0 && addr.group(1) == kMulticastGroup1 &&
         addr.group(5) == 0;
}

std::optional<DeviceTypeId> GroupPeripheral(const Ip6Address& addr) {
  if (!IsMicroPnpGroup(addr)) {
    return std::nullopt;
  }
  return (static_cast<DeviceTypeId>(addr.group(6)) << 16) | addr.group(7);
}

std::optional<NetworkPrefix48> GroupPrefix(const Ip6Address& addr) {
  if (!IsMicroPnpGroup(addr)) {
    return std::nullopt;
  }
  return (static_cast<NetworkPrefix48>(addr.group(2)) << 32) |
         (static_cast<NetworkPrefix48>(addr.group(3)) << 16) | addr.group(4);
}

}  // namespace micropnp
