// The μPnP multicast addressing schema.
//
// Discovery groups (Section 5.1, Figure 9), joined by every Thing carrying
// the peripheral type:
//
//   | 32 bits    | 48 bits          | 16 bits | 32 bits        |
//   | ff3e:0030  | network prefix   | 0       | peripheral id  |
//
// "µPnP then creates and maintains an IPv6 multicast group for each device
// type present in the network."  Reserved peripheral values: 0x00000000 =
// all peripherals, 0xffffffff = all μPnP clients.
//
// Stream groups (Section 5.2), one per (Thing, device), named by the (13)
// reply and joined only by the stream's subscribers.  The layout follows
// RFC 4489's interface-ID-based groups, with Figure 9's scope e:
//
//   | 32 bits    | 64 bits                       | 32 bits        |
//   | ff3e:00ff  | Thing's interface identifier  | peripheral id  |

#ifndef SRC_NET_MULTICAST_SCHEMA_H_
#define SRC_NET_MULTICAST_SCHEMA_H_

#include <cstdint>
#include <optional>

#include "src/common/types.h"
#include "src/net/ip6.h"

namespace micropnp {

// The fixed 32-bit prefix of every Figure 9 group: ff3e:0030.
inline constexpr uint16_t kMulticastGroup0 = 0xff3e;
inline constexpr uint16_t kMulticastGroup1 = 0x0030;
// The second word of every stream group: ff3e:00ff.
inline constexpr uint16_t kStreamGroup1 = 0x00ff;

// A 48-bit network prefix, e.g. 0x20010db80000 for 2001:db8::/48.
using NetworkPrefix48 = uint64_t;

// Extracts the top 48 bits of a unicast address as a NetworkPrefix48.
NetworkPrefix48 PrefixOf(const Ip6Address& unicast);

// Multicast group of all Things carrying peripheral type `id` inside the
// network prefix (Figure 9's worked example).
Ip6Address PeripheralGroup(NetworkPrefix48 prefix, DeviceTypeId id);

// Reserved groups (Section 5.1 a/b).
Ip6Address AllPeripheralsGroup(NetworkPrefix48 prefix);
Ip6Address AllClientsGroup(NetworkPrefix48 prefix);

// Multicast group carrying the (14) values and (15) close of the stream of
// peripheral `device` on the Thing with unicast address `thing`.  Its second
// word is not Figure 9's, so it never equals a Figure 9 group, and the Thing's
// interface identifier keeps two Things' groups apart.
Ip6Address StreamGroup(const Ip6Address& thing, DeviceTypeId device);

// True iff `addr` has Figure 9's layout; false for stream groups.
bool IsMicroPnpGroup(const Ip6Address& addr);

// Recovers the peripheral type id from a schema address; nullopt when the
// address does not have Figure 9's layout.
std::optional<DeviceTypeId> GroupPeripheral(const Ip6Address& addr);

// Recovers the embedded 48-bit network prefix from a schema address.
std::optional<NetworkPrefix48> GroupPrefix(const Ip6Address& addr);

}  // namespace micropnp

#endif  // SRC_NET_MULTICAST_SCHEMA_H_
