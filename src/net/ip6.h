// IPv6 addresses for the μPnP network architecture (Section 5).
//
// Minimal but real: 128-bit addresses, textual parsing/formatting with '::'
// compression (RFC 5952 style, as the paper's footnote 1 references),
// multicast classification, and prefix arithmetic used by the
// unicast-prefix-based multicast schema (RFC 3306, Figure 9).

#ifndef SRC_NET_IP6_H_
#define SRC_NET_IP6_H_

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace micropnp {

class Ip6Address {
 public:
  constexpr Ip6Address() : bytes_{} {}
  explicit constexpr Ip6Address(const std::array<uint8_t, 16>& bytes) : bytes_(bytes) {}

  // Builds from eight 16-bit groups, e.g. {0x2001, 0xdb8, 0, 0, 0, 0, 0, 1}.
  static Ip6Address FromGroups(const std::array<uint16_t, 8>& groups);

  // Parses textual form ("2001:db8::1", "ff3e:30:2001:db8::ed3f:ac1").
  // Returns nullopt on malformed input.
  static std::optional<Ip6Address> Parse(const std::string& text);

  const std::array<uint8_t, 16>& bytes() const { return bytes_; }
  uint16_t group(int i) const {
    return static_cast<uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
  }
  void set_group(int i, uint16_t v) {
    bytes_[2 * i] = static_cast<uint8_t>(v >> 8);
    bytes_[2 * i + 1] = static_cast<uint8_t>(v & 0xff);
  }

  // Bytes 8*half .. 8*half+7 as one big-endian word (half 0 is the prefix).
  constexpr uint64_t word(int half) const {
    uint64_t v = 0;
    for (int k = 0; k < 8; ++k) {
      v = (v << 8) | bytes_[static_cast<size_t>(8 * half + k)];
    }
    return v;
  }

  bool IsUnspecified() const { return *this == Ip6Address(); }
  bool IsMulticast() const { return bytes_[0] == 0xff; }

  // RFC 5952 canonical text: lowercase hex, longest zero run compressed.
  std::string ToString() const;

  // Lexicographic byte order, compared as two big-endian words: the same
  // order a defaulted comparison of the bytes gives, without calling memcmp
  // on every route, group lookup and map search.
  friend constexpr bool operator==(const Ip6Address& a, const Ip6Address& b) {
    return a.word(0) == b.word(0) && a.word(1) == b.word(1);
  }
  friend constexpr std::strong_ordering operator<=>(const Ip6Address& a, const Ip6Address& b) {
    const uint64_t a0 = a.word(0);
    const uint64_t b0 = b.word(0);
    return a0 != b0 ? a0 <=> b0 : a.word(1) <=> b.word(1);
  }

 private:
  std::array<uint8_t, 16> bytes_;
};

// A routing prefix (address + length in bits).
struct Ip6Prefix {
  Ip6Address base;
  int length = 64;

  bool Contains(const Ip6Address& addr) const;
};

// Mixes the 128 address bits down to a well-distributed 64-bit hash
// (SplitMix64 finalizer over the two halves).  The hot-path routing and
// pending tables key unordered containers on addresses with this.
inline uint64_t HashIp6(const Ip6Address& addr) {
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  return mix(addr.word(0) + 0x9e3779b97f4a7c15ull * mix(addr.word(1)));
}

}  // namespace micropnp

template <>
struct std::hash<micropnp::Ip6Address> {
  size_t operator()(const micropnp::Ip6Address& addr) const noexcept {
    return static_cast<size_t>(micropnp::HashIp6(addr));
  }
};

#endif  // SRC_NET_IP6_H_
