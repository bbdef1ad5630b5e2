#include "src/common/crc.h"

#include <array>

namespace micropnp {
namespace {

constexpr std::array<uint32_t, 256> BuildCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256> kCrc32Table = BuildCrc32Table();

// Entry i is the CRC-16/CCITT register after shifting byte i through it from
// zero, MSB first.
constexpr std::array<uint16_t, 256> BuildCrc16Table() {
  std::array<uint16_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint16_t c = static_cast<uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      c = static_cast<uint16_t>((c & 0x8000u) ? ((c << 1) ^ 0x1021u) : (c << 1));
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint16_t, 256> kCrc16Table = BuildCrc16Table();

}  // namespace

uint16_t Crc16Ccitt(ByteSpan data) {
  uint16_t crc = 0xffff;
  for (uint8_t byte : data) {
    crc = static_cast<uint16_t>((crc << 8) ^ kCrc16Table[((crc >> 8) ^ byte) & 0xffu]);
  }
  return crc;
}

uint32_t Crc32(ByteSpan data) {
  uint32_t crc = 0xffffffffu;
  for (uint8_t byte : data) {
    crc = kCrc32Table[(crc ^ byte) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace micropnp
