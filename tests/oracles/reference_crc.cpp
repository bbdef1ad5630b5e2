#include "tests/oracles/reference_crc.h"

namespace micropnp {

uint16_t ReferenceCrc16Ccitt(ByteSpan data) {
  uint16_t crc = 0xffff;
  for (uint8_t byte : data) {
    crc = static_cast<uint16_t>(crc ^ (static_cast<uint16_t>(byte) << 8));
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x8000u) {
        crc = static_cast<uint16_t>((crc << 1) ^ 0x1021u);
      } else {
        crc = static_cast<uint16_t>(crc << 1);
      }
    }
  }
  return crc;
}

}  // namespace micropnp
