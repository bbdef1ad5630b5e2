// The seed's bitwise CRC-16/CCITT-FALSE, kept as a test oracle.
//
// ReferenceCrc16Ccitt shifts each message bit through the register one at a
// time, straight from the polynomial's definition.  The production
// Crc16Ccitt (src/common/crc.h) looks a whole byte up in a table; the CRC
// tests hold the two to the same value on random inputs.

#ifndef TESTS_ORACLES_REFERENCE_CRC_H_
#define TESTS_ORACLES_REFERENCE_CRC_H_

#include <cstdint>

#include "src/common/bytes.h"

namespace micropnp {

// CRC-16/CCITT-FALSE: poly 0x1021, init 0xffff, no reflection, no xorout.
uint16_t ReferenceCrc16Ccitt(ByteSpan data);

}  // namespace micropnp

#endif  // TESTS_ORACLES_REFERENCE_CRC_H_
