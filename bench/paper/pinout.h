// Connector pinout (Section 3.1, Table 1).
//
// The prototype uses a 19-pin mini-HDMI connector: pins 1..8 carry the
// identification circuit, pins 10..12 are multiplexed onto the communication
// bus selected after identification.

#ifndef BENCH_PAPER_PINOUT_H_
#define BENCH_PAPER_PINOUT_H_

#include <array>
#include <string>

#include "src/common/bus_kind.h"

namespace micropnp {

inline constexpr int kConnectorPinCount = 19;
inline constexpr int kIdentPinFirst = 1;
inline constexpr int kIdentPinLast = 8;
inline constexpr int kCommPinFirst = 10;
inline constexpr int kCommPinLast = 12;

// Signal assigned to a communication pin for a given bus (Table 1).
// Pins outside 10..12 and unconnected pins return "N/C".
std::string CommPinSignal(BusKind bus, int pin);

// All three communication pin signals for a bus, pins 10, 11, 12.
std::array<std::string, 3> CommPinRow(BusKind bus);

}  // namespace micropnp

#endif  // BENCH_PAPER_PINOUT_H_
