// The μPnP control board (Sections 3.1, 3.2).
//
// The board sits between the host MCU and the peripheral connectors.  It
// holds one shared chain of four monostable multivibrators; each channel is
// enabled for a discrete time slot t_ch so all channels can share the chain
// (Figure 5).  Three host pins interface with the board: `start` (trigger),
// `output` (daisy-chained pulses) and an interrupt raised on connect or
// disconnect.  An interrupt power-gates the board: it only draws power from
// the moment a peripheral changes until the scan completes, which is why
// average power scales linearly with the plug/unplug rate (Figure 12).
//
// Timing/energy calibration (constants in control_board.cpp; see
// docs/BENCHMARKS.md, "Substitutions"): with the default codec (E96 ladder,
// 3.48 kOhm base, k=1.1, C=10 nF), a full 3-channel scan plus the
// verification pass over the connected channel lands in the paper's measured
// 220..300 ms identification window, and the two-level power model (quiet vs
// pulse-high) lands in the 2.48..6.756 mJ energy window.
//
// Every Thing holds a board, so it is sized for a fleet: the connectors, the
// plugs on them and a scan's per-channel results are inline arrays, and a
// plug keeps only the manufactured resistors the scan measures.

#ifndef SRC_HW_CONTROL_BOARD_H_
#define SRC_HW_CONTROL_BOARD_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "src/common/bus_kind.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/hw/id_codec.h"
#include "src/hw/multivibrator.h"

namespace micropnp {

// What physically arrives on a connector: four identification resistors
// (already manufactured, i.e. with sampled actual values) plus the bus the
// peripheral speaks.  Higher layers attach the behavioural device model.
struct PeripheralPlug {
  std::array<Ohms, 4> actual_resistors{};
  BusKind bus = BusKind::kAdc;
};

// Manufactures a plug for `id`: designs the nominal resistor set and samples
// actual values with the codec's resistor tolerance.
PeripheralPlug MakePlugForId(const IdentCodec& codec, DeviceTypeId id, BusKind bus, Rng& rng);

// Identification outcome for one channel.
struct ChannelScan {
  bool occupied = false;
  // Set when all four pulses decoded cleanly; nullopt for an occupied channel
  // whose pulses fell in a guard band (caller should rescan).
  std::optional<DeviceTypeId> id;
  std::array<Seconds, 4> pulses{};
};

struct ScanResult;  // below: its channel array is sized by the board

class ControlBoard {
 public:
  // Peripheral connectors on the board (the prototype's three).
  static constexpr int kNumChannels = 3;

  // `rng` seeds the board's multivibrator manufacturing variation.
  ControlBoard(const IdentCircuitConfig& circuit, Rng& rng);

  const IdentCodec& codec() const { return codec_; }

  // Plugs a peripheral into `channel`; raises the interrupt.
  Status Connect(ChannelId channel, const PeripheralPlug& plug);
  // Removes the peripheral from `channel`; raises the interrupt.
  Status Disconnect(ChannelId channel);

  bool occupied(ChannelId channel) const;
  std::optional<BusKind> bus_for_channel(ChannelId channel) const;

  // Connect/disconnect interrupt line (Section 3.2).  The handler runs
  // synchronously inside Connect()/Disconnect().
  using InterruptHandler = std::function<void()>;
  void set_interrupt_handler(InterruptHandler handler) { interrupt_handler_ = std::move(handler); }
  bool interrupt_pending() const { return interrupt_pending_; }

  // Runs the identification routine over all channels (clears the pending
  // interrupt).  Produces per-channel device ids, total duration,
  // pulse-high time and energy per the calibrated model.
  ScanResult Scan();

  // Total energy drawn by the board since construction.  The board is power
  // gated, so this only grows during scans.
  Joules lifetime_energy() const { return lifetime_energy_; }
  uint64_t scan_count() const { return scan_count_; }

 private:
  struct Channel {
    std::optional<PeripheralPlug> plug;
  };

  // Produces the four measured (quantized) pulses for a plug.
  std::array<Seconds, 4> MeasurePulses(const PeripheralPlug& plug) const;

  IdentCodec codec_;
  std::array<MonostableMultivibrator, 4> vibs_;    // the shared chain
  std::array<Seconds, 4> calibrated_reference_{};  // factory calibration
  std::array<Channel, kNumChannels> channels_;
  InterruptHandler interrupt_handler_;
  bool interrupt_pending_ = false;
  Joules lifetime_energy_{0.0};
  uint64_t scan_count_ = 0;
};

// One identification process over every connector.
struct ScanResult {
  std::array<ChannelScan, ControlBoard::kNumChannels> channels{};
  Seconds duration;         // wall time of the identification process
  Seconds pulse_high_time;  // total time the multivibrator outputs were high
  Joules energy;            // board energy for this identification process
};

}  // namespace micropnp

#endif  // SRC_HW_CONTROL_BOARD_H_
