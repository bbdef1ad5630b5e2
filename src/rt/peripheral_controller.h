// The peripheral controller (Section 4.2).
//
// "The peripheral controller interfaces with the µPnP control board and
// implements the hardware identification algorithm.  Peripheral connection
// or disconnection is detected based upon an interrupt.  The peripheral
// identification circuit is then activated and the timed pulse that results
// is read via a digital I/O pin."
//
// The controller owns the control board and one ChannelBus per channel.  On
// interrupt it runs the identification scan; after the scan's (simulated)
// duration it muxes each channel onto the identified peripheral's bus and
// notifies the listener (the Thing) of connects/disconnects — which drives
// driver activation and the network advertisement flow.
//
// The board has a fixed number of connectors, so the buses and the
// per-channel presence and identification state are arrays held inline:
// a controller allocates nothing of its own.  That includes the scan in
// flight: between the scan and the end of its duration the controller holds
// what ApplyScan reads of it (each channel's occupied flag and decoded id),
// so both scheduled steps capture only `this` and fit std::function's
// inline buffer.

#ifndef SRC_RT_PERIPHERAL_CONTROLLER_H_
#define SRC_RT_PERIPHERAL_CONTROLLER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "src/hw/control_board.h"
#include "src/periph/peripheral.h"
#include "src/rt/driver_manager.h"
#include "src/sim/scheduler.h"

namespace micropnp {

class PeripheralController {
 public:
  PeripheralController(Scheduler& scheduler, Rng& rng);

  ChannelBus& bus(ChannelId channel) { return buses_[channel]; }
  const ControlBoard& board() const { return board_; }
  ControlBoard& board() { return board_; }

  // Physically connects/disconnects a peripheral.  The identification scan
  // runs asynchronously on the simulation clock; listeners fire when it
  // completes.
  Status Plug(ChannelId channel, Peripheral* peripheral);
  Status Unplug(ChannelId channel);

  // Identified device on a channel (nullopt before identification or when
  // empty).
  std::optional<DeviceTypeId> identified(ChannelId channel) const;
  Peripheral* peripheral(ChannelId channel) const;

  // Fired after each scan, once per changed channel.
  // connected=true: `id` was identified on `channel` (bus already muxed).
  // connected=false: the channel became empty.
  using ChangeListener = std::function<void(ChannelId, DeviceTypeId id, bool connected)>;
  void set_change_listener(ChangeListener listener) { listener_ = std::move(listener); }

 private:
  void OnInterrupt();
  void ApplyScan();

  Scheduler& scheduler_;
  Rng rng_;  // per-plug resistor manufacturing variation
  ControlBoard board_;
  std::array<ChannelBus, ControlBoard::kNumChannels> buses_;
  // Physical presence, and the post-scan state.
  std::array<Peripheral*, ControlBoard::kNumChannels> plugged_{};
  std::array<std::optional<DeviceTypeId>, ControlBoard::kNumChannels> identified_{};
  ChangeListener listener_;
  // The scan in flight, from the scan until its duration has elapsed (one
  // at a time: while scan_scheduled_).
  std::array<std::optional<DeviceTypeId>, ControlBoard::kNumChannels> scanned_id_{};
  std::array<bool, ControlBoard::kNumChannels> scanned_occupied_{};
  bool scan_scheduled_ = false;
};

}  // namespace micropnp

#endif  // SRC_RT_PERIPHERAL_CONTROLLER_H_
