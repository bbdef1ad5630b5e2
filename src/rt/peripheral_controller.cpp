#include "src/rt/peripheral_controller.h"

#include "src/common/logging.h"

namespace micropnp {

static_assert(ControlBoard::kNumChannels == 3, "one ChannelBus initializer per connector");

PeripheralController::PeripheralController(Scheduler& scheduler, Rng& rng)
    : scheduler_(scheduler),
      rng_(rng.Fork()),
      board_(IdentCircuitConfig{}, rng),
      buses_{ChannelBus(scheduler), ChannelBus(scheduler), ChannelBus(scheduler)} {
  board_.set_interrupt_handler([this] { OnInterrupt(); });
}

Status PeripheralController::Plug(ChannelId channel, Peripheral* peripheral) {
  if (peripheral == nullptr) {
    return InvalidArgument("null peripheral");
  }
  if (channel >= plugged_.size()) {
    return OutOfRange("channel out of range");
  }
  // Manufacture the identification plug for this peripheral instance; the
  // resistor tolerances come from the controller's seeded stream, so
  // scenarios are deterministic per deployment seed.
  PeripheralPlug plug =
      MakePlugForId(board_.codec(), peripheral->type_id(), peripheral->bus(), rng_);
  MICROPNP_RETURN_IF_ERROR(board_.Connect(channel, plug));
  plugged_[channel] = peripheral;
  peripheral->AttachTo(buses_[channel]);
  return OkStatus();
}

Status PeripheralController::Unplug(ChannelId channel) {
  if (channel >= plugged_.size()) {
    return OutOfRange("channel out of range");
  }
  if (plugged_[channel] == nullptr) {
    return NotFound("channel empty");
  }
  MICROPNP_RETURN_IF_ERROR(board_.Disconnect(channel));
  plugged_[channel]->DetachFrom(buses_[channel]);
  plugged_[channel] = nullptr;
  return OkStatus();
}

std::optional<DeviceTypeId> PeripheralController::identified(ChannelId channel) const {
  return channel < identified_.size() ? identified_[channel] : std::nullopt;
}

Peripheral* PeripheralController::peripheral(ChannelId channel) const {
  return channel < plugged_.size() ? plugged_[channel] : nullptr;
}

void PeripheralController::OnInterrupt() {
  if (scan_scheduled_) {
    return;  // a scan is already pending; it will observe the latest state
  }
  scan_scheduled_ = true;
  // The scan result (including its duration) is computed by the board model;
  // the controller applies it after that duration elapses on the simulation
  // clock — modelling the MCU blocked in the identification routine.
  scheduler_.ScheduleAfter(SimTime::FromNanos(0), [this] {
    const ScanResult scan = board_.Scan();
    for (size_t ch = 0; ch < scan.channels.size(); ++ch) {
      scanned_occupied_[ch] = scan.channels[ch].occupied;
      scanned_id_[ch] = scan.channels[ch].id;
    }
    scheduler_.ScheduleAfter(SimTime::FromSeconds(scan.duration.value()), [this] {
      scan_scheduled_ = false;
      ApplyScan();
      // Plug changes racing with the scan re-raise the interrupt for
      // another pass.
      if (board_.interrupt_pending()) {
        OnInterrupt();
      }
    });
  });
}

void PeripheralController::ApplyScan() {
  for (ChannelId ch = 0; ch < scanned_id_.size(); ++ch) {
    const std::optional<DeviceTypeId> scanned = scanned_id_[ch];
    const std::optional<DeviceTypeId> before = identified_[ch];

    if (!scanned_occupied_[ch]) {
      buses_[ch].Select(std::nullopt);
      identified_[ch] = std::nullopt;
      if (before.has_value() && listener_) {
        listener_(ch, *before, /*connected=*/false);
      }
      continue;
    }
    if (!scanned.has_value()) {
      // Guard-band rejection: rescan rather than act on a dubious id.
      MLOG(kDebug, "rt") << "channel " << static_cast<int>(ch) << " pulse decode rejected; rescan";
      board_.set_interrupt_handler([this] { OnInterrupt(); });
      OnInterrupt();
      continue;
    }
    if (before == *scanned) {
      continue;  // unchanged
    }
    if (before.has_value() && listener_) {
      listener_(ch, *before, /*connected=*/false);
    }
    // Mux the connector pins onto the identified peripheral's bus (Table 1).
    const std::optional<BusKind> bus = board_.bus_for_channel(ch);
    buses_[ch].Select(bus);
    identified_[ch] = *scanned;
    if (listener_) {
      listener_(ch, *scanned, /*connected=*/true);
    }
  }
}

}  // namespace micropnp
