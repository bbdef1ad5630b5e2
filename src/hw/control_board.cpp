#include "src/hw/control_board.h"

namespace micropnp {
namespace {

// Timing model.
constexpr Seconds kWakeupTime = MilliSeconds(2.0);    // interrupt -> board powered
constexpr Seconds kChannelSlot = MilliSeconds(74.0);  // t_ch, Figure 5
constexpr Seconds kVerifySetup = MilliSeconds(2.0);   // per connected channel
// Two-level power model (see the header comment).
constexpr Watts kPowerQuiet = Watts(10.95e-3);  // board on, outputs low
constexpr Watts kPowerActive = Watts(36.0e-3);  // multivibrator output high

}  // namespace

PeripheralPlug MakePlugForId(const IdentCodec& codec, DeviceTypeId id, BusKind bus, Rng& rng) {
  const std::array<Ohms, 4> nominal = codec.ResistorsForId(id);
  PeripheralPlug plug;
  for (int i = 0; i < 4; ++i) {
    plug.actual_resistors[i] =
        Ohms(SampleToleranced(nominal[i].value(), codec.config().resistor_tolerance, rng));
  }
  plug.bus = bus;
  return plug;
}

ControlBoard::ControlBoard(const IdentCircuitConfig& circuit, Rng& rng)
    // A braced list initializes in order, so the four parts are manufactured
    // (draw from `rng`) first to last.
    : codec_(circuit),
      vibs_{MonostableMultivibrator(circuit.vib, rng), MonostableMultivibrator(circuit.vib, rng),
            MonostableMultivibrator(circuit.vib, rng), MonostableMultivibrator(circuit.vib, rng)} {
  for (int i = 0; i < 4; ++i) {
    calibrated_reference_[i] = vibs_[i].CalibratedReference(circuit.base_resistor);
  }
}

Status ControlBoard::Connect(ChannelId channel, const PeripheralPlug& plug) {
  if (channel >= channels_.size()) {
    return OutOfRange("channel out of range");
  }
  if (channels_[channel].plug.has_value()) {
    return AlreadyExists("channel occupied");
  }
  channels_[channel].plug = plug;
  interrupt_pending_ = true;
  if (interrupt_handler_) {
    interrupt_handler_();
  }
  return OkStatus();
}

Status ControlBoard::Disconnect(ChannelId channel) {
  if (channel >= channels_.size()) {
    return OutOfRange("channel out of range");
  }
  if (!channels_[channel].plug.has_value()) {
    return NotFound("channel empty");
  }
  channels_[channel].plug.reset();
  interrupt_pending_ = true;
  if (interrupt_handler_) {
    interrupt_handler_();
  }
  return OkStatus();
}

bool ControlBoard::occupied(ChannelId channel) const {
  return channel < channels_.size() && channels_[channel].plug.has_value();
}

std::optional<BusKind> ControlBoard::bus_for_channel(ChannelId channel) const {
  if (!occupied(channel)) {
    return std::nullopt;
  }
  return channels_[channel].plug->bus;
}

std::array<Seconds, 4> ControlBoard::MeasurePulses(const PeripheralPlug& plug) const {
  std::array<Seconds, 4> pulses;
  for (int i = 0; i < 4; ++i) {
    pulses[i] = codec_.Quantize(vibs_[i].PulseFor(plug.actual_resistors[i]));
  }
  return pulses;
}

ScanResult ControlBoard::Scan() {
  ScanResult result;

  Seconds duration = kWakeupTime;
  Seconds pulse_high{0.0};

  // Scan pass: every channel gets a fixed t_ch slot (Figure 5) so that the
  // worst-case four-pulse sequence always fits.
  for (size_t ch = 0; ch < channels_.size(); ++ch) {
    duration += kChannelSlot;
    ChannelScan& scan = result.channels[ch];
    if (!channels_[ch].plug.has_value()) {
      continue;
    }
    const PeripheralPlug& plug = *channels_[ch].plug;
    scan.occupied = true;
    scan.pulses = MeasurePulses(plug);
    for (const Seconds& p : scan.pulses) {
      pulse_high += p;
    }
    std::array<std::optional<uint8_t>, 4> bytes;
    bool all_ok = true;
    for (int i = 0; i < 4; ++i) {
      bytes[i] = codec_.DecodePulse(scan.pulses[i], calibrated_reference_[i]);
      all_ok = all_ok && bytes[i].has_value();
    }
    if (all_ok) {
      scan.id = MakeDeviceTypeId(*bytes[0], *bytes[1], *bytes[2], *bytes[3]);
    }
  }

  // Verification pass (connected channels only): the identification software
  // re-reads each connected channel's pulse train before committing the ID.
  for (size_t ch = 0; ch < channels_.size(); ++ch) {
    if (!channels_[ch].plug.has_value()) {
      continue;
    }
    duration += kVerifySetup;
    for (const Seconds& p : result.channels[ch].pulses) {
      duration += p;
      pulse_high += p;
    }
  }
  // The scan-pass pulses also elapse inside the channel slots; slots already
  // cover their duration, so only the verification pass extends wall time.
  result.duration = duration;
  result.pulse_high_time = pulse_high;

  const double quiet_time = duration.value() - pulse_high.value();
  result.energy = Joules(kPowerQuiet.value() * (quiet_time > 0.0 ? quiet_time : 0.0) +
                         kPowerActive.value() * pulse_high.value());

  lifetime_energy_ += result.energy;
  ++scan_count_;
  interrupt_pending_ = false;
  return result;
}

}  // namespace micropnp
