#include "src/periph/bmp180.h"

namespace micropnp {
namespace {

void PutI16(std::array<uint8_t, 22>& buf, int index, int16_t v) {
  buf[index] = static_cast<uint8_t>(static_cast<uint16_t>(v) >> 8);
  buf[index + 1] = static_cast<uint8_t>(static_cast<uint16_t>(v) & 0xff);
}

void PutU16(std::array<uint8_t, 22>& buf, int index, uint16_t v) {
  buf[index] = static_cast<uint8_t>(v >> 8);
  buf[index + 1] = static_cast<uint8_t>(v & 0xff);
}

}  // namespace

std::array<uint8_t, 22> Bmp180::CalibrationBytes() const {
  std::array<uint8_t, 22> bytes{};
  PutI16(bytes, 0, cal_.ac1);
  PutI16(bytes, 2, cal_.ac2);
  PutI16(bytes, 4, cal_.ac3);
  PutU16(bytes, 6, cal_.ac4);
  PutU16(bytes, 8, cal_.ac5);
  PutU16(bytes, 10, cal_.ac6);
  PutI16(bytes, 12, cal_.b1);
  PutI16(bytes, 14, cal_.b2);
  PutI16(bytes, 16, cal_.mb);
  PutI16(bytes, 18, cal_.mc);
  PutI16(bytes, 20, cal_.md);
  return bytes;
}

Status Bmp180::OnWrite(ByteSpan data, SimTime now) {
  if (data.empty()) {
    return InvalidArgument("empty i2c write");
  }
  register_pointer_ = data[0];
  if (data.size() == 1) {
    return OkStatus();  // register pointer set for a subsequent read
  }
  const uint8_t value = data[1];
  switch (register_pointer_) {
    case kRegCtrlMeas: {
      ctrl_meas_ = value;
      const uint8_t command = value & 0x3f;
      if (command == kCmdReadTemperature) {
        pending_is_pressure_ = false;
        pending_oss_ = 0;
      } else if (command == kCmdReadPressureBase) {
        pending_is_pressure_ = true;
        pending_oss_ = (value >> 6) & 0x3;
      } else {
        return InvalidArgument("unknown ctrl_meas command");
      }
      conversion_pending_ = true;
      conversion_ready_at_ =
          now + SimTime::FromSeconds(Bmp180ConversionSeconds(pending_is_pressure_, pending_oss_));
      return OkStatus();
    }
    case kRegSoftReset:
      if (value == kCmdSoftReset) {
        conversion_pending_ = false;
        out_ = {0, 0, 0};
        ctrl_meas_ = 0;
      }
      return OkStatus();
    default:
      // Other registers are read-only; the real part NACKs the data byte.
      return InvalidArgument("write to read-only register");
  }
}

void Bmp180::LatchConversionResult(SimTime now) {
  if (!conversion_pending_ || now < conversion_ready_at_) {
    return;
  }
  conversion_pending_ = false;
  ctrl_meas_ &= static_cast<uint8_t>(~0x20);  // sco bit clears on completion
  if (!pending_is_pressure_) {
    const int32_t ut = Bmp180RawFromTemperature(cal_, env_.TemperatureC(now));
    last_b5_ = Bmp180ComputeB5(cal_, ut);
    out_[0] = static_cast<uint8_t>((ut >> 8) & 0xff);
    out_[1] = static_cast<uint8_t>(ut & 0xff);
    out_[2] = 0;
  } else {
    const int32_t up = Bmp180RawFromPressure(cal_, env_.PressurePa(now), last_b5_, pending_oss_);
    // The raw value occupies the top (16 + oss) bits of the 19-bit field.
    const uint32_t shifted = static_cast<uint32_t>(up) << (8 - pending_oss_);
    out_[0] = static_cast<uint8_t>((shifted >> 16) & 0xff);
    out_[1] = static_cast<uint8_t>((shifted >> 8) & 0xff);
    out_[2] = static_cast<uint8_t>(shifted & 0xff);
  }
}

Result<std::vector<uint8_t>> Bmp180::OnRead(size_t count, SimTime now) {
  if (conversion_pending_ && now < conversion_ready_at_ && register_pointer_ == kRegOutMsb) {
    ++premature_reads_;  // caller gets the *previous* latched result
  }
  LatchConversionResult(now);

  std::vector<uint8_t> out;
  out.reserve(count);
  const std::array<uint8_t, 22> cal = CalibrationBytes();
  uint8_t reg = register_pointer_;
  for (size_t i = 0; i < count; ++i, ++reg) {
    if (reg >= kRegCalibrationStart && reg < kRegCalibrationStart + 22) {
      out.push_back(cal[reg - kRegCalibrationStart]);
    } else if (reg == kRegChipId) {
      out.push_back(kChipId);
    } else if (reg == kRegCtrlMeas) {
      // Bit 5 (sco) reads 1 while a conversion is running.
      out.push_back(static_cast<uint8_t>(ctrl_meas_ | (conversion_pending_ ? 0x20 : 0x00)));
    } else if (reg >= kRegOutMsb && reg < kRegOutMsb + 3) {
      out.push_back(out_[reg - kRegOutMsb]);
    } else {
      out.push_back(0x00);
    }
  }
  register_pointer_ = reg;
  return out;
}

}  // namespace micropnp
