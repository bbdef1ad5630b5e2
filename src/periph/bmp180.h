// BMP180 digital barometric pressure sensor (Bosch), the paper's I2C
// prototype peripheral.
//
// Full register-level model: calibration EEPROM at 0xAA..0xBF, control
// register 0xF4 (0x2E starts a temperature conversion, 0x34|oss<<6 a pressure
// conversion), results in 0xF6..0xF8, chip-id 0x55 at 0xD0, soft reset at
// 0xE0.  Conversion timing follows the datasheet; reading the output
// registers before the conversion completes returns the previous result —
// exactly the trap the datasheet warns driver authors about.

#ifndef SRC_PERIPH_BMP180_H_
#define SRC_PERIPH_BMP180_H_

#include <array>
#include <cstdint>

#include "src/bus/i2c.h"
#include "src/periph/bmp180_math.h"
#include "src/periph/environment.h"
#include "src/periph/peripheral.h"

namespace micropnp {

class Bmp180 : public Peripheral, public I2cDevice {
 public:
  static constexpr uint8_t kI2cAddress = 0x77;
  static constexpr uint8_t kChipId = 0x55;

  static constexpr uint8_t kRegCalibrationStart = 0xaa;
  static constexpr uint8_t kRegChipId = 0xd0;
  static constexpr uint8_t kRegSoftReset = 0xe0;
  static constexpr uint8_t kRegCtrlMeas = 0xf4;
  static constexpr uint8_t kRegOutMsb = 0xf6;

  static constexpr uint8_t kCmdReadTemperature = 0x2e;
  static constexpr uint8_t kCmdReadPressureBase = 0x34;  // | oss << 6
  static constexpr uint8_t kCmdSoftReset = 0xb6;

  Bmp180(const Environment& env, const Bmp180Calibration& cal = Bmp180Calibration{})
      : env_(env), cal_(cal) {}

  // Peripheral:
  DeviceTypeId type_id() const override { return kBmp180TypeId; }
  BusKind bus() const override { return BusKind::kI2c; }
  std::string name() const override { return "BMP180"; }
  void AttachTo(ChannelBus& bus) override { (void)bus.i2c().Attach(this); }
  void DetachFrom(ChannelBus& bus) override { (void)bus.i2c().Detach(this); }

  // I2cDevice:
  uint8_t address() const override { return kI2cAddress; }
  Status OnWrite(ByteSpan data, SimTime now) override;
  Result<std::vector<uint8_t>> OnRead(size_t count, SimTime now) override;

  const Bmp180Calibration& calibration() const { return cal_; }
  uint64_t premature_reads() const { return premature_reads_; }

 private:
  // Serializes calibration words big-endian into the EEPROM shadow.
  std::array<uint8_t, 22> CalibrationBytes() const;
  void LatchConversionResult(SimTime now);

  const Environment& env_;
  Bmp180Calibration cal_;
  uint8_t register_pointer_ = 0;
  uint8_t ctrl_meas_ = 0;
  bool conversion_pending_ = false;
  bool pending_is_pressure_ = false;
  int pending_oss_ = 0;
  SimTime conversion_ready_at_;
  // Latched output registers (0xF6..0xF8).
  std::array<uint8_t, 3> out_{0, 0, 0};
  int32_t last_b5_ = 0;  // device-internal; drivers must track their own B5
  uint64_t premature_reads_ = 0;
};

}  // namespace micropnp

#endif  // SRC_PERIPH_BMP180_H_
