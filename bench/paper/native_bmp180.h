// Native (platform-specific, C-style) BMP180 driver — Table 3 comparator.
//
// The native variant owns: I2C transaction handling, calibration EEPROM
// readout, conversion sequencing (ctrl_meas writes + conversion waits) and
// the full Bosch integer compensation pipeline.  Mirrors the structure of
// Bosch's reference API.

#ifndef BENCH_PAPER_NATIVE_BMP180_H_
#define BENCH_PAPER_NATIVE_BMP180_H_

#include <cstdint>

#include "src/bus/channel_bus.h"
#include "src/common/status.h"
#include "src/sim/scheduler.h"

namespace micropnp {

enum NativeBmp180Error {
  BMP180_OK = 0,
  BMP180_ERR_NOT_INITIALIZED = -1,
  BMP180_ERR_BUS = -2,
  BMP180_ERR_BAD_CHIP_ID = -3,
  BMP180_ERR_BAD_OSS = -4,
};

struct NativeBmp180Calib {
  int16_t ac1, ac2, ac3;
  uint16_t ac4, ac5, ac6;
  int16_t b1, b2;
  int16_t mb, mc, md;
};

struct NativeBmp180State {
  ChannelBus* bus;
  Scheduler* scheduler;
  NativeBmp180Calib calib;
  int32_t b5;  // from the most recent temperature conversion
  int initialized;
  uint8_t oss;
};

// Probes the chip id, reads the calibration EEPROM.
int native_bmp180_init(NativeBmp180State* state, ChannelBus* bus, Scheduler* scheduler,
                       uint8_t oss);
void native_bmp180_destroy(NativeBmp180State* state);

// Blocking measurements (the driver waits out the conversion time by
// advancing the scheduler, as a busy-waiting native driver would).
int native_bmp180_read_temperature(NativeBmp180State* state, int32_t* out_deci_celsius);
int native_bmp180_read_pressure(NativeBmp180State* state, int32_t* out_pascal);

// Compensation primitives (exposed for unit tests).
int32_t native_bmp180_compensate_temperature(const NativeBmp180Calib* calib, int32_t ut,
                                             int32_t* out_b5);
int32_t native_bmp180_compensate_pressure(const NativeBmp180Calib* calib, int32_t up, int32_t b5,
                                          uint8_t oss);

}  // namespace micropnp

#endif  // BENCH_PAPER_NATIVE_BMP180_H_
