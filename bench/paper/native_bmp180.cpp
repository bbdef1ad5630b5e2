#include "bench/paper/native_bmp180.h"

namespace micropnp {

#define BMP180_I2C_ADDR 0x77
#define BMP180_REG_CALIB 0xaa
#define BMP180_REG_CHIP_ID 0xd0
#define BMP180_REG_CTRL_MEAS 0xf4
#define BMP180_REG_OUT_MSB 0xf6
#define BMP180_CHIP_ID 0x55
#define BMP180_CMD_TEMP 0x2e
#define BMP180_CMD_PRES 0x34
#define BMP180_TEMP_WAIT_US 4500

static int bmp180_wait_us(NativeBmp180State* state, uint32_t micros) {
  // A native blocking driver spins on a hardware timer; here the wait
  // advances the simulation clock.
  state->scheduler->RunUntil(state->scheduler->now() + SimTime::FromMicros(micros));
  return BMP180_OK;
}

static uint32_t bmp180_pressure_wait_us(uint8_t oss) {
  switch (oss) {
    case 0:
      return 4500;
    case 1:
      return 7500;
    case 2:
      return 13500;
    default:
      return 25500;
  }
}

static int bmp180_read_regs(NativeBmp180State* state, uint8_t reg, uint8_t* out, size_t count) {
  uint8_t pointer = reg;
  Result<std::vector<uint8_t>> data =
      state->bus->i2c().WriteRead(BMP180_I2C_ADDR, ByteSpan(&pointer, 1), count);
  if (!data.ok()) {
    return BMP180_ERR_BUS;
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = (*data)[i];
  }
  return BMP180_OK;
}

static int bmp180_write_reg(NativeBmp180State* state, uint8_t reg, uint8_t value) {
  uint8_t frame[2];
  frame[0] = reg;
  frame[1] = value;
  Status status = state->bus->i2c().Write(BMP180_I2C_ADDR, ByteSpan(frame, 2));
  return status.ok() ? BMP180_OK : BMP180_ERR_BUS;
}

static int16_t bmp180_s16(const uint8_t* raw) {
  return (int16_t)(((uint16_t)raw[0] << 8) | raw[1]);
}

static uint16_t bmp180_u16(const uint8_t* raw) {
  return (uint16_t)(((uint16_t)raw[0] << 8) | raw[1]);
}

int native_bmp180_init(NativeBmp180State* state, ChannelBus* bus, Scheduler* scheduler,
                       uint8_t oss) {
  if (state == 0 || bus == 0 || scheduler == 0) {
    return BMP180_ERR_NOT_INITIALIZED;
  }
  if (oss > 3) {
    return BMP180_ERR_BAD_OSS;
  }
  if (!bus->IsSelected(BusKind::kI2c)) {
    return BMP180_ERR_BUS;
  }
  state->bus = bus;
  state->scheduler = scheduler;
  state->oss = oss;

  uint8_t chip_id = 0;
  int rc = bmp180_read_regs(state, BMP180_REG_CHIP_ID, &chip_id, 1);
  if (rc != BMP180_OK) {
    return rc;
  }
  if (chip_id != BMP180_CHIP_ID) {
    return BMP180_ERR_BAD_CHIP_ID;
  }

  uint8_t eeprom[22];
  rc = bmp180_read_regs(state, BMP180_REG_CALIB, eeprom, 22);
  if (rc != BMP180_OK) {
    return rc;
  }
  state->calib.ac1 = bmp180_s16(&eeprom[0]);
  state->calib.ac2 = bmp180_s16(&eeprom[2]);
  state->calib.ac3 = bmp180_s16(&eeprom[4]);
  state->calib.ac4 = bmp180_u16(&eeprom[6]);
  state->calib.ac5 = bmp180_u16(&eeprom[8]);
  state->calib.ac6 = bmp180_u16(&eeprom[10]);
  state->calib.b1 = bmp180_s16(&eeprom[12]);
  state->calib.b2 = bmp180_s16(&eeprom[14]);
  state->calib.mb = bmp180_s16(&eeprom[16]);
  state->calib.mc = bmp180_s16(&eeprom[18]);
  state->calib.md = bmp180_s16(&eeprom[20]);
  state->b5 = 0;
  state->initialized = 1;
  return BMP180_OK;
}

void native_bmp180_destroy(NativeBmp180State* state) {
  if (state == 0) {
    return;
  }
  state->initialized = 0;
  state->bus = 0;
  state->scheduler = 0;
}

int32_t native_bmp180_compensate_temperature(const NativeBmp180Calib* calib, int32_t ut,
                                             int32_t* out_b5) {
  int32_t x1 = ((ut - (int32_t)calib->ac6) * (int32_t)calib->ac5) >> 15;
  int32_t x2 = ((int32_t)calib->mc << 11) / (x1 + (int32_t)calib->md);
  int32_t b5 = x1 + x2;
  if (out_b5 != 0) {
    *out_b5 = b5;
  }
  return (b5 + 8) >> 4;
}

int32_t native_bmp180_compensate_pressure(const NativeBmp180Calib* calib, int32_t up, int32_t b5,
                                          uint8_t oss) {
  int32_t b6 = b5 - 4000;
  int32_t x1 = ((int32_t)calib->b2 * ((b6 * b6) >> 12)) >> 11;
  int32_t x2 = ((int32_t)calib->ac2 * b6) >> 11;
  int32_t x3 = x1 + x2;
  int32_t b3 = (((((int32_t)calib->ac1) * 4 + x3) << oss) + 2) / 4;
  x1 = ((int32_t)calib->ac3 * b6) >> 13;
  x2 = ((int32_t)calib->b1 * ((b6 * b6) >> 12)) >> 16;
  x3 = ((x1 + x2) + 2) >> 2;
  uint32_t b4 = ((uint32_t)calib->ac4 * (uint32_t)(x3 + 32768)) >> 15;
  uint32_t b7 = ((uint32_t)up - (uint32_t)b3) * (uint32_t)(50000 >> oss);
  int32_t p;
  if (b7 < 0x80000000u) {
    p = (int32_t)((b7 * 2) / b4);
  } else {
    p = (int32_t)((b7 / b4) * 2);
  }
  x1 = (p >> 8) * (p >> 8);
  x1 = (x1 * 3038) >> 16;
  x2 = (-7357 * p) >> 16;
  p = p + ((x1 + x2 + 3791) >> 4);
  return p;
}

int native_bmp180_read_temperature(NativeBmp180State* state, int32_t* out_deci_celsius) {
  if (state == 0 || state->initialized == 0) {
    return BMP180_ERR_NOT_INITIALIZED;
  }
  int rc = bmp180_write_reg(state, BMP180_REG_CTRL_MEAS, BMP180_CMD_TEMP);
  if (rc != BMP180_OK) {
    return rc;
  }
  bmp180_wait_us(state, BMP180_TEMP_WAIT_US);
  uint8_t raw[2];
  rc = bmp180_read_regs(state, BMP180_REG_OUT_MSB, raw, 2);
  if (rc != BMP180_OK) {
    return rc;
  }
  int32_t ut = ((int32_t)raw[0] << 8) | raw[1];
  int32_t t = native_bmp180_compensate_temperature(&state->calib, ut, &state->b5);
  if (out_deci_celsius != 0) {
    *out_deci_celsius = t;
  }
  return BMP180_OK;
}

int native_bmp180_read_pressure(NativeBmp180State* state, int32_t* out_pascal) {
  if (state == 0 || state->initialized == 0) {
    return BMP180_ERR_NOT_INITIALIZED;
  }
  // A pressure measurement requires a fresh B5 from a temperature reading.
  int32_t ignored;
  int rc = native_bmp180_read_temperature(state, &ignored);
  if (rc != BMP180_OK) {
    return rc;
  }
  rc = bmp180_write_reg(state, BMP180_REG_CTRL_MEAS,
                        (uint8_t)(BMP180_CMD_PRES | (state->oss << 6)));
  if (rc != BMP180_OK) {
    return rc;
  }
  bmp180_wait_us(state, bmp180_pressure_wait_us(state->oss));
  uint8_t raw[3];
  rc = bmp180_read_regs(state, BMP180_REG_OUT_MSB, raw, 3);
  if (rc != BMP180_OK) {
    return rc;
  }
  int32_t up = (int32_t)((((uint32_t)raw[0] << 16) | ((uint32_t)raw[1] << 8) | raw[2]) >>
                         (8 - state->oss));
  int32_t p = native_bmp180_compensate_pressure(&state->calib, up, state->b5, state->oss);
  if (out_pascal != 0) {
    *out_pascal = p;
  }
  return BMP180_OK;
}

}  // namespace micropnp
