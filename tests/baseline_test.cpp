// Baseline tests: the native C-style drivers (Table 3 comparators) work and
// are behaviourally equivalent to their μPnP DSL counterparts.

#include <gtest/gtest.h>

#include "bench/paper/native_bmp180.h"
#include "bench/paper/native_hih4030.h"
#include "bench/paper/native_id20la.h"
#include "bench/paper/native_tmp36.h"
#include "bench/paper/sloc.h"
#include "bench/paper/table3.h"
#include "src/periph/bmp180.h"
#include "src/periph/bmp180_math.h"
#include "src/periph/environment.h"
#include "src/periph/hih4030.h"
#include "src/periph/id20la.h"
#include "src/periph/tmp36.h"

namespace micropnp {
namespace {

class NativeDriverFixture : public ::testing::Test {
 protected:
  NativeDriverFixture() : bus_(sched_) {}

  Scheduler sched_;
  ChannelBus bus_;
  Environment env_;
};

// ---------------------------------------------------------------- tmp36 ----

TEST_F(NativeDriverFixture, Tmp36ReadsEnvironment) {
  Tmp36 sensor(env_);
  bus_.Select(BusKind::kAdc);
  sensor.AttachTo(bus_);

  NativeTmp36State state{};
  ASSERT_EQ(native_tmp36_init(&state, &bus_, 0), TMP36_OK);
  double celsius = 0;
  ASSERT_EQ(native_tmp36_read_celsius(&state, &celsius), TMP36_OK);
  EXPECT_NEAR(celsius, env_.TemperatureC(sched_.now()), 0.4);
  native_tmp36_destroy(&state);
  EXPECT_EQ(native_tmp36_read_celsius(&state, &celsius), TMP36_ERR_NOT_INITIALIZED);
}

TEST_F(NativeDriverFixture, Tmp36RejectsBadSetup) {
  NativeTmp36State state{};
  EXPECT_EQ(native_tmp36_init(&state, nullptr, 0), TMP36_ERR_NOT_INITIALIZED);
  EXPECT_EQ(native_tmp36_init(&state, &bus_, 9), TMP36_ERR_BAD_CHANNEL);
  // Bus not muxed to ADC:
  bus_.Select(BusKind::kUart);
  EXPECT_EQ(native_tmp36_init(&state, &bus_, 0), TMP36_ERR_BAD_CHANNEL);
}

TEST(NativeTmp36, ConversionMatchesDatasheet) {
  // 750 mV -> 25 degC on a 10-bit, 3.3 V scale.
  const uint16_t code = static_cast<uint16_t>(0.75 / 3.3 * 1023.0 + 0.5);
  EXPECT_NEAR(native_tmp36_code_to_celsius(code, 3.3, 10), 25.0, 0.2);
}

// -------------------------------------------------------------- hih4030 ----

TEST_F(NativeDriverFixture, Hih4030ReadsEnvironment) {
  Hih4030 sensor(env_);
  bus_.Select(BusKind::kAdc);
  sensor.AttachTo(bus_);
  NativeHih4030State state{};
  ASSERT_EQ(native_hih4030_init(&state, &bus_, 1), HIH4030_OK);
  double rh = 0;
  ASSERT_EQ(native_hih4030_read_rh(&state, &rh), HIH4030_OK);
  EXPECT_NEAR(rh, env_.HumidityPct(sched_.now()), 1.0);

  double compensated = 0;
  ASSERT_EQ(native_hih4030_read_rh_compensated(&state, 25.0, &compensated), HIH4030_OK);
  EXPECT_NEAR(compensated, rh / (1.0546 - 0.00216 * 25.0), 1e-9);
}

// --------------------------------------------------------------- id20la ----

TEST_F(NativeDriverFixture, Id20LaReadsCards) {
  Id20La reader;
  bus_.Select(BusKind::kUart);
  reader.AttachTo(bus_);
  NativeId20LaState state{};
  ASSERT_EQ(native_id20la_init(&state, &bus_), ID20LA_OK);
  ASSERT_EQ(native_id20la_start_read(&state), ID20LA_OK);
  EXPECT_EQ(native_id20la_poll(&state, nullptr), ID20LA_ERR_NO_CARD);

  RfidCard card = {0x4a, 0x00, 0xd2, 0x3f, 0x81};
  ASSERT_TRUE(reader.PresentCard(card));
  sched_.Run();

  NativeId20LaCard out{};
  ASSERT_EQ(native_id20la_poll(&state, &out), ID20LA_OK);
  EXPECT_EQ(std::string(out.payload), Id20LaPayload(card));
  EXPECT_TRUE(out.valid);
  native_id20la_destroy(&state);
  EXPECT_FALSE(bus_.uart().initialized());
}

TEST_F(NativeDriverFixture, Id20LaDetectsUartInUse) {
  bus_.Select(BusKind::kUart);
  ASSERT_TRUE(bus_.uart().Init(UartConfig{}).ok());
  NativeId20LaState state{};
  EXPECT_EQ(native_id20la_init(&state, &bus_), ID20LA_ERR_UART_IN_USE);
}

TEST(NativeId20La, ChecksumVerification) {
  EXPECT_TRUE(native_id20la_verify_checksum("4A00D23F8126"));
  EXPECT_FALSE(native_id20la_verify_checksum("4A00D23F8127"));
  EXPECT_FALSE(native_id20la_verify_checksum("GG00D23F8126"));
}

// --------------------------------------------------------------- bmp180 ----

TEST_F(NativeDriverFixture, Bmp180FullPipelineMatchesEnvironment) {
  Bmp180 sensor(env_);
  bus_.Select(BusKind::kI2c);
  sensor.AttachTo(bus_);

  NativeBmp180State state{};
  ASSERT_EQ(native_bmp180_init(&state, &bus_, &sched_, /*oss=*/0), BMP180_OK);
  // The calibration EEPROM round-tripped correctly.
  EXPECT_EQ(state.calib.ac1, sensor.calibration().ac1);
  EXPECT_EQ(state.calib.md, sensor.calibration().md);

  int32_t deci_celsius = 0;
  ASSERT_EQ(native_bmp180_read_temperature(&state, &deci_celsius), BMP180_OK);
  EXPECT_NEAR(deci_celsius / 10.0, env_.TemperatureC(sched_.now()), 0.2);

  int32_t pascal = 0;
  ASSERT_EQ(native_bmp180_read_pressure(&state, &pascal), BMP180_OK);
  EXPECT_NEAR(static_cast<double>(pascal), env_.PressurePa(sched_.now()), 30.0);
}

TEST_F(NativeDriverFixture, Bmp180AllOversamplingModes) {
  Bmp180 sensor(env_);
  bus_.Select(BusKind::kI2c);
  sensor.AttachTo(bus_);
  for (uint8_t oss = 0; oss <= 3; ++oss) {
    NativeBmp180State state{};
    ASSERT_EQ(native_bmp180_init(&state, &bus_, &sched_, oss), BMP180_OK);
    int32_t pascal = 0;
    ASSERT_EQ(native_bmp180_read_pressure(&state, &pascal), BMP180_OK);
    EXPECT_NEAR(static_cast<double>(pascal), env_.PressurePa(sched_.now()), 35.0)
        << "oss=" << static_cast<int>(oss);
  }
}

TEST(NativeBmp180, CompensationMatchesDatasheetExample) {
  NativeBmp180Calib calib{408, -72, -14383, 32741, 32757, 23153, 6190, 4, -32768, -8711, 2868};
  int32_t b5 = 0;
  EXPECT_EQ(native_bmp180_compensate_temperature(&calib, 27898, &b5), 150);
  EXPECT_EQ(native_bmp180_compensate_pressure(&calib, 23843, b5, 0), 69964);
}

TEST_F(NativeDriverFixture, Bmp180RejectsWrongBusOrOss) {
  NativeBmp180State state{};
  bus_.Select(BusKind::kAdc);
  EXPECT_EQ(native_bmp180_init(&state, &bus_, &sched_, 0), BMP180_ERR_BUS);
  bus_.Select(BusKind::kI2c);
  EXPECT_EQ(native_bmp180_init(&state, &bus_, &sched_, 4), BMP180_ERR_BAD_OSS);
  // No device attached: address NACKs.
  EXPECT_EQ(native_bmp180_init(&state, &bus_, &sched_, 0), BMP180_ERR_BUS);
}

// ------------------------------------------------------------- manifest ----

TEST(Table3Manifest, CoversAllFourPaperDrivers) {
  std::span<const NativeDriverInfo> drivers = NativeDrivers();
  ASSERT_EQ(drivers.size(), 4u);
  // SLoC is measured from the real embedded sources; all are non-trivial and
  // larger than their DSL equivalents per the Table 3 shape.
  for (const NativeDriverInfo& d : drivers) {
    EXPECT_GT(CountSloc(d.source, SlocLanguage::kC), 40) << d.name;
    EXPECT_GT(d.avr_flash_bytes, 500u);
  }
  // ADC drivers pay the soft-float tax (the paper's explanation for the
  // "large size discrepancy between different C device drivers").
  EXPECT_TRUE(drivers[0].uses_software_float);
  EXPECT_TRUE(drivers[1].uses_software_float);
  EXPECT_FALSE(drivers[2].uses_software_float);
  EXPECT_GT(drivers[0].avr_flash_bytes, 4 * drivers[2].avr_flash_bytes);
}

}  // namespace
}  // namespace micropnp
