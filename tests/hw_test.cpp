// Unit + property tests for the hardware identification substrate (Section 3
// of the paper): E-series ladders, multivibrator pulses, the pulse codec, the
// control board scan, and the Section 6.1 timing/energy windows.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "bench/paper/energy_model.h"
#include "bench/paper/pinout.h"
#include "src/common/rng.h"
#include "src/hw/control_board.h"
#include "src/hw/eseries.h"
#include "src/hw/id_codec.h"
#include "src/hw/multivibrator.h"
#include "tests/oracles/reference_eseries.h"

namespace micropnp {
namespace {

// -------------------------------------------------------------- eseries ----

TEST(ESeries, SizesMatchStandard) {
  EXPECT_EQ(ESeriesSize(ESeries::kE12), 12);
  EXPECT_EQ(ESeriesSize(ESeries::kE24), 24);
  EXPECT_EQ(ESeriesSize(ESeries::kE48), 48);
  EXPECT_EQ(ESeriesSize(ESeries::kE96), 96);
}

TEST(ESeries, NearestStandardValuePicksExactMember) {
  EXPECT_NEAR(NearestStandardValue(ESeries::kE96, Ohms(3480)).value(), 3480, 1e-9);
  EXPECT_NEAR(NearestStandardValue(ESeries::kE24, KiloOhms(4.7)).value(), 4700, 1e-9);
}

TEST(ESeries, NearestStandardValueRoundsInLogSpace) {
  // 1.011 is between 1.00 and 1.02 in E96; log-nearest is 1.02? log mid is
  // sqrt(1.00*1.02)=1.00995, so 1.011 -> 1.02.
  EXPECT_NEAR(NearestStandardValue(ESeries::kE96, Ohms(1.011)).value(), 1.02, 1e-9);
  EXPECT_NEAR(NearestStandardValue(ESeries::kE96, Ohms(1.009)).value(), 1.00, 1e-9);
}

TEST(ESeries, LadderWrapsDecades) {
  // Index 96 of an E96 ladder starting at 1.0 Ohm is 10.0 Ohm.
  EXPECT_NEAR(LadderValue(ESeries::kE96, Ohms(1.0), 96).value(), 10.0, 1e-9);
  EXPECT_NEAR(LadderValue(ESeries::kE96, Ohms(1.0), 97).value(), 10.2, 1e-9);
}

TEST(ESeries, LadderIndexIsInverseOfLadderValue) {
  for (int i = 0; i < 256; i += 7) {
    Ohms v = LadderValue(ESeries::kE96, Ohms(3480), i);
    EXPECT_EQ(LadderIndex(ESeries::kE96, Ohms(3480), v), i) << "index " << i;
  }
}

// The table lookups against the seed's per-candidate search
// (tests/oracles/reference_eseries.h).  Every comparison is exact: the
// production code must pick the same value, not a close one.
TEST(ESeries, TableLookupMatchesReferenceBitForBit) {
  constexpr int kRandomInputs = 100000;
  constexpr int kMaxSteps = 300;
  const std::array<ESeries, 4> all_series = {ESeries::kE12, ESeries::kE24, ESeries::kE48,
                                             ESeries::kE96};
  // Both clamps, a value that rounds up across a decade edge, the codec's
  // base resistor, and one between two E96 values.
  const std::array<Ohms, 5> firsts = {Ohms(0.5), Ohms(9.9), Ohms(3480.0), Ohms(47300.0),
                                      Ohms(2e8)};

  // Log-uniform resistances over [0.5 Ohm, 2e8 Ohm], beyond both clamps.
  std::vector<double> inputs;
  Rng rng(0xe5e7);
  for (int i = 0; i < kRandomInputs; ++i) {
    inputs.push_back(std::exp(rng.Uniform(std::log(0.5), std::log(2e8))));
  }
  const size_t random_inputs = inputs.size();

  for (ESeries series : all_series) {
    // Every series value in decades 10^0..10^7, and the geometric midpoint
    // between each value and the next, including the last value of a decade
    // and the first of the next one.
    std::vector<double> values;
    for (int decade = 0; decade <= 8; ++decade) {
      for (double base : ESeriesBaseValues(series)) {
        values.push_back(base * std::pow(10.0, decade));
      }
    }
    std::vector<double> structured;
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      if (values[i] < 1e8) {
        structured.push_back(values[i]);
        structured.push_back(std::sqrt(values[i] * values[i + 1]));
      }
    }
    inputs.resize(random_inputs);
    inputs.insert(inputs.end(), structured.begin(), structured.end());

    const int n = ESeriesSize(series);
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Ohms r(inputs[i]);
      const Ohms first = firsts[i % firsts.size()];
      EXPECT_EQ(NearestStandardValue(series, r).value(),
                ReferenceNearestStandardValue(series, r).value())
          << "E" << n << " at " << inputs[i] << " Ohm";
      EXPECT_EQ(LadderIndex(series, first, r), ReferenceLadderIndex(series, first, r))
          << "E" << n << " at " << inputs[i] << " Ohm from " << first.value() << " Ohm";
      if (HasFailure()) {
        return;  // one input's report, not a flood of them
      }
    }
    for (Ohms first : firsts) {
      for (int step = -kMaxSteps; step <= kMaxSteps; ++step) {
        EXPECT_EQ(LadderValue(series, first, step).value(),
                  ReferenceLadderValue(series, first, step).value())
            << "E" << n << " step " << step << " from " << first.value() << " Ohm";
        if (HasFailure()) {
          return;
        }
      }
    }
  }

  // The four resistors a plug is made from: one decomposition of the base,
  // four steps up from it.
  const IdentCodec codec{IdentCircuitConfig{}};
  for (int i = 0; i < 10000; ++i) {
    const DeviceTypeId id = rng.NextU32();
    const std::array<Ohms, 4> resistors = codec.ResistorsForId(id);
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(resistors[b].value(),
                ReferenceLadderValue(ESeries::kE96, Ohms(3480.0), DeviceTypeByte(id, b)).value())
          << "id " << id << " byte " << b;
    }
    if (HasFailure()) {
      return;
    }
  }
}

TEST(ESeries, ToleranceValues) {
  EXPECT_DOUBLE_EQ(ESeriesTolerance(ESeries::kE96), 0.01);
  EXPECT_DOUBLE_EQ(ESeriesTolerance(ESeries::kE12), 0.10);
}

// -------------------------------------------------------- multivibrator ----

TEST(Multivibrator, NominalPulseFollowsKRC) {
  MultivibratorSpec spec;
  spec.k_tolerance = 0.0;
  spec.c_tolerance = 0.0;
  spec.calibration_tolerance = 0.0;
  Rng rng(1);
  MonostableMultivibrator vib(spec, rng);
  // T = 1.1 * 10k * 10nF = 110 us.
  EXPECT_NEAR(vib.PulseFor(KiloOhms(10)).value(), 110e-6, 1e-12);
}

TEST(Multivibrator, ManufacturingVariationWithinTolerance) {
  MultivibratorSpec spec;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    MonostableMultivibrator vib(spec, rng);
    EXPECT_LE(std::fabs(vib.actual_k() - spec.k) / spec.k, spec.k_tolerance + 1e-12);
    EXPECT_LE(std::fabs(vib.actual_c().value() - spec.c.value()) / spec.c.value(),
              spec.c_tolerance + 1e-12);
  }
}

TEST(Multivibrator, PulseScalesLinearlyWithResistance) {
  MultivibratorSpec spec;
  Rng rng(3);
  MonostableMultivibrator vib(spec, rng);
  double t1 = vib.PulseFor(KiloOhms(10)).value();
  double t2 = vib.PulseFor(KiloOhms(20)).value();
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
}

TEST(SampleToleranced, TruncatesAtTolerance) {
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    double v = SampleToleranced(100.0, 0.01, rng);
    EXPECT_GE(v, 99.0 - 1e-9);
    EXPECT_LE(v, 101.0 + 1e-9);
  }
}

// --------------------------------------------------------------- codec ----

TEST(IdentCodec, ResistorLadderIsMonotonic) {
  IdentCodec codec{IdentCircuitConfig{}};
  for (int b = 1; b < 256; ++b) {
    EXPECT_GT(codec.ResistorForByte(static_cast<uint8_t>(b)).value(),
              codec.ResistorForByte(static_cast<uint8_t>(b - 1)).value());
  }
}

TEST(IdentCodec, ByteForResistorInvertsResistorForByte) {
  IdentCodec codec{IdentCircuitConfig{}};
  for (int b = 0; b < 256; ++b) {
    auto back = codec.ByteForResistor(codec.ResistorForByte(static_cast<uint8_t>(b)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, b);
  }
}

TEST(IdentCodec, ByteForResistorRejectsOutOfLadder) {
  IdentCodec codec{IdentCircuitConfig{}};
  EXPECT_FALSE(codec.ByteForResistor(Ohms(100.0)).has_value());   // below base
  EXPECT_FALSE(codec.ByteForResistor(Ohms(50e6)).has_value());    // above top
}

TEST(IdentCodec, PulseRangeMatchesDesignBudget) {
  IdentCodec codec{IdentCircuitConfig{}};
  // Base pulse ~38.3 us (1.1 * 3.48k * 10nF), top pulse below 18 ms so a
  // worst-case 4-pulse sequence fits the 74 ms channel slot.
  EXPECT_NEAR(codec.NominalPulseForByte(0).value(), 38.28e-6, 0.5e-6);
  EXPECT_LT(codec.NominalPulseForByte(255).value(), 18e-3);
  EXPECT_GT(codec.NominalPulseForByte(255).value(), 15e-3);
}

TEST(IdentCodec, DecodeNominalPulsesExactly) {
  IdentCodec codec{IdentCircuitConfig{}};
  const Seconds ref = codec.NominalPulseForByte(0);
  for (int b = 0; b < 256; ++b) {
    auto decoded = codec.DecodePulse(codec.NominalPulseForByte(static_cast<uint8_t>(b)), ref);
    ASSERT_TRUE(decoded.has_value()) << "byte " << b;
    EXPECT_EQ(*decoded, b);
  }
}

TEST(IdentCodec, DecodeRejectsGuardBandPulses) {
  IdentCodec codec{IdentCircuitConfig{}};
  const Seconds ref = codec.NominalPulseForByte(0);
  // A pulse exactly halfway (in log space) between levels 10 and 11 must be
  // rejected rather than guessed.
  const double g = codec.level_ratio();
  Seconds halfway = Seconds(ref.value() * std::pow(g, 10.5));
  EXPECT_FALSE(codec.DecodePulse(halfway, ref).has_value());
}

TEST(IdentCodec, DecodeRejectsNonPositive) {
  IdentCodec codec{IdentCircuitConfig{}};
  EXPECT_FALSE(codec.DecodePulse(Seconds(0.0), Seconds(1e-3)).has_value());
  EXPECT_FALSE(codec.DecodePulse(Seconds(1e-3), Seconds(0.0)).has_value());
}

TEST(IdentCodec, SinglePulseEncodingIsInfeasibleFor32Bits) {
  // The Figure 3 rationale: one pulse holding 32 bits with E96-style level
  // spacing needs a component span beyond any physical resistor.
  double worst = SinglePulseWorstCaseSeconds(38e-6, 1.0243, 32);
  EXPECT_TRUE(std::isinf(worst));
  // 8 bits per pulse stays in the tens of milliseconds.
  double per_byte = SinglePulseWorstCaseSeconds(38e-6, 1.0243, 8);
  EXPECT_LT(per_byte, 25e-3);
}

// -------------------------------------------------------- control board ----

class ControlBoardTest : public ::testing::Test {
 protected:
  ControlBoardTest() : rng_(12345), board_(IdentCircuitConfig{}, rng_) {}

  PeripheralPlug PlugFor(DeviceTypeId id, BusKind bus = BusKind::kAdc) {
    return MakePlugForId(board_.codec(), id, bus, rng_);
  }

  Rng rng_;
  ControlBoard board_;
};

TEST_F(ControlBoardTest, ConnectRaisesInterrupt) {
  int interrupts = 0;
  board_.set_interrupt_handler([&] { ++interrupts; });
  ASSERT_TRUE(board_.Connect(0, PlugFor(0xad1cbe01)).ok());
  EXPECT_EQ(interrupts, 1);
  EXPECT_TRUE(board_.interrupt_pending());
  ASSERT_TRUE(board_.Disconnect(0).ok());
  EXPECT_EQ(interrupts, 2);
}

TEST_F(ControlBoardTest, ScanIdentifiesConnectedPeripheral) {
  ASSERT_TRUE(board_.Connect(1, PlugFor(0xad1cbe01)).ok());
  ScanResult scan = board_.Scan();
  ASSERT_EQ(scan.channels.size(), 3u);
  EXPECT_FALSE(scan.channels[0].occupied);
  ASSERT_TRUE(scan.channels[1].occupied);
  ASSERT_TRUE(scan.channels[1].id.has_value());
  EXPECT_EQ(*scan.channels[1].id, 0xad1cbe01u);
  EXPECT_FALSE(board_.interrupt_pending());
}

TEST_F(ControlBoardTest, ScanIdentifiesMultiplePeripherals) {
  ASSERT_TRUE(board_.Connect(0, PlugFor(0x0a0bbf03, BusKind::kI2c)).ok());
  ASSERT_TRUE(board_.Connect(2, PlugFor(0xbe03af0e, BusKind::kUart)).ok());
  ScanResult scan = board_.Scan();
  EXPECT_EQ(scan.channels[0].id.value_or(0), 0x0a0bbf03u);
  EXPECT_FALSE(scan.channels[1].occupied);
  EXPECT_EQ(scan.channels[2].id.value_or(0), 0xbe03af0eu);
}

TEST_F(ControlBoardTest, ConnectErrors) {
  EXPECT_EQ(board_.Connect(7, PlugFor(1)).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(board_.Connect(0, PlugFor(1)).ok());
  EXPECT_EQ(board_.Connect(0, PlugFor(2)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(board_.Disconnect(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(board_.Disconnect(9).code(), StatusCode::kOutOfRange);
}

TEST_F(ControlBoardTest, BusMuxFollowsDetectedPeripheral) {
  ASSERT_TRUE(board_.Connect(0, PlugFor(0x1, BusKind::kUart)).ok());
  EXPECT_EQ(board_.bus_for_channel(0), BusKind::kUart);
  EXPECT_EQ(board_.bus_for_channel(1), std::nullopt);
}

TEST_F(ControlBoardTest, LifetimeEnergyAccumulates) {
  ASSERT_TRUE(board_.Connect(0, PlugFor(0x01020304)).ok());
  EXPECT_NEAR(board_.lifetime_energy().value(), 0.0, 1e-15);  // power gated
  ScanResult first = board_.Scan();
  ScanResult second = board_.Scan();
  EXPECT_NEAR(board_.lifetime_energy().value(), first.energy.value() + second.energy.value(),
              1e-12);
  EXPECT_EQ(board_.scan_count(), 2u);
}

// Property: identification is correct across many random ids and
// manufacturing instances (tolerances on).
TEST(ControlBoardProperty, IdentificationIsReliableAcrossRandomIds) {
  Rng rng(777);
  ControlBoard board(IdentCircuitConfig{}, rng);
  int correct = 0, guard_rejects = 0, wrong = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    DeviceTypeId id = rng.NextU32();
    ASSERT_TRUE(board.Connect(0, MakePlugForId(board.codec(), id, BusKind::kAdc, rng)).ok());
    ScanResult scan = board.Scan();
    ASSERT_TRUE(board.Disconnect(0).ok());
    if (!scan.channels[0].id.has_value()) {
      ++guard_rejects;  // safe failure: rescan
    } else if (*scan.channels[0].id == id) {
      ++correct;
    } else {
      ++wrong;
    }
  }
  // Wrong identifications are the dangerous case; the guard band keeps them
  // essentially impossible with E96 1% parts plus calibration.
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(correct, kTrials * 99 / 100);
  EXPECT_LE(guard_rejects, kTrials / 100);
}

// Section 6.1: "the time required varies between 220 ms and 300 ms" and
// "energy ... minimum value of 2.48e-3 J and a maximum value of 6.756e-3 J".
TEST(ControlBoardPaper, IdentificationWindowsMatchSection61) {
  IdentStats stats = SampleIdentification(500, 2024);
  EXPECT_GE(stats.min_duration.value(), 0.220);
  EXPECT_LE(stats.max_duration.value(), 0.300);
  EXPECT_GE(stats.min_energy.value(), 2.3e-3);
  EXPECT_LE(stats.max_energy.value(), 6.9e-3);
  EXPECT_EQ(stats.decode_errors, 0);
}

// Extremes: the all-zeros and all-ones ids bound the window.
TEST(ControlBoardPaper, ExtremeIdsBoundTheWindows) {
  Rng rng(5);
  IdentCircuitConfig circuit;
  circuit.resistor_tolerance = 0.0;
  circuit.vib.k_tolerance = 0.0;
  circuit.vib.c_tolerance = 0.0;
  circuit.vib.calibration_tolerance = 0.0;
  ControlBoard board(circuit, rng);

  ASSERT_TRUE(board.Connect(0, MakePlugForId(board.codec(), 0x00000000u, BusKind::kAdc, rng)).ok());
  ScanResult lo = board.Scan();
  ASSERT_TRUE(board.Disconnect(0).ok());
  ASSERT_TRUE(board.Connect(0, MakePlugForId(board.codec(), 0xffffffffu, BusKind::kAdc, rng)).ok());
  ScanResult hi = board.Scan();

  EXPECT_NEAR(lo.energy.value(), 2.48e-3, 0.15e-3);
  EXPECT_NEAR(hi.energy.value(), 6.756e-3, 0.25e-3);
  EXPECT_GT(hi.duration.value(), lo.duration.value());
}

// --------------------------------------------------------- energy model ----

TEST(EnergyModel, InterconnectOrderingDrivesFigure12Divergence) {
  EXPECT_LT(InterconnectEnergyPerOperation(BusKind::kAdc).value(),
            InterconnectEnergyPerOperation(BusKind::kSpi).value());
  EXPECT_LT(InterconnectEnergyPerOperation(BusKind::kSpi).value(),
            InterconnectEnergyPerOperation(BusKind::kI2c).value());
  EXPECT_LT(InterconnectEnergyPerOperation(BusKind::kI2c).value(),
            InterconnectEnergyPerOperation(BusKind::kUart).value());
}

TEST(EnergyModel, UsbIdleDominatesItsYearlyEnergy) {
  UsbHostBaseline usb;
  Joules idle_only = usb.YearlyEnergy(0.0, 0.0);
  Joules busy = usb.YearlyEnergy(525960.0, 3.15e6);
  // Attach/transfer costs are real but small next to idling all year.
  EXPECT_LT(busy.value() / idle_only.value(), 1.2);
  EXPECT_GT(idle_only.value(), 5e5);  // hundreds of kJ per year
}

TEST(EnergyModel, MicroPnpScalesLinearlyWithChangeRate) {
  IdentStats stats = SampleIdentification(200, 99);
  UsbHostBaseline usb;
  YearlyEnergyPoint fast = ComputeYearlyEnergy(10, 10.0, BusKind::kAdc, stats, usb);
  YearlyEnergyPoint slow = ComputeYearlyEnergy(100, 10.0, BusKind::kAdc, stats, usb);
  // 10x fewer changes -> ~10x less identification energy (minus the shared
  // interconnect floor).
  const double comm_floor = InterconnectEnergyPerOperation(BusKind::kAdc).value() *
                            (kSecondsPerYear / 10.0);
  const double fast_ident = fast.upnp_mean.value() - comm_floor;
  const double slow_ident = slow.upnp_mean.value() - comm_floor;
  EXPECT_NEAR(fast_ident / slow_ident, 10.0, 0.01);
}

// The paper's headline: at hourly changes μPnP (ADC) is >4 orders of
// magnitude below the USB host shield.
TEST(EnergyModel, FourOrdersOfMagnitudeAtHourlyChanges) {
  IdentStats stats = SampleIdentification(200, 7);
  UsbHostBaseline usb;
  YearlyEnergyPoint hourly = ComputeYearlyEnergy(60, 10.0, BusKind::kAdc, stats, usb);
  EXPECT_GT(hourly.usb.value() / hourly.upnp_mean.value(), 1e4);
}

TEST(EnergyModel, ErrorBarsBracketMean) {
  IdentStats stats = SampleIdentification(200, 13);
  UsbHostBaseline usb;
  YearlyEnergyPoint p = ComputeYearlyEnergy(60, 10.0, BusKind::kUart, stats, usb);
  EXPECT_LE(p.upnp_min.value(), p.upnp_mean.value());
  EXPECT_GE(p.upnp_max.value(), p.upnp_mean.value());
}

// --------------------------------------------------------------- pinout ----

TEST(Pinout, Table1Rows) {
  EXPECT_EQ(CommPinRow(BusKind::kAdc), (std::array<std::string, 3>{"Analog Signal", "N/C", "N/C"}));
  EXPECT_EQ(CommPinRow(BusKind::kI2c), (std::array<std::string, 3>{"SDA", "SCL", "N/C"}));
  EXPECT_EQ(CommPinRow(BusKind::kSpi), (std::array<std::string, 3>{"MOSI", "MISO", "SCK"}));
  EXPECT_EQ(CommPinRow(BusKind::kUart), (std::array<std::string, 3>{"TX", "RX", "N/C"}));
}

TEST(Pinout, NonCommPinsAreNotConnected) {
  EXPECT_EQ(CommPinSignal(BusKind::kSpi, 1), "N/C");
  EXPECT_EQ(CommPinSignal(BusKind::kSpi, 19), "N/C");
}

}  // namespace
}  // namespace micropnp
