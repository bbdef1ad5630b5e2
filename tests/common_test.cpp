// Unit tests for src/common: types, status/result, bytes, TLV, CRC, RNG,
// units, the fixed ring, SLoC counting.

#include <gtest/gtest.h>

#include "bench/paper/sloc.h"
#include "src/common/bytes.h"
#include "src/common/crc.h"
#include "src/common/fixed_ring.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/tlv.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "tests/oracles/reference_crc.h"

namespace micropnp {
namespace {

// ---------------------------------------------------------------- types ----

TEST(Types, FormatDeviceTypeId) {
  EXPECT_EQ(FormatDeviceTypeId(0xad1cbe01u), "0xad1cbe01");
  EXPECT_EQ(FormatDeviceTypeId(0x0u), "0x00000000");
  EXPECT_EQ(FormatDeviceTypeId(0xffffffffu), "0xffffffff");
}

TEST(Types, DeviceTypeByteRoundTrip) {
  const DeviceTypeId id = 0x12345678u;
  EXPECT_EQ(DeviceTypeByte(id, 0), 0x12);
  EXPECT_EQ(DeviceTypeByte(id, 1), 0x34);
  EXPECT_EQ(DeviceTypeByte(id, 2), 0x56);
  EXPECT_EQ(DeviceTypeByte(id, 3), 0x78);
  EXPECT_EQ(MakeDeviceTypeId(0x12, 0x34, 0x56, 0x78), id);
}

TEST(Types, ReservedIds) {
  EXPECT_EQ(kDeviceTypeAllPeripherals, 0x00000000u);
  EXPECT_EQ(kDeviceTypeAllClients, 0xffffffffu);
}

// --------------------------------------------------------------- status ----

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = DeadlineExceeded("uart rx");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "deadline_exceeded: uart rx");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

// ---------------------------------------------------------------- bytes ----

TEST(Bytes, WriterRoundTripsAllWidths) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0102030405060708ull);
  w.WriteI16(-2);
  w.WriteI32(-100000);

  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0102030405060708ull);
  EXPECT_EQ(r.ReadI16(), -2);
  EXPECT_EQ(r.ReadI32(), -100000);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.WriteU16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
}

TEST(Bytes, ReaderPoisonsOnUnderrun) {
  const uint8_t data[] = {0x01};
  ByteReader r(ByteSpan(data, 1));
  EXPECT_EQ(r.ReadU32(), 0u);
  EXPECT_FALSE(r.ok());
  // Further reads stay poisoned and return zero.
  EXPECT_EQ(r.ReadU8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, String8RoundTrip) {
  ByteWriter w;
  w.WriteString8("TMP36");
  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(r.ReadString8(), "TMP36");
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.WriteU16(0);
  w.WriteU8(7);
  w.PatchU16(0, 0xbeef);
  EXPECT_EQ(w.bytes()[0], 0xbe);
  EXPECT_EQ(w.bytes()[1], 0xef);
}

TEST(Bytes, HexFormatting) {
  const uint8_t data[] = {0xde, 0xad, 0x01};
  EXPECT_EQ(BytesToHex(ByteSpan(data, 3)), "dead01");
}

// ------------------------------------------------------------------ tlv ----

TEST(Tlv, ScalarAccessors) {
  Tlv t8 = Tlv::OfU8(TlvType::kChannel, 2);
  EXPECT_EQ(t8.AsU8(), 2);
  EXPECT_EQ(t8.AsU16(), std::nullopt);

  Tlv t16 = Tlv::OfU16(TlvType::kDriverVersion, 0x0102);
  EXPECT_EQ(t16.AsU16(), 0x0102);

  Tlv t32 = Tlv::OfU32(TlvType::kStreamPeriodMs, 10'000u);
  EXPECT_EQ(t32.AsU32(), 10'000u);

  Tlv ts = Tlv::OfString(TlvType::kFriendlyName, "BMP180");
  EXPECT_EQ(ts.AsString(), "BMP180");
}

TEST(Tlv, ListSerializeParseRoundTrip) {
  TlvList list;
  list.AddString(TlvType::kFriendlyName, "HIH-4030");
  list.AddU8(TlvType::kChannel, 1);
  list.AddU32(TlvType::kStreamPeriodMs, 10'000u);

  ByteWriter w;
  list.Serialize(w);
  EXPECT_EQ(w.size(), list.SerializedSize());

  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  Result<TlvList> parsed = TlvList::Parse(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, list);
}

TEST(Tlv, FindReturnsFirstMatch) {
  TlvList list;
  list.AddU8(TlvType::kChannel, 1);
  list.AddU8(TlvType::kChannel, 2);
  const Tlv* found = list.Find(TlvType::kChannel);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->AsU8(), 1);
  EXPECT_EQ(list.Find(TlvType::kVendor), nullptr);
}

TEST(Tlv, ParseRejectsTruncatedInput) {
  // Claims 1 tuple of length 10 but provides 2 bytes of value.
  const uint8_t data[] = {0x01, 0x01, 0x0a, 0xaa, 0xbb};
  ByteReader r(ByteSpan(data, sizeof(data)));
  Result<TlvList> parsed = TlvList::Parse(r);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorrupt);
}

// ------------------------------------------------------------------ crc ----

TEST(Crc, Crc16CcittCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc16Ccitt(ByteSpan(reinterpret_cast<const uint8_t*>(check), 9)), 0x29b1);
}

TEST(Crc, Crc32CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(ByteSpan(reinterpret_cast<const uint8_t*>(check), 9)), 0xcbf43926u);
}

TEST(Crc, EmptyInput) {
  EXPECT_EQ(Crc16Ccitt(ByteSpan()), 0xffff);
  EXPECT_EQ(Crc32(ByteSpan()), 0u);
}

TEST(Crc, DetectsSingleBitFlip) {
  std::vector<uint8_t> data = {0x10, 0x20, 0x30, 0x40};
  const uint16_t original = Crc16Ccitt(ByteSpan(data.data(), data.size()));
  data[2] ^= 0x01;
  EXPECT_NE(Crc16Ccitt(ByteSpan(data.data(), data.size())), original);
}

TEST(Crc, Crc16TableMatchesBitwiseReference) {
  Rng rng(16);
  std::vector<uint8_t> data;
  for (int trial = 0; trial < 500; ++trial) {
    data.resize(rng.UniformInt(0, 300));
    for (uint8_t& byte : data) {
      byte = static_cast<uint8_t>(rng.NextU32());
    }
    const ByteSpan span(data.data(), data.size());
    ASSERT_EQ(Crc16Ccitt(span), ReferenceCrc16Ccitt(span)) << "length " << data.size();
  }
}

// ----------------------------------------------------------- fixed ring ----

TEST(FixedRing, KeepsFifoOrderAcrossWraps) {
  FixedRing<int, 4> ring;
  int next_in = 0;
  int next_out = 0;
  // Three in, two out per round: the head walks round the array several
  // times while the ring fills up.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3 && !ring.full(); ++i) {
      ring.push_back(next_in++);
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_FALSE(ring.empty());
      EXPECT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
  }
  // One in, one out: 20 more wraps at a constant fill.
  for (int i = 0; i < 80; ++i) {
    ring.push_back(next_in++);
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(FixedRing, FullAtCapacity) {
  FixedRing<int, 3> ring;
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(ring.full());
    ring.push_back(i);
    EXPECT_EQ(ring.size(), static_cast<size_t>(i + 1));
  }
  EXPECT_TRUE(ring.full());
  ring.pop_front();
  EXPECT_FALSE(ring.full());
  ring.push_back(3);  // lands in the slot the pop freed, at the array's start
  EXPECT_TRUE(ring.full());
  for (int expected = 1; expected <= 3; ++expected) {
    EXPECT_EQ(ring.front(), expected);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FixedRing, ClearEmptiesAWrappedRing) {
  FixedRing<int, 4> ring;
  for (int i = 0; i < 6; ++i) {
    ring.push_back(i);
    if (ring.size() > 2) {
      ring.pop_front();
    }
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 10; i < 14; ++i) {
    ring.push_back(i);
  }
  EXPECT_TRUE(ring.full());
  for (int expected = 10; expected < 14; ++expected) {
    EXPECT_EQ(ring.front(), expected);
    ring.pop_front();
  }
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

// ---------------------------------------------------------------- units ----

TEST(Units, PulseLengthDimensionalFormula) {
  // T = k R C: 1.1 * 10k * 100nF = 1.1 ms.
  Seconds t = PulseLength(1.1, KiloOhms(10), NanoFarads(100));
  EXPECT_NEAR(t.value(), 1.1e-3, 1e-12);
}

TEST(Units, EnergyFromPower) {
  Joules e = Energy(Power(Volts(3.3), MilliAmps(7.0)), MilliSeconds(300));
  EXPECT_NEAR(e.value(), 3.3 * 7e-3 * 0.3, 1e-12);
}

TEST(Units, QuantityComparisonsAndArithmetic) {
  EXPECT_LT(MilliSeconds(1), MilliSeconds(2));
  EXPECT_NEAR((MilliSeconds(3) - MilliSeconds(1)).value(), 2e-3, 1e-15);
  EXPECT_NEAR(MilliSeconds(4) / MilliSeconds(2), 2.0, 1e-12);
}

// ----------------------------------------------------------------- sloc ----

TEST(Sloc, DslCountsCodeLinesOnly) {
  const char* src =
      "import uart;\n"
      "\n"
      "# full-line comment\n"
      "uint8_t idx;   # trailing comment\n"
      "   \n"
      "event init():\n";
  EXPECT_EQ(CountSloc(src, SlocLanguage::kMicroPnpDsl), 3);
}

TEST(Sloc, CHandlesBlockComments) {
  const char* src =
      "/* header\n"
      "   comment */\n"
      "int x = 1;  // trailing\n"
      "/* inline */ int y = 2;\n"
      "// only comment\n"
      "\n";
  EXPECT_EQ(CountSloc(src, SlocLanguage::kC), 2);
}

TEST(Sloc, EmptySourceIsZero) {
  EXPECT_EQ(CountSloc("", SlocLanguage::kC), 0);
  EXPECT_EQ(CountSloc("\n\n", SlocLanguage::kMicroPnpDsl), 0);
}

}  // namespace
}  // namespace micropnp
