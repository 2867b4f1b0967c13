// Unit tests for the fp8 (E5M2 / E4M3-FN) storage formats: exhaustive
// 256-code sweeps against an independent double-precision reference,
// round-to-nearest-even encode, saturation/overflow policy, and the
// bulk converters (the fp8 analogue of the binary16 suite).
#include "common/fp8.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/half.hpp"

namespace venom {
namespace {

/// Independent decode in double precision, straight from the format
/// definition (sign, biased exponent, mantissa) — no shared code with
/// the implementation's table builder.
double reference_decode(std::uint8_t bits, Fp8Format fmt) {
  const int mant = fmt == Fp8Format::kE5M2 ? 2 : 3;
  const int bias = fmt == Fp8Format::kE5M2 ? 15 : 7;
  const int exp_bits = 7 - mant;
  const double sign = (bits & 0x80) != 0 ? -1.0 : 1.0;
  const int e = (bits >> mant) & ((1 << exp_bits) - 1);
  const int m = bits & ((1 << mant) - 1);
  if (fmt == Fp8Format::kE5M2 && e == (1 << exp_bits) - 1) {
    if (m == 0) return sign * std::numeric_limits<double>::infinity();
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (fmt == Fp8Format::kE4M3 && e == (1 << exp_bits) - 1 &&
      m == (1 << mant) - 1)
    return std::numeric_limits<double>::quiet_NaN();
  if (e == 0) return sign * double(m) * std::ldexp(1.0, 1 - bias - mant);
  return sign * (1.0 + double(m) / double(1 << mant)) *
         std::ldexp(1.0, e - bias);
}

TEST(Fp8, FormatNames) {
  EXPECT_STREQ(to_string(Fp8Format::kE5M2), "e5m2");
  EXPECT_STREQ(to_string(Fp8Format::kE4M3), "e4m3");
}

TEST(Fp8, E5M2SpecialValues) {
  EXPECT_EQ(fp8_to_float(0x00, Fp8Format::kE5M2), 0.0f);
  EXPECT_TRUE(std::signbit(fp8_to_float(0x80, Fp8Format::kE5M2)));
  EXPECT_TRUE(std::isinf(fp8_to_float(0x7c, Fp8Format::kE5M2)));
  EXPECT_TRUE(std::isinf(fp8_to_float(0xfc, Fp8Format::kE5M2)));
  EXPECT_LT(fp8_to_float(0xfc, Fp8Format::kE5M2), 0.0f);
  // Mantissa != 0 at the top exponent is NaN (three codes per sign).
  for (std::uint8_t m : {0x7d, 0x7e, 0x7f, 0xfd, 0xfe, 0xff})
    EXPECT_TRUE(std::isnan(fp8_to_float(m, Fp8Format::kE5M2))) << int(m);
  // Largest finite: 1.75 * 2^15 = 57344.
  EXPECT_EQ(fp8_to_float(0x7b, Fp8Format::kE5M2), 57344.0f);
  EXPECT_EQ(fp8_to_float(0x3c, Fp8Format::kE5M2), 1.0f);
}

TEST(Fp8, E4M3SpecialValues) {
  EXPECT_EQ(fp8_to_float(0x00, Fp8Format::kE4M3), 0.0f);
  // E4M3-FN has no infinities; only S.1111.111 is NaN.
  EXPECT_TRUE(std::isnan(fp8_to_float(0x7f, Fp8Format::kE4M3)));
  EXPECT_TRUE(std::isnan(fp8_to_float(0xff, Fp8Format::kE4M3)));
  EXPECT_EQ(fp8_to_float(0x7e, Fp8Format::kE4M3), 448.0f);  // max finite
  EXPECT_EQ(fp8_to_float(0xfe, Fp8Format::kE4M3), -448.0f);
  EXPECT_EQ(fp8_to_float(0x38, Fp8Format::kE4M3), 1.0f);
}

TEST(Fp8, ExhaustiveDecodeMatchesReference) {
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    for (int code = 0; code < 256; ++code) {
      const float got = fp8_to_float(std::uint8_t(code), fmt);
      const double ref = reference_decode(std::uint8_t(code), fmt);
      if (std::isnan(ref)) {
        EXPECT_TRUE(std::isnan(got)) << to_string(fmt) << " code " << code;
      } else {
        // Every fp8 value is exactly representable in float.
        EXPECT_EQ(double(got), ref) << to_string(fmt) << " code " << code;
      }
    }
  }
}

TEST(Fp8, ExhaustiveEncodeRoundTrip) {
  // Every non-NaN code must survive decode -> encode bit-exactly
  // (including both zeros and the E5M2 infinities).
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    for (int code = 0; code < 256; ++code) {
      const float v = fp8_to_float(std::uint8_t(code), fmt);
      if (std::isnan(v)) continue;
      EXPECT_EQ(int(float_to_fp8(v, fmt)), code) << to_string(fmt);
    }
  }
}

TEST(Fp8, ExhaustiveMidpointsRoundToEven) {
  // The exact midpoint between every pair of adjacent finite positive
  // codes must round to the even code, above-midpoint up, below down —
  // for both signs.
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    const int max_finite = fmt == Fp8Format::kE5M2 ? 0x7b : 0x7e;
    for (int code = 0; code + 1 <= max_finite; ++code) {
      const double lo = reference_decode(std::uint8_t(code), fmt);
      const double hi = reference_decode(std::uint8_t(code + 1), fmt);
      const double mid = (lo + hi) / 2.0;
      const int even = (code & 1) == 0 ? code : code + 1;
      EXPECT_EQ(int(float_to_fp8(float(mid), fmt)), even)
          << to_string(fmt) << " code " << code;
      // The float one step off the midpoint lands on the near neighbor.
      const float above = std::nextafter(float(mid),
                                         std::numeric_limits<float>::max());
      const float below = std::nextafter(float(mid), 0.0f);
      EXPECT_EQ(int(float_to_fp8(above, fmt)), code + 1) << to_string(fmt);
      EXPECT_EQ(int(float_to_fp8(below, fmt)), code) << to_string(fmt);
      // Mirror for the negative sign.
      EXPECT_EQ(int(float_to_fp8(float(-mid), fmt)), 0x80 | even)
          << to_string(fmt);
    }
  }
}

TEST(Fp8, E5M2OverflowToInfinity) {
  // Midpoint between max finite (57344) and the would-be 65536 is 61440;
  // 65536's mantissa is even, so the tie rounds up to infinity.
  EXPECT_EQ(float_to_fp8(57344.0f, Fp8Format::kE5M2), 0x7b);
  EXPECT_EQ(float_to_fp8(61439.0f, Fp8Format::kE5M2), 0x7b);
  EXPECT_EQ(float_to_fp8(61440.0f, Fp8Format::kE5M2), 0x7c);
  EXPECT_EQ(float_to_fp8(1e30f, Fp8Format::kE5M2), 0x7c);
  EXPECT_EQ(float_to_fp8(-1e30f, Fp8Format::kE5M2), 0xfc);
  EXPECT_EQ(
      float_to_fp8(std::numeric_limits<float>::infinity(), Fp8Format::kE5M2),
      0x7c);
}

TEST(Fp8, E4M3SaturatesInsteadOfOverflowing) {
  // E4M3-FN is saturating: anything past 448 — including infinity —
  // clamps to the max finite code.
  EXPECT_EQ(float_to_fp8(448.0f, Fp8Format::kE4M3), 0x7e);
  EXPECT_EQ(float_to_fp8(449.0f, Fp8Format::kE4M3), 0x7e);
  EXPECT_EQ(float_to_fp8(1e30f, Fp8Format::kE4M3), 0x7e);
  EXPECT_EQ(
      float_to_fp8(std::numeric_limits<float>::infinity(), Fp8Format::kE4M3),
      0x7e);
  EXPECT_EQ(float_to_fp8(-1e30f, Fp8Format::kE4M3), 0xfe);
}

TEST(Fp8, NanEncodesToCanonicalCode) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(float_to_fp8(nan, Fp8Format::kE5M2), 0x7e);
  EXPECT_EQ(float_to_fp8(nan, Fp8Format::kE4M3), 0x7f);
  EXPECT_EQ(float_to_fp8(-nan, Fp8Format::kE5M2), 0xfe);
  EXPECT_EQ(float_to_fp8(-nan, Fp8Format::kE4M3), 0xff);
}

TEST(Fp8, SubnormalsAndFlushToZero) {
  // E5M2 smallest subnormal is 2^-16; below half of it flushes to zero
  // (the tie at exactly half rounds to the even code, which is zero).
  EXPECT_EQ(fp8_to_float(0x01, Fp8Format::kE5M2), 0x1.0p-16f);
  EXPECT_EQ(float_to_fp8(0x1.0p-16f, Fp8Format::kE5M2), 0x01);
  EXPECT_EQ(float_to_fp8(0x1.0p-17f, Fp8Format::kE5M2), 0x00);  // tie->even
  EXPECT_EQ(float_to_fp8(0x1.2p-17f, Fp8Format::kE5M2), 0x01);
  EXPECT_EQ(float_to_fp8(-0x1.0p-18f, Fp8Format::kE5M2), 0x80);  // signed 0
  // E4M3 smallest subnormal is 2^-9.
  EXPECT_EQ(fp8_to_float(0x01, Fp8Format::kE4M3), 0x1.0p-9f);
  EXPECT_EQ(float_to_fp8(0x1.0p-9f, Fp8Format::kE4M3), 0x01);
  EXPECT_EQ(float_to_fp8(0x1.0p-10f, Fp8Format::kE4M3), 0x00);
  EXPECT_EQ(float_to_fp8(0x1.2p-10f, Fp8Format::kE4M3), 0x01);
}

TEST(Fp8, SignedZeroRoundTrips) {
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    EXPECT_EQ(float_to_fp8(0.0f, fmt), 0x00) << to_string(fmt);
    EXPECT_EQ(float_to_fp8(-0.0f, fmt), 0x80) << to_string(fmt);
    EXPECT_EQ(fp8_to_float(0x80, fmt), 0.0f);
    EXPECT_TRUE(std::signbit(fp8_to_float(0x80, fmt)));
  }
}

TEST(Fp8, PrecisionBounds) {
  // Relative conversion error of in-range values is bounded by half an
  // ulp: 2^-3 relative for E5M2 (2 mantissa bits), 2^-4 for E4M3.
  for (float v : {0.1f, 0.3333f, 3.14159f, 123.456f, 0.017f}) {
    EXPECT_NEAR(fp8_to_float(float_to_fp8(v, Fp8Format::kE5M2),
                             Fp8Format::kE5M2),
                v, v * 0x1.0p-3f)
        << v;
    EXPECT_NEAR(fp8_to_float(float_to_fp8(v, Fp8Format::kE4M3),
                             Fp8Format::kE4M3),
                v, v * 0x1.0p-4f)
        << v;
  }
}

TEST(Fp8, BulkConvertersMatchElementwise) {
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    std::vector<std::uint8_t> codes(256);
    for (int i = 0; i < 256; ++i) codes[std::size_t(i)] = std::uint8_t(i);
    std::vector<float> decoded(256);
    fp8_to_float_n(codes.data(), decoded.data(), codes.size(), fmt);
    for (int i = 0; i < 256; ++i) {
      const float one = fp8_to_float(std::uint8_t(i), fmt);
      if (std::isnan(one)) {
        EXPECT_TRUE(std::isnan(decoded[std::size_t(i)]));
      } else {
        EXPECT_EQ(decoded[std::size_t(i)], one) << i;
      }
    }
    std::vector<std::uint8_t> encoded(256);
    float_to_fp8_n(decoded.data(), encoded.data(), decoded.size(), fmt);
    for (int i = 0; i < 256; ++i)
      EXPECT_EQ(encoded[std::size_t(i)],
                float_to_fp8(decoded[std::size_t(i)], fmt))
          << i;
  }
}

TEST(Fp8, HalfEncodeMatchesScalarOnEveryFp16Pattern) {
  std::vector<half_t> all(65536);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = half_t::from_bits(std::uint16_t(i));
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    std::vector<std::uint8_t> got(all.size());
    half_to_fp8_n(all.data(), got.data(), all.size(), fmt);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < all.size(); ++i)
      bad += got[i] != float_to_fp8(all[i].to_float(), fmt);
    EXPECT_EQ(bad, 0u) << to_string(fmt);
  }
}

TEST(Fp8, BulkEncodeMatchesScalarAroundEveryMidpointAndOnAFloatSweep) {
  // Every midpoint between adjacent codes, one float ulp either side of
  // it, and a stride through all 2^32 float patterns.
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    std::vector<float> src;
    const float inf = std::numeric_limits<float>::infinity();
    for (int code = 0; code + 1 < 0x7f; ++code) {
      const float lo = fp8_to_float(std::uint8_t(code), fmt);
      const float hi = fp8_to_float(std::uint8_t(code + 1), fmt);
      if (!std::isfinite(lo) || !std::isfinite(hi)) continue;
      const float mid = float((double(lo) + double(hi)) / 2.0);
      for (const float f : {mid, std::nextafter(mid, inf),
                            std::nextafter(mid, -inf)}) {
        src.push_back(f);
        src.push_back(-f);
      }
    }
    for (std::uint64_t u = 0; u < (std::uint64_t(1) << 32); u += 4099)
      src.push_back(std::bit_cast<float>(std::uint32_t(u)));
    std::vector<std::uint8_t> got(src.size());
    float_to_fp8_n(src.data(), got.data(), src.size(), fmt);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < src.size(); ++i)
      bad += got[i] != float_to_fp8(src[i], fmt);
    EXPECT_EQ(bad, 0u) << to_string(fmt);
  }
}

}  // namespace
}  // namespace venom
