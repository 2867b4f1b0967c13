#include "common/fp8.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "common/half.hpp"

namespace venom {

namespace {

// Field widths / biases of the two layouts. E5M2 is IEEE-like (inf at
// exponent-all-ones, mantissa 0); E4M3-FN spends that code space on
// finite values and keeps a single NaN per sign (S.1111.111).
struct Layout {
  int mant_bits;
  int bias;
  std::uint8_t max_finite;  // largest positive finite code
  std::uint8_t nan_code;    // canonical positive NaN
};

constexpr Layout kE5M2{2, 15, 0x7b, 0x7e};
constexpr Layout kE4M3{3, 7, 0x7e, 0x7f};

constexpr const Layout& layout(Fp8Format fmt) {
  return fmt == Fp8Format::kE5M2 ? kE5M2 : kE4M3;
}

float decode_one(std::uint8_t bits, Fp8Format fmt) {
  const Layout& l = layout(fmt);
  const int sign = (bits & 0x80u) != 0 ? -1 : 1;
  const int exp_mask = (1 << (7 - l.mant_bits)) - 1;
  const int e = (bits >> l.mant_bits) & exp_mask;
  const int m = bits & ((1 << l.mant_bits) - 1);
  if (fmt == Fp8Format::kE5M2 && e == exp_mask) {
    if (m == 0) return float(sign) * std::numeric_limits<float>::infinity();
    return std::numeric_limits<float>::quiet_NaN();
  }
  if (fmt == Fp8Format::kE4M3 && e == exp_mask &&
      m == (1 << l.mant_bits) - 1)
    return std::numeric_limits<float>::quiet_NaN();
  // value = (implicit + m) * 2^(e - bias - mant_bits), implicit = 0 for
  // subnormals (e == 0, effective exponent 1 - bias).
  const int significand = e == 0 ? m : (1 << l.mant_bits) + m;
  const int exponent = (e == 0 ? 1 : e) - l.bias - l.mant_bits;
  return float(sign) * std::ldexp(float(significand), exponent);
}

std::array<float, 256> make_table(Fp8Format fmt) {
  std::array<float, 256> t{};
  for (int i = 0; i < 256; ++i)
    t[std::size_t(i)] = decode_one(std::uint8_t(i), fmt);
  return t;
}

const std::array<float, 256>& decode_table(Fp8Format fmt) {
  static const std::array<float, 256> e5m2 = make_table(Fp8Format::kE5M2);
  static const std::array<float, 256> e4m3 = make_table(Fp8Format::kE4M3);
  return fmt == Fp8Format::kE5M2 ? e5m2 : e4m3;
}

/// float_to_fp8 in integer arithmetic on the float's bits, with no
/// table search: the bulk encoders' body. Round to nearest, ties to the
/// even code, as float_to_fp8; test_fp8 pins the two equal.
std::uint8_t encode_bits(float f, Fp8Format fmt) {
  const Layout& l = layout(fmt);
  std::uint32_t u = std::bit_cast<std::uint32_t>(f);
  const std::uint8_t sign = std::uint8_t((u >> 24) & 0x80u);
  u &= 0x7fffffffu;
  if (u > 0x7f800000u) return std::uint8_t(l.nan_code | sign);
  if (fmt == Fp8Format::kE5M2) {
    if (u >= std::bit_cast<std::uint32_t>(61440.0f))
      return std::uint8_t(0x7cu | sign);
  } else if (u > std::bit_cast<std::uint32_t>(448.0f)) {
    return std::uint8_t(l.max_finite | sign);
  }
  const int shift = 23 - l.mant_bits;  // float mantissa bits dropped
  if (u < std::uint32_t(127 + 1 - l.bias) << 23) {
    // Below the smallest normal: adding 2^(shift + 1 - bias) leaves the
    // sum's ulp equal to the smallest subnormal, so the FPU's own
    // round-to-nearest-even lands the code in the low mantissa bits (a
    // carry into the exponent field is the smallest normal's code).
    const float magic =
        std::bit_cast<float>(std::uint32_t(127 + shift + 1 - l.bias) << 23);
    const float sum = std::bit_cast<float>(u) + magic;
    return std::uint8_t((std::bit_cast<std::uint32_t>(sum) -
                         std::bit_cast<std::uint32_t>(magic)) |
                        sign);
  }
  // Normal: round off `shift` mantissa bits, ties to even (a carry rolls
  // into the exponent), then rebias the exponent.
  u += (1u << (shift - 1)) - 1 + ((u >> shift) & 1u);
  return std::uint8_t(((u >> shift) - (std::uint32_t(127 - l.bias)
                                       << l.mant_bits)) |
                      sign);
}

}  // namespace

const char* to_string(Fp8Format fmt) {
  switch (fmt) {
    case Fp8Format::kE5M2: return "e5m2";
    case Fp8Format::kE4M3: return "e4m3";
  }
  return "?";
}

float fp8_to_float(std::uint8_t bits, Fp8Format fmt) {
  return decode_table(fmt)[bits];
}

std::uint8_t float_to_fp8(float f, Fp8Format fmt) {
  const Layout& l = layout(fmt);
  const std::uint8_t sign = std::signbit(f) ? 0x80u : 0x00u;
  if (std::isnan(f)) return std::uint8_t(l.nan_code | sign);
  const float a = std::fabs(f);
  if (fmt == Fp8Format::kE5M2) {
    // RNE cutover to infinity: past max finite (57344) plus half the ulp
    // the next exponent step would have (the would-be 65536 has an even
    // mantissa, so the exact midpoint 61440 also rounds up).
    if (a >= 61440.0f) return std::uint8_t(0x7cu | sign);
  } else {
    // Saturating conversion (no infinities in E4M3-FN).
    if (a > 448.0f) return std::uint8_t(l.max_finite | sign);
  }
  const std::array<float, 256>& table = decode_table(fmt);
  // Positive codes are monotone in value; find the bracketing pair and
  // round to nearest with ties to the even mantissa (= even code: the
  // mantissa LSB is the code LSB across exponent rollovers too).
  const float* begin = table.data();
  const float* end = begin + l.max_finite + 1;
  const float* it = std::upper_bound(begin, end, a);
  std::uint8_t code = std::uint8_t((it - begin) - 1);  // table[code] <= a
  if (code < l.max_finite) {
    const double mid =
        (double(table[code]) + double(table[code + 1u])) / 2.0;
    if (double(a) > mid || (double(a) == mid && (code & 1u) != 0))
      ++code;
  }
  return std::uint8_t(code | sign);
}

void fp8_to_float_n(const std::uint8_t* src, float* dst, std::size_t n,
                    Fp8Format fmt) {
  const std::array<float, 256>& table = decode_table(fmt);
  for (std::size_t i = 0; i < n; ++i) dst[i] = table[src[i]];
}

void float_to_fp8_n(const float* src, std::uint8_t* dst, std::size_t n,
                    Fp8Format fmt) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = encode_bits(src[i], fmt);
}

void half_to_fp8_n(const half_t* src, std::uint8_t* dst, std::size_t n,
                   Fp8Format fmt) {
  constexpr std::size_t kBlock = 256;
  float buf[kBlock];
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t len = std::min(kBlock, n - i);
    half_to_float_n(src + i, buf, len);  // exact
    float_to_fp8_n(buf, dst + i, len, fmt);
  }
}

}  // namespace venom
