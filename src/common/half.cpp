#include "common/half.hpp"

#include <bit>
#include <cstring>
#include <ostream>

// The bulk converters use F16C (VCVTPH2PS / VCVTPS2PH) when the compiler
// targets it; define VENOM_NO_F16C to force the portable path even then.
#if defined(__F16C__) && !defined(VENOM_NO_F16C)
#define VENOM_USE_F16C 1
#include <immintrin.h>
#endif

namespace venom {

namespace {

std::uint32_t as_u32(float f) { return std::bit_cast<std::uint32_t>(f); }
float as_f32(std::uint32_t u) { return std::bit_cast<float>(u); }

}  // namespace

std::uint16_t half_t::float_to_bits(float f) {
  const std::uint32_t x = as_u32(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN. Preserve NaN-ness with a quiet NaN payload bit.
    if (abs > 0x7f800000u) return static_cast<std::uint16_t>(sign | 0x7e00u);
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a value >= 65520 -> overflows to infinity.
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero): result = round(value / 2^-24).
    // abs <= 2^-25 (0x33000000) rounds to zero (the tie goes to even 0).
    if (abs <= 0x33000000u) return static_cast<std::uint16_t>(sign);
    const int exp = static_cast<int>(abs >> 23);        // in [102, 112]
    const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
    const int drop = 126 - exp;                         // in [14, 24]
    const std::uint32_t kept = drop >= 24 ? 0u : mant >> drop;
    const std::uint32_t rem = mant & ((1u << drop) - 1u);
    const std::uint32_t half_ulp = 1u << (drop - 1);
    std::uint32_t result = kept;
    if (rem > half_ulp || (rem == half_ulp && (kept & 1u))) ++result;
    // Rounding may carry into the smallest normal (0x0400) — still correct.
    return static_cast<std::uint16_t>(sign | result);
  }
  // Normal half. Re-bias the exponent and round the mantissa.
  const std::uint32_t rebased = abs - 0x38000000u;  // bias 127 -> 15
  const std::uint32_t kept = rebased >> 13;
  const std::uint32_t rem = rebased & 0x1fffu;
  std::uint32_t result = kept;
  if (rem > 0x1000u || (rem == 0x1000u && (kept & 1u))) ++result;
  return static_cast<std::uint16_t>(sign | result);
}

float half_t::bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;

  if (exp == 0) {
    if (mant == 0) return as_f32(sign);  // ±0
    // Subnormal: value = mant * 2^-24. Normalize into a float.
    const float scale = as_f32(0x33800000u);  // 2^-24
    const float v = static_cast<float>(mant) * scale;
    return as_f32(sign | as_u32(v));
  }
  if (exp == 0x1f) {
    if (mant == 0) return as_f32(sign | 0x7f800000u);        // ±inf
    return as_f32(sign | 0x7fc00000u | (mant << 13));        // NaN
  }
  // Normal: re-bias exponent 15 -> 127.
  return as_f32(sign | ((exp + 112) << 23) | (mant << 13));
}

void half_to_float_n(const half_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
#ifdef VENOM_USE_F16C
#ifdef __AVX512F__
  // 16 lanes at a time, so that a Lane16 load of the result is forwarded
  // from one store. Zero-masking forms under an all-ones mask, as in
  // common/lanes.hpp.
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_maskz_cvtph_ps(0xffff, h));
  }
#endif
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  // The tail one element at a time, with the same instruction: scalar
  // stores, so a scalar load of a tail element is forwarded from its
  // store (a vector load spanning several narrower stores is not).
  for (; i < n; ++i) dst[i] = _cvtsh_ss(src[i].bits());
#else
  // Portable path: select-based so the loop can if-convert. Normals
  // rescale exactly via 2^112 with no denormal float intermediate;
  // zeros/subnormals go through an exact integer * 2^-24 product (immune
  // to DAZ/FTZ, unlike an em<<13 denormal intermediate).
  for (; i < n; ++i) {
    const std::uint32_t h = src[i].bits();
    const std::uint32_t sign = (h & 0x8000u) << 16;
    const std::uint32_t em = h & 0x7fffu;
    std::uint32_t bits;
    if (em >= 0x7c00u)
      bits = (em & 0x3ffu) == 0
                 ? 0x7f800000u
                 : 0x7fc00000u | ((em & 0x3ffu) << 13);
    else if (em < 0x0400u)
      bits = as_u32(static_cast<float>(em) * 0x1p-24f);
    else
      bits = as_u32(as_f32(em << 13) * 0x1p112f);
    dst[i] = as_f32(sign | bits);
  }
#endif
}

void float_to_half_n(const float* src, half_t* dst, std::size_t n) {
  std::size_t i = 0;
#ifdef VENOM_USE_F16C
  // VCVTPS2PH with round-to-nearest-even matches float_to_bits on every
  // finite and infinite input (including halfway cases and subnormal
  // outputs). A NaN keeps its top payload bits there, so each NaN lane
  // is first replaced by the quiet NaN of its sign with no payload,
  // which converts to float_to_bits' sign | 0x7e00.
  constexpr int kSign = static_cast<int>(0x80000000u);
  constexpr int kQuiet = 0x7fc00000;
  constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
#ifdef __AVX512F__
  for (; i + 16 <= n; i += 16) {
    const __m512 x = _mm512_loadu_ps(src + i);
    const __m512 canonical = _mm512_castsi512_ps(_mm512_or_si512(
        _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(kSign)),
        _mm512_set1_epi32(kQuiet)));
    const __m512 y = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), x, canonical);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm512_maskz_cvtps_ph(0xffff, y, kRound));
  }
#endif
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(src + i);
    const __m256 canonical =
        _mm256_or_ps(_mm256_and_ps(x, _mm256_castsi256_ps(
                                          _mm256_set1_epi32(kSign))),
                     _mm256_castsi256_ps(_mm256_set1_epi32(kQuiet)));
    const __m256 y =
        _mm256_blendv_ps(x, canonical, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_cvtps_ph(y, kRound));
  }
  for (; i < n; ++i) {
    const std::uint32_t x = as_u32(src[i]);
    dst[i] = half_t::from_bits(
        (x & 0x7fffffffu) > 0x7f800000u
            ? static_cast<std::uint16_t>(((x >> 16) & 0x8000u) | 0x7e00u)
            : _cvtss_sh(src[i], kRound));
  }
#else
  for (; i < n; ++i) dst[i] = half_t(src[i]);
#endif
}

std::ostream& operator<<(std::ostream& os, half_t h) {
  return os << h.to_float();
}

}  // namespace venom
