// Lane types: the one set of vector registers under the library's
// bit-defined loops (common/fmath.cpp, the packed SpMM in
// spatha/packed.cpp, and in transformer/ops.cpp the attention core and
// add / layer_norm).
// Internal: not part of the public API.
//
// Lane1 is one float; Lane8 and Lane16 are the AVX2 + FMA and AVX-512F
// registers. Every lane operation is one correctly rounded IEEE
// operation (or an exact bit move) with the same NaN rule on every
// width, so a loop written once over a lane type is bit-identical on
// each of them. The lane types perform no multiply-add of their own
// except `fma`, and a file that writes its arithmetic over them is
// compiled with -ffp-contract=off, so a multiply followed by an add
// stays two roundings unless written as fma. (transformer/ops.cpp is on
// that list too: layer_norm's normalize step is a multiply feeding an
// fma, and the file's scalar oracles and backward are plain C++.)
//
// Besides arithmetic, the types carry what the SpMM kernels and the
// attention core need:
//   I / load_i      a register of int32 indices, widened from bytes;
//   mask_bits       a lane mask from the low kWidth bits of an integer;
//   load_mask       masked load of consecutive floats: lanes outside the
//                   mask read no memory and hold +0;
//   gather          masked indexed load: lanes outside the mask read no
//                   memory and hold +0;
//   permute         (Lane8, Lane16) lane i takes table[idx[i]], an
//                   in-register lookup for idx < kWidth;
//   fma_mask        masked fused multiply-add: lanes outside the mask
//                   keep the accumulator unchanged.
// `Native` is the widest type the build targets.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace venom::lanes {

/// One float: the reference semantics every lane type reproduces. min
/// and max follow x86 MINPS / MAXPS: the second operand unless the first
/// compares less (greater), so a NaN first operand yields the second.
struct Lane1 {
  using F = float;
  using M = bool;
  using I = std::int32_t;
  static constexpr std::size_t kWidth = 1;
  static F set(float c) { return c; }
  static F load(const float* p) { return *p; }
  static void store(float* p, F v) { *p = v; }
  static I load_i(const std::uint8_t* p) { return *p; }
  static M mask_bits(unsigned bits) { return (bits & 1u) != 0; }
  static F load_mask(const float* p, M m) { return m ? *p : 0.0f; }
  static F gather(const float* base, I idx, M m) {
    return m ? base[idx] : 0.0f;
  }
  static F add(F a, F b) { return a + b; }
  static F sub(F a, F b) { return a - b; }
  static F mul(F a, F b) { return a * b; }
  static F div(F a, F b) { return a / b; }
  static F fma(F a, F b, F c) { return std::fma(a, b, c); }
  static F fma_mask(M m, F a, F b, F c) { return m ? std::fma(a, b, c) : c; }
  static F min(F a, F b) { return a < b ? a : b; }
  static F max(F a, F b) { return a > b ? a : b; }
  static M lt(F a, F b) { return a < b; }
  static M is_nan(F a) { return std::isnan(a); }
  static F select(M m, F a, F b) { return m ? a : b; }
  static F abs(F a) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) & 0x7fffffffu);
  }
  /// `mag` (sign bit clear) with the sign bit of `s`.
  static F with_sign_of(F mag, F s) {
    const std::uint32_t sign = std::bit_cast<std::uint32_t>(s) & 0x80000000u;
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(mag) | sign);
  }
  /// (y * 2^k1) * 2^k2 with k1 = floor(k / 2), k2 = k - k1, for an
  /// integer-valued k in [-150, 128]: both factors are normal floats.
  static F scale2k(F y, F k) {
    const auto ki = static_cast<std::int32_t>(k);
    const std::int32_t k1 = ki >> 1;
    const auto pow2 = [](std::int32_t e) {
      return std::bit_cast<float>(static_cast<std::uint32_t>(e + 127) << 23);
    };
    return y * pow2(k1) * pow2(ki - k1);
  }
};

#if defined(__AVX2__) && defined(__FMA__)
struct Lane8 {
  using F = __m256;
  using M = __m256;
  using I = __m256i;
  static constexpr std::size_t kWidth = 8;
  static F set(float c) { return _mm256_set1_ps(c); }
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static I load_i(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static M mask_bits(unsigned bits) {
    const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i b = _mm256_set1_epi32(static_cast<int>(bits & 0xffu));
    return _mm256_castsi256_ps(
        _mm256_cmpeq_epi32(_mm256_and_si256(b, lane_bit), lane_bit));
  }
  static F load_mask(const float* p, M m) {
    return _mm256_maskload_ps(p, _mm256_castps_si256(m));
  }
  static F gather(const float* base, I idx, M m) {
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, idx, m, 4);
  }
  static F permute(F table, I idx) {
    return _mm256_permutevar8x32_ps(table, idx);
  }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F div(F a, F b) { return _mm256_div_ps(a, b); }
  static F fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F fma_mask(M m, F a, F b, F c) {
    return _mm256_blendv_ps(c, _mm256_fmadd_ps(a, b, c), m);
  }
  static F min(F a, F b) { return _mm256_min_ps(a, b); }
  static F max(F a, F b) { return _mm256_max_ps(a, b); }
  static M lt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static M is_nan(F a) { return _mm256_cmp_ps(a, a, _CMP_UNORD_Q); }
  static F select(M m, F a, F b) { return _mm256_blendv_ps(b, a, m); }
  static F abs(F a) {
    return _mm256_castsi256_ps(_mm256_and_si256(
        _mm256_castps_si256(a), _mm256_set1_epi32(0x7fffffff)));
  }
  static F with_sign_of(F mag, F s) {
    const __m256i sign = _mm256_and_si256(
        _mm256_castps_si256(s),
        _mm256_set1_epi32(static_cast<int>(0x80000000u)));
    return _mm256_castsi256_ps(
        _mm256_or_si256(_mm256_castps_si256(mag), sign));
  }
  static F scale2k(F y, F k) {
    const __m256i ki = _mm256_cvttps_epi32(k);
    const __m256i k1 = _mm256_srai_epi32(ki, 1);
    const auto pow2 = [](__m256i e) {
      return _mm256_castsi256_ps(
          _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(127)), 23));
    };
    return mul(mul(y, pow2(k1)), pow2(_mm256_sub_epi32(ki, k1)));
  }
};
#endif

#if defined(__AVX512F__)
/// min, max, cvtt, the byte widening and the shifts use the zero-masking
/// forms under an all-ones mask: the same instructions, but GCC 12 warns
/// that the unmasked forms' undefined pass-through is used uninitialized.
struct Lane16 {
  using F = __m512;
  using M = __mmask16;
  using I = __m512i;
  static constexpr std::size_t kWidth = 16;
  static constexpr M kAll = 0xffff;
  static F set(float c) { return _mm512_set1_ps(c); }
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static I load_i(const std::uint8_t* p) {
    return _mm512_maskz_cvtepu8_epi32(
        kAll, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static M mask_bits(unsigned bits) { return static_cast<M>(bits & 0xffffu); }
  static F load_mask(const float* p, M m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static F gather(const float* base, I idx, M m) {
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m, idx, base, 4);
  }
  static F permute(F table, I idx) {
    return _mm512_maskz_permutexvar_ps(kAll, idx, table);
  }
  static F add(F a, F b) { return _mm512_add_ps(a, b); }
  static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F div(F a, F b) { return _mm512_div_ps(a, b); }
  static F fma(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F fma_mask(M m, F a, F b, F c) {
    return _mm512_mask3_fmadd_ps(a, b, c, m);
  }
  static F min(F a, F b) { return _mm512_maskz_min_ps(kAll, a, b); }
  static F max(F a, F b) { return _mm512_maskz_max_ps(kAll, a, b); }
  static M lt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static M is_nan(F a) { return _mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q); }
  static F select(M m, F a, F b) { return _mm512_mask_blend_ps(m, b, a); }
  static F abs(F a) { return _mm512_abs_ps(a); }
  static F with_sign_of(F mag, F s) {
    const __m512i sign = _mm512_and_si512(
        _mm512_castps_si512(s),
        _mm512_set1_epi32(static_cast<int>(0x80000000u)));
    return _mm512_castsi512_ps(
        _mm512_or_si512(_mm512_castps_si512(mag), sign));
  }
  static F scale2k(F y, F k) {
    const __m512i ki = _mm512_maskz_cvttps_epi32(kAll, k);
    const __m512i k1 = _mm512_maskz_srai_epi32(kAll, ki, 1);
    const auto pow2 = [](__m512i e) {
      return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
          kAll, _mm512_add_epi32(e, _mm512_set1_epi32(127)), 23));
    };
    return mul(mul(y, pow2(k1)), pow2(_mm512_sub_epi32(ki, k1)));
  }
};
#endif

#if defined(__AVX512F__)
using Native = Lane16;
#elif defined(__AVX2__) && defined(__FMA__)
using Native = Lane8;
#else
using Native = Lane1;
#endif

}  // namespace venom::lanes
