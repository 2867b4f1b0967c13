// Software fp8 (E5M2 / E4M3) storage formats.
//
// The quantized datapath stores V:N:M value panels in 8-bit floating
// point, the formats tensor cores accept on Hopper-class hardware. Two
// layouts are supported, mirroring the OCP 8-bit floating point spec:
//
//   E5M2  5 exponent bits (bias 15), 2 mantissa bits. IEEE-like: has
//         infinities (0x7c) and NaNs; largest finite value 57344.
//   E4M3  4 exponent bits (bias 7), 3 mantissa bits. The "FN" variant:
//         no infinities, a single NaN code per sign (S.1111.111);
//         largest finite value 448. Conversion saturates on overflow.
//
// Like common/half.hpp, these are storage-only semantics: kernels decode
// to float (exact — every fp8 value is representable as float), compute
// in fp32/int32, and only weights are ever encoded. Encoding rounds to
// nearest-even; the bulk decoder is a 256-entry table lookup so the SpMM
// gather path pays one indexed load per value, no bit twiddling.
#pragma once

#include <cstddef>
#include <cstdint>

namespace venom {

class half_t;

/// The two 8-bit floating point layouts.
enum class Fp8Format : std::uint8_t { kE5M2, kE4M3 };

const char* to_string(Fp8Format fmt);

/// Exact fp8 -> float decode of one code. E5M2 0x7c/0xfc map to +-inf
/// and its NaN codes to a quiet NaN; E4M3 S.1111.111 maps to NaN.
float fp8_to_float(std::uint8_t bits, Fp8Format fmt);

/// float -> fp8 with round-to-nearest-even. E5M2 overflows to infinity
/// (|f| >= 61440, the RNE cutover past the largest finite 57344); E4M3
/// saturates to +-448 (including infinite inputs — the saturating OCP
/// conversion). NaN encodes to the canonical NaN of the format with the
/// sign preserved; values below half the smallest subnormal flush to
/// (signed) zero.
std::uint8_t float_to_fp8(float f, Fp8Format fmt);

/// Bulk decode: dst[i] = fp8_to_float(src[i], fmt), via the 256-entry
/// table. `src` and `dst` must not overlap.
void fp8_to_float_n(const std::uint8_t* src, float* dst, std::size_t n,
                    Fp8Format fmt);

/// Bulk encode: dst[i] = float_to_fp8(src[i], fmt), computed on the
/// float's bits instead of float_to_fp8's table search. Weight-
/// quantization path only (decoding is the hot direction). `src`/`dst`
/// must not overlap.
void float_to_fp8_n(const float* src, std::uint8_t* dst, std::size_t n,
                    Fp8Format fmt);

/// Bulk encode from fp16: dst[i] = float_to_fp8(src[i].to_float(), fmt),
/// through half_to_float_n (exact) and float_to_fp8_n.
void half_to_fp8_n(const half_t* src, std::uint8_t* dst, std::size_t n,
                   Fp8Format fmt);

}  // namespace venom
