// Library-owned transcendental numerics: exp, tanh and gelu with fixed
// bit semantics, independent of the host's libm and of the compiler.
//
// Each function is one definition: range reduction plus a fixed
// polynomial, every multiply-add an explicit fused multiply-add, in a
// written operation order. fmath.cpp is compiled with -ffp-contract=off
// (a build property set in CMakeLists.txt), so the compiler fuses
// nothing else. The scalar functions and the array entry points run the
// same definition: the arrays evaluate it 16 lanes at a time under
// AVX-512F, 8 lanes under AVX2 + FMA, and one element at a time
// otherwise. A ragged tail is evaluated as a zero-padded full vector, so
// an element's result depends only on its own input, never on its
// position, on n or on the build's lane width.
//
// Accuracy, against the double-precision std::exp / std::tanh rounded
// to float, checked over every finite float input:
//   exp   <= 1 ulp, normal and subnormal results alike
//   tanh  <= 1 ulp
//   gelu  within 1 fp16 ulp, on every finite half, of the same formula
//         evaluated with glibc's tanhf (1 of the 63,488 differs)
//
// Outside the normal range:
//   exp(NaN) and tanh(NaN) return the input NaN, quieted (sign kept).
//   exp: +inf and x > ~88.72 overflow to +inf; -inf and x < ~-103.97
//     give +0; a subnormal result is the reduced value scaled by 2^k with
//     one rounding; exp(+-0) = 1.
//   tanh: tanh(+-0) = +-0, a subnormal x returns x, |x| >= ~9.01
//     (including +-inf) returns +-1. tanh is odd: tanh(-x) = -tanh(x)
//     bit for bit.
//   gelu follows its formula through these: gelu(+inf) = +inf,
//     gelu(-inf) = NaN (-inf * 0), gelu(NaN) = NaN, gelu(-0) = -0.
#pragma once

#include <cstddef>

namespace venom::fmath {

/// e^x.
float exp(float x);

/// Hyperbolic tangent.
float tanh(float x);

/// GELU, tanh approximation: 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715
/// v^3))), evaluated as (0.5 v) (1 + tanh(k w)) with k = sqrt(2/pi) and
/// w = fma(0.044715 v v, v, v).
float gelu(float v);

/// y[i] = exp(x[i]) for i in [0, n); x == y (in place) is allowed.
void exp_n(const float* x, float* y, std::size_t n);

/// y[i] = tanh(x[i]) for i in [0, n); x == y is allowed.
void tanh_n(const float* x, float* y, std::size_t n);

/// y[i] = gelu(x[i]) for i in [0, n); x == y is allowed.
void gelu_n(const float* x, float* y, std::size_t n);

/// Softmax of v[0, n) in place, in one fixed order on every lane width:
///   mx    = the max of v: lane j (j < 16) folds v[i] for i mod 16 = j,
///           i ascending, as (m > v[i] ? m : v[i]) from -inf; the lanes
///           then reduce as lane[u] = max(lane[u], lane[u + w]) for
///           w = 8, 4, 2, 1;
///   e[i]  = exp(v[i] - mx);
///   sum   = 16 partial sums of e by i mod 16, i ascending, reduced as
///           lane[u] += lane[u + w] for w = 8, 4, 2, 1;
///   v[i]  = e[i] * (1 / sum).
/// n = 0 is a no-op. A NaN or +inf in v makes every output NaN.
void softmax_n(float* v, std::size_t n);

}  // namespace venom::fmath
