// The one definition of exp, tanh and gelu (see fmath.hpp).
//
// Each function body is written once, as a template over a lane type
// (common/lanes.hpp) that supplies IEEE single-precision add, sub, mul,
// div, fma, min, max, compares and bit moves, so the Lane1, Lane8 and
// Lane16 instantiations are bit-identical by construction. This file is
// compiled with -ffp-contract=off: a multiply followed by an add stays
// two roundings unless written as fma.
#include "common/fmath.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/lanes.hpp"

namespace venom::fmath {

namespace {

using lanes::Lane1;
using lanes::Native;

/// exp: clamp x to [-104, 89] (a NaN clamps to -104 and is restored at
/// the end), k = nearest integer to x log2(e) (ties to even, by the
/// 1.5 * 2^23 rounding constant), r = x - k ln2 in two fma steps with
/// ln2 = kLn2Hi + kLn2Lo, e^r = 1 + r + r^2 P(r) with Cephes' degree-5
/// P, then scale2k by 2^k.
template <class L>
typename L::F exp_lanes(typename L::F x) {
  using F = typename L::F;
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  const F c = L::min(L::max(x, L::set(-104.0f)), L::set(89.0f));
  const F k = L::sub(L::fma(c, L::set(kLog2e), L::set(kRound)),
                     L::set(kRound));
  F r = L::fma(k, L::set(-kLn2Hi), c);
  r = L::fma(k, L::set(-kLn2Lo), r);
  F p = L::set(1.9875691500e-4f);
  p = L::fma(p, r, L::set(1.3981999507e-3f));
  p = L::fma(p, r, L::set(8.3334519073e-3f));
  p = L::fma(p, r, L::set(4.1665795894e-2f));
  p = L::fma(p, r, L::set(1.6666665459e-1f));
  p = L::fma(p, r, L::set(5.0000001201e-1f));
  const F y = L::add(L::fma(p, L::mul(r, r), r), L::set(1.0f));
  return L::select(L::is_nan(x), L::add(x, x), L::scale2k(y, k));
}

/// tanh on a = |x|: below 0.625, a + a z Q(z) with z = a^2 and Cephes'
/// degree-4 Q; from 0.625 on, 1 - 2 / (e^(2a) + 1), which reaches
/// exactly 1 once e^(2a) + 1 rounds above 2^25. The sign of x is copied
/// back onto the result.
template <class L>
typename L::F tanh_lanes(typename L::F x) {
  using F = typename L::F;
  const F a = L::abs(x);
  const F z = L::mul(a, a);
  F q = L::set(-5.70498872745e-3f);
  q = L::fma(q, z, L::set(2.06390887954e-2f));
  q = L::fma(q, z, L::set(-5.37397155531e-2f));
  q = L::fma(q, z, L::set(1.33314422036e-1f));
  q = L::fma(q, z, L::set(-3.33332819422e-1f));
  const F small = L::fma(L::mul(q, z), a, a);
  const F e = exp_lanes<L>(L::add(a, a));
  const F large = L::sub(L::set(1.0f),
                         L::div(L::set(2.0f), L::add(e, L::set(1.0f))));
  const F t = L::select(L::lt(a, L::set(0.625f)), small, large);
  return L::select(L::is_nan(x), L::add(x, x), L::with_sign_of(t, x));
}

/// gelu: w = fma(0.044715 v v, v, v), then (0.5 v) (1 + tanh(k w)).
template <class L>
typename L::F gelu_lanes(typename L::F v) {
  using F = typename L::F;
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  const F cube = L::mul(L::mul(L::set(0.044715f), v), v);
  const F w = L::fma(cube, v, v);
  const F t = tanh_lanes<L>(L::mul(L::set(kSqrt2OverPi), w));
  return L::mul(L::mul(L::set(0.5f), v), L::add(L::set(1.0f), t));
}

/// y[i] = body(x[i]) in full vectors of L; a ragged tail runs as one
/// zero-padded vector.
template <class L, class Body>
void map_n(const float* x, float* y, std::size_t n, Body body) {
  constexpr std::size_t w = L::kWidth;
  std::size_t i = 0;
  for (; i + w <= n; i += w) L::store(y + i, body(L::load(x + i)));
  if (i < n) {
    float pad[w] = {};
    std::copy(x + i, x + n, pad);
    L::store(pad, body(L::load(pad)));
    std::copy(pad, pad + (n - i), y + i);
  }
}

/// Lanes of softmax_n's max and partial sums.
constexpr std::size_t kSoftmaxLanes = 16;

/// softmax_n with L's registers holding the 16 lanes: kRegs registers
/// of L::kWidth lanes each, block i's element j in lane j. A ragged tail
/// folds into the stored lanes one element at a time; its exp runs as
/// one padded vector.
template <class L>
void softmax_lanes(float* v, std::size_t n) {
  using F = typename L::F;
  constexpr std::size_t kRegs = kSoftmaxLanes / L::kWidth;
  const std::size_t full = n - n % kSoftmaxLanes;
  F acc[kRegs] = {};
  float lane[kSoftmaxLanes] = {};
  const auto reduce = [&](auto op) {
    for (std::size_t w = kSoftmaxLanes / 2; w >= 1; w /= 2)
      for (std::size_t u = 0; u < w; ++u) lane[u] = op(lane[u], lane[u + w]);
    return lane[0];
  };
  const auto spill = [&] {
    for (std::size_t r = 0; r < kRegs; ++r)
      L::store(lane + r * L::kWidth, acc[r]);
  };

  for (std::size_t r = 0; r < kRegs; ++r)
    acc[r] = L::set(-std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < full; i += kSoftmaxLanes)
    for (std::size_t r = 0; r < kRegs; ++r)
      acc[r] = L::max(acc[r], L::load(v + i + r * L::kWidth));
  spill();
  for (std::size_t i = full; i < n; ++i)
    lane[i - full] = Lane1::max(lane[i - full], v[i]);
  const F mx = L::set(reduce(Lane1::max));

  for (std::size_t r = 0; r < kRegs; ++r) acc[r] = L::set(0.0f);
  for (std::size_t i = 0; i < full; i += kSoftmaxLanes)
    for (std::size_t r = 0; r < kRegs; ++r) {
      float* p = v + i + r * L::kWidth;
      const F e = exp_lanes<L>(L::sub(L::load(p), mx));
      L::store(p, e);
      acc[r] = L::add(acc[r], e);
    }
  spill();
  if (full < n) {
    float pad[kSoftmaxLanes] = {};
    std::copy(v + full, v + n, pad);
    for (std::size_t r = 0; r < kRegs; ++r) {
      float* p = pad + r * L::kWidth;
      L::store(p, exp_lanes<L>(L::sub(L::load(p), mx)));
    }
    for (std::size_t i = full; i < n; ++i) {
      v[i] = pad[i - full];
      lane[i - full] += v[i];
    }
  }
  const float inv = 1.0f / reduce(Lane1::add);

  const F s = L::set(inv);
  const std::size_t body = n - n % L::kWidth;
  for (std::size_t i = 0; i < body; i += L::kWidth)
    L::store(v + i, L::mul(L::load(v + i), s));
  for (std::size_t i = body; i < n; ++i) v[i] *= inv;
}

}  // namespace

float exp(float x) { return exp_lanes<Lane1>(x); }

float tanh(float x) { return tanh_lanes<Lane1>(x); }

float gelu(float v) { return gelu_lanes<Lane1>(v); }

void exp_n(const float* x, float* y, std::size_t n) {
  map_n<Native>(x, y, n, [](Native::F v) { return exp_lanes<Native>(v); });
}

void tanh_n(const float* x, float* y, std::size_t n) {
  map_n<Native>(x, y, n, [](Native::F v) { return tanh_lanes<Native>(v); });
}

void gelu_n(const float* x, float* y, std::size_t n) {
  map_n<Native>(x, y, n, [](Native::F v) { return gelu_lanes<Native>(v); });
}

void softmax_n(float* v, std::size_t n) {
  if (n != 0) softmax_lanes<Native>(v, n);
}

}  // namespace venom::fmath
