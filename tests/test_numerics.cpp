// Numerics and determinism tests: special-value propagation, fp16
// saturation behaviour in the kernels, bitwise reproducibility of
// parallel execution across thread-pool sizes, and the library-owned
// exp / tanh / gelu / softmax (common/fmath).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "baselines/gemm.hpp"
#include "common/fmath.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/thread_pool_testing.hpp"
#include "format/vnm.hpp"
#include "spatha/spmm.hpp"
#include "transformer/encoder.hpp"
#include "transformer/kv_cache.hpp"
#include "transformer/ops.hpp"

namespace venom {
namespace {

TEST(Numerics, GemmPropagatesNan) {
  HalfMatrix a(2, 2), b(2, 2);
  a(0, 0) = half_t(std::numeric_limits<float>::quiet_NaN());
  a(1, 1) = half_t(1.0f);
  b(0, 0) = half_t(1.0f);
  b(1, 1) = half_t(1.0f);
  const FloatMatrix c = gemm_dense(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
  EXPECT_FALSE(std::isnan(c(1, 1)));
}

TEST(Numerics, GemmPropagatesInfinity) {
  HalfMatrix a(1, 2), b(2, 1);
  a(0, 0) = half_t(65504.0f);  // max finite half
  a(0, 1) = half_t(65504.0f);
  b(0, 0) = half_t(65504.0f);
  b(1, 0) = half_t(65504.0f);
  // 2 * 65504^2 ~ 8.6e9 fits fp32 comfortably: no spurious overflow,
  // because accumulation is fp32 even though operands are fp16.
  const FloatMatrix c = gemm_dense(a, b);
  EXPECT_FALSE(std::isinf(c(0, 0)));
  EXPECT_NEAR(c(0, 0), 2.0f * 65504.0f * 65504.0f, 1e6f);
}

TEST(Numerics, SpmmAccumulatesBeyondHalfRange) {
  // 4096 products of 4.0 * 4.0 = 65536 > max half (65504): a fp16
  // accumulator would overflow; the fp32 accumulator must not.
  const std::size_t k = 8192;
  HalfMatrix dense(1, k);
  for (std::size_t c = 0; c < k; c += 2) dense(0, c) = half_t(4.0f);
  const VnmMatrix a = VnmMatrix::compress(dense, {1, 2, 4});
  HalfMatrix b(k, 1);
  for (std::size_t r = 0; r < k; ++r) b(r, 0) = half_t(4.0f);
  const FloatMatrix c = spatha::spmm_vnm(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 4096.0f * 16.0f);
}

TEST(Numerics, SubnormalInputsContribute) {
  const float sub = 0x1.0p-24f;  // smallest half subnormal
  HalfMatrix a(1, 4), b(4, 1);
  a(0, 0) = half_t(sub);
  b(0, 0) = half_t(16384.0f);
  const FloatMatrix c = gemm_dense(a, b);
  EXPECT_NEAR(c(0, 0), sub * 16384.0f, 1e-9f);
}

TEST(Determinism, SpmmIdenticalAcrossPoolSizes) {
  const ::venom::detail::ForcePooled pooled;  // keep the chunked path under test
  // Tiles own disjoint output ranges and accumulate in a fixed order, so
  // results must be bitwise identical no matter how many workers run.
  Rng rng(1);
  const VnmConfig cfg{8, 2, 10};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(
      random_half_matrix(64, 80, rng), cfg);
  const HalfMatrix b = random_half_matrix(80, 48, rng);

  ThreadPool pool1(1), pool4(4), pool7(7);
  const FloatMatrix c1 = spatha::spmm_vnm(a, b, &pool1);
  const FloatMatrix c4 = spatha::spmm_vnm(a, b, &pool4);
  const FloatMatrix c7 = spatha::spmm_vnm(a, b, &pool7);
  EXPECT_TRUE(c1 == c4);
  EXPECT_TRUE(c1 == c7);
}

TEST(Determinism, GemmIdenticalAcrossPoolSizes) {
  const ::venom::detail::ForcePooled pooled;  // keep the chunked path under test
  Rng rng(2);
  const HalfMatrix a = random_half_matrix(48, 96, rng);
  const HalfMatrix b = random_half_matrix(96, 32, rng);
  ThreadPool pool1(1), pool5(5);
  EXPECT_TRUE(gemm_dense(a, b, &pool1) == gemm_dense(a, b, &pool5));
}

TEST(Determinism, RepeatedRunsIdentical) {
  Rng rng(3);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(
      random_half_matrix(32, 40, rng), {4, 2, 10});
  const HalfMatrix b = random_half_matrix(40, 16, rng);
  const FloatMatrix first = spatha::spmm_vnm(a, b);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(spatha::spmm_vnm(a, b) == first);
}

TEST(Determinism, CompressionIsSeedStable) {
  // Same seed -> same pruning decisions -> identical compressed bytes.
  Rng a1(4), a2(4);
  const HalfMatrix w1 = random_half_matrix(32, 40, a1);
  const HalfMatrix w2 = random_half_matrix(32, 40, a2);
  const VnmMatrix v1 = VnmMatrix::from_dense_magnitude(w1, {8, 2, 10});
  const VnmMatrix v2 = VnmMatrix::from_dense_magnitude(w2, {8, 2, 10});
  EXPECT_EQ(v1.values().size(), v2.values().size());
  for (std::size_t i = 0; i < v1.values().size(); ++i)
    EXPECT_EQ(v1.values()[i].bits(), v2.values()[i].bits());
  EXPECT_EQ(v1.m_indices(), v2.m_indices());
  EXPECT_EQ(v1.column_locs(), v2.column_locs());
}

// ------------------------------------------------------------ fmath

/// Every 2^10-th float bit pattern (finite, infinite and NaN), then the
/// values at the edges of each definition's ranges.
std::vector<float> fmath_sweep() {
  std::vector<float> xs;
  for (std::uint64_t b = 0; b < (std::uint64_t(1) << 32); b += 1u << 10)
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float x :
       {0.0f, -0.0f, kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(), 88.7228394f, 88.7228470f, 89.0f,
        -87.3365479f, -103.972076f, -104.0f, -150.0f, 0.625f, -0.625f,
        0.62499994f, 9.01f, -9.01f, 1e-30f, 0.5f, -1.5f}) {
    xs.push_back(x);
    xs.push_back(std::nextafter(x, kInf));
    xs.push_back(std::nextafter(x, -kInf));
  }
  return xs;
}

/// The float value of every fp16 bit pattern.
std::vector<float> all_halves() {
  std::vector<float> v(1u << 16);
  for (std::size_t b = 0; b < v.size(); ++b)
    v[b] = half_t::from_bits(static_cast<std::uint16_t>(b)).to_float();
  return v;
}

/// fn_n(x, y, len) over consecutive spans of x with len cycling 1..40,
/// so every tail width lands at many positions.
template <typename FnN>
std::vector<float> in_ragged_spans(const std::vector<float>& x, FnN fn_n) {
  std::vector<float> y(x.size());
  std::size_t len = 1;
  for (std::size_t i = 0; i < x.size(); i += len, len = len % 40 + 1)
    fn_n(x.data() + i, y.data() + i, std::min(len, x.size() - i));
  return y;
}

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// Elements where fn_n's array result differs from the scalar fn's bits.
template <typename Fn, typename FnN>
std::size_t lane_mismatches(const std::vector<float>& x, Fn fn, FnN fn_n) {
  const std::vector<float> y = in_ragged_spans(x, fn_n);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    bad += bits(y[i]) != bits(fn(x[i]));
  return bad;
}

/// Distance in representable floats (both finite, or equal).
std::int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float f) {
    const auto i = std::bit_cast<std::int32_t>(f);
    return i < 0 ? -std::int64_t(i & 0x7fffffff) : std::int64_t(i);
  };
  return std::llabs(ordered(a) - ordered(b));
}

/// FNV-1a over the bits of ys, every NaN hashed as one canonical value.
std::uint64_t hash_bits(const std::vector<float>& ys) {
  Fnv1a h;
  for (const float y : ys) h.mix(std::isnan(y) ? 0x7fc00000u : bits(y));
  return h.h;
}

TEST(FMath, ArraysMatchScalarBitForBit) {
  // The array entry points run the build's widest lane type (16 lanes
  // under AVX-512F, 8 under AVX2 + FMA, else 1); each must equal the
  // scalar definition on every input, in every tail position.
  const std::vector<float> sweep = fmath_sweep();
  EXPECT_EQ(lane_mismatches(sweep, fmath::exp, fmath::exp_n), 0u);
  EXPECT_EQ(lane_mismatches(sweep, fmath::tanh, fmath::tanh_n), 0u);
  EXPECT_EQ(lane_mismatches(sweep, fmath::gelu, fmath::gelu_n), 0u);

  // gelu reads halves: all 65,536 of them. A NaN must stay a NaN.
  const std::vector<float> halves = all_halves();
  const std::vector<float> g = in_ragged_spans(halves, fmath::gelu_n);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < halves.size(); ++i)
    bad += std::isnan(halves[i]) ? !std::isnan(g[i])
                                 : bits(g[i]) != bits(fmath::gelu(halves[i]));
  EXPECT_EQ(bad, 0u);
}

TEST(FMath, UlpBoundsAgainstDoublePrecision) {
  // Reference: the double-precision function rounded to float. An
  // exhaustive run over all 2^32 inputs measured the same maxima.
  std::int64_t exp_ulp = 0, tanh_ulp = 0;
  for (const float x : fmath_sweep()) {
    if (!std::isfinite(x)) continue;
    const float e = float(std::exp(double(x)));
    if (std::isnormal(e))
      exp_ulp = std::max(exp_ulp, ulp_distance(fmath::exp(x), e));
    tanh_ulp = std::max(
        tanh_ulp, ulp_distance(fmath::tanh(x), float(std::tanh(double(x)))));
  }
  EXPECT_LE(exp_ulp, 1);
  EXPECT_LE(tanh_ulp, 1);

  // gelu stays within one fp16 ulp of the formula evaluated with libm's
  // tanhf, on every finite half.
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  const auto ordered = [](half_t h) {
    const int mag = h.bits() & 0x7fff;
    return (h.bits() & 0x8000) != 0 ? -mag : mag;
  };
  int gelu_ulp = 0;
  for (const float v : all_halves()) {
    if (!std::isfinite(v)) continue;
    const float t = std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v));
    const half_t want(0.5f * v * (1.0f + t)), got(fmath::gelu(v));
    gelu_ulp = std::max(gelu_ulp, std::abs(ordered(got) - ordered(want)));
  }
  EXPECT_LE(gelu_ulp, 1);
}

TEST(FMath, DefinedOutsideTheNormalRange) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(bits(fmath::exp(0.0f)), bits(1.0f));
  EXPECT_EQ(bits(fmath::exp(-0.0f)), bits(1.0f));
  EXPECT_EQ(bits(fmath::exp(kInf)), bits(kInf));
  EXPECT_EQ(bits(fmath::exp(89.0f)), bits(kInf));
  EXPECT_EQ(bits(fmath::exp(-kInf)), bits(0.0f));
  EXPECT_EQ(bits(fmath::exp(-104.0f)), bits(0.0f));
  EXPECT_TRUE(std::fpclassify(fmath::exp(-100.0f)) == FP_SUBNORMAL);
  EXPECT_TRUE(std::isfinite(fmath::exp(88.72f)));
  EXPECT_EQ(bits(fmath::exp(nan)), bits(nan));
  EXPECT_EQ(bits(fmath::exp(-nan)), bits(-nan));

  EXPECT_EQ(bits(fmath::tanh(0.0f)), bits(0.0f));
  EXPECT_EQ(bits(fmath::tanh(-0.0f)), bits(-0.0f));
  EXPECT_EQ(bits(fmath::tanh(tiny)), bits(tiny));
  EXPECT_EQ(bits(fmath::tanh(-tiny)), bits(-tiny));
  EXPECT_EQ(fmath::tanh(kInf), 1.0f);
  EXPECT_EQ(fmath::tanh(-kInf), -1.0f);
  EXPECT_EQ(fmath::tanh(9.02f), 1.0f);
  EXPECT_LT(fmath::tanh(9.0f), 1.0f);
  EXPECT_EQ(bits(fmath::tanh(nan)), bits(nan));
  for (const float x : fmath_sweep()) {
    if (!std::isnan(x)) {
      ASSERT_EQ(bits(fmath::tanh(-x)), bits(-fmath::tanh(x))) << x;
    }
  }

  EXPECT_EQ(fmath::gelu(kInf), kInf);
  EXPECT_TRUE(std::isnan(fmath::gelu(-kInf)));
  EXPECT_TRUE(std::isnan(fmath::gelu(nan)));
  EXPECT_EQ(bits(fmath::gelu(-0.0f)), bits(-0.0f));
  EXPECT_EQ(bits(fmath::gelu(0.0f)), bits(0.0f));
}

TEST(FMath, SoftmaxSumsInTheWrittenOrder) {
  // softmax_n, and through it transformer::softmax_rows, against the
  // order fmath.hpp writes down: 16 lanes by index mod 16, tree +8, +4,
  // +2, +1, for every span length 1..70.
  Rng rng(91);
  for (std::size_t n = 1; n <= 70; ++n) {
    std::vector<float> x(n);
    for (float& v : x) v = rng.uniform(-30.0f, 30.0f);
    if (n % 7 == 0) x[n / 2] = -std::numeric_limits<float>::infinity();

    float lane[16];
    std::fill(lane, lane + 16, -std::numeric_limits<float>::infinity());
    for (std::size_t i = 0; i < n; ++i)
      lane[i % 16] = lane[i % 16] > x[i] ? lane[i % 16] : x[i];
    for (std::size_t w = 8; w >= 1; w /= 2)
      for (std::size_t u = 0; u < w; ++u)
        lane[u] = lane[u] > lane[u + w] ? lane[u] : lane[u + w];
    const float mx = lane[0];
    std::vector<float> want(n);
    std::fill(lane, lane + 16, 0.0f);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = fmath::exp(x[i] - mx);
      lane[i % 16] += want[i];
    }
    for (std::size_t w = 8; w >= 1; w /= 2)
      for (std::size_t u = 0; u < w; ++u) lane[u] += lane[u + w];
    const float inv = 1.0f / lane[0];
    for (float& v : want) v *= inv;

    std::vector<float> got = x;
    fmath::softmax_n(got.data(), n);
    FloatMatrix rows(2, n);
    std::copy(x.begin(), x.end(), rows.row(1).begin());
    transformer::softmax_rows(rows);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(got[i]), bits(want[i])) << "n=" << n << " i=" << i;
      ASSERT_EQ(bits(rows(1, i)), bits(want[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FMath, GoldenHashes) {
  // The bits are the library's, not the compiler's or the libm's: these
  // constants hold on every compiler, optimization level and lane width.
  EXPECT_EQ(hash_bits(in_ragged_spans(all_halves(), fmath::gelu_n)),
            0x304da22885cbe644ull);
  const std::vector<float> sweep = fmath_sweep();
  EXPECT_EQ(hash_bits(in_ragged_spans(sweep, fmath::exp_n)),
            0x86a564ac9092abceull);
  EXPECT_EQ(hash_bits(in_ragged_spans(sweep, fmath::tanh_n)),
            0x7b3cc548aad53a53ull);
}


// ------------------------------------------------------------ encoder

/// Folds every element's bits into h; a golden fixture of NaNs would
/// pin nothing, so every element must be finite.
void mix_bits(Fnv1a& h, const HalfMatrix& m) {
  for (const half_t v : m.flat()) {
    ASSERT_FALSE(v.is_nan() || v.is_inf());
    h.mix(v.bits());
  }
}

/// The bert-tiny serving model (2 layers, hidden 256, 4 heads, FFN 512),
/// seeded by label and magnitude-pruned to 64:2:8.
transformer::Encoder serving_model(bool causal, std::size_t window) {
  Rng rng = Rng::seeded("serving-model");
  transformer::Encoder enc(
      transformer::ModelConfig{.name = "bert-tiny", .layers = 2,
                               .hidden = 256, .heads = 4, .ffn_hidden = 512,
                               .seq_len = 128, .causal = causal,
                               .attn_window = window},
      rng);
  enc.sparsify({64, 2, 8});
  return enc;
}

TEST(EncoderBits, GoldenHash) {
  // The whole layer's bits belong to the library: SpMM, attention core,
  // softmax, gelu, add and layer_norm are each written with explicit fma
  // (or none), so this constant holds on every compiler and lane width.
  Fnv1a h;
  {
    const transformer::Encoder enc = serving_model(false, 0);
    Rng rng = Rng::seeded("encoder-golden-input");
    mix_bits(h, enc.forward(random_half_matrix(256, 37, rng)));
    const std::size_t ends[] = {5, 22, 64, 71};
    mix_bits(h, enc.forward_batched(random_half_matrix(256, 71, rng), ends));
  }
  {
    // Causal, window 16: a 20-token prefill, then decode steps well past
    // the ring's wrap.
    const transformer::Encoder enc = serving_model(true, 16);
    Rng rng = Rng::seeded("encoder-golden-decode");
    transformer::KvCache cache = enc.make_cache(16);
    mix_bits(h, enc.prefill(random_half_matrix(256, 20, rng), cache));
    for (int step = 0; step < 12; ++step)
      mix_bits(h, enc.decode_step(random_half_matrix(256, 1, rng), cache));
  }
  EXPECT_EQ(h.h, 0xe2979b1ea01abf6dull);
}

/// A step of zero for `lin`: applying it leaves the layer's weights as
/// they are.
transformer::Linear::Grads zero_grads(const transformer::Linear& lin) {
  transformer::Linear::Grads g;
  g.weight = FloatMatrix(lin.out_features(), lin.in_features());
  g.bias.assign(lin.out_features(), 0.0f);
  return g;
}

/// Moves every layer's LayerNorm gamma off 1 and beta off 0, to seeded
/// values, through one SGD step whose other gradients are all zero.
void seed_layer_norm_affines(transformer::Encoder& enc) {
  Rng rng = Rng::seeded("encoder-golden-affines");
  for (std::size_t l = 0; l < enc.layer_count(); ++l) {
    transformer::EncoderLayer& layer = enc.layer(l);
    transformer::MultiHeadAttention& mha = layer.attention();
    transformer::EncoderLayerGrads g;
    g.mha = {zero_grads(mha.wq()), zero_grads(mha.wk()), zero_grads(mha.wv()),
             zero_grads(mha.wo())};
    g.ffn_in = zero_grads(layer.ffn_in());
    g.ffn_out = zero_grads(layer.ffn_out());
    for (std::vector<float>* v :
         {&g.ln1_gamma, &g.ln1_beta, &g.ln2_gamma, &g.ln2_beta}) {
      v->resize(enc.config().hidden);
      for (float& x : *v) x = 0.25f * rng.normal();
    }
    layer.apply_gradients(g, 1.0f);
  }
}

TEST(EncoderBits, GoldenHashWithLayerNormAffines) {
  // At gamma = 1 and beta = 0 layer_norm's fma(xhat, gamma, beta) is
  // xhat under any rounding, so GoldenHash cannot see the normalize
  // expression; seeded affines make its bits count.
  transformer::Encoder enc = serving_model(false, 0);
  seed_layer_norm_affines(enc);
  Fnv1a h;
  Rng rng = Rng::seeded("encoder-golden-affine-input");
  mix_bits(h, enc.forward(random_half_matrix(256, 37, rng)));
  const std::size_t ends[] = {5, 22, 64, 71};
  mix_bits(h, enc.forward_batched(random_half_matrix(256, 71, rng), ends));
  EXPECT_EQ(h.h, 0x69b95e3daaf85458ull);
}

}  // namespace
}  // namespace venom
