// Tests for the transformer substrate: ops, linear layers (dense and
// Spatha-sparse), attention, and the encoder stack.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/gemm.hpp"
#include "baselines/spmm_24.hpp"
#include "common/fmath.hpp"
#include "common/rng.hpp"
#include "common/thread_pool_testing.hpp"
#include "ops/ops.hpp"
#include "spatha/plan.hpp"
#include "transformer/config.hpp"
#include "transformer/encoder.hpp"
#include "transformer/kv_cache.hpp"
#include "transformer/ops.hpp"

namespace venom::transformer {
namespace {

// The scalar loops gelu, add and layer_norm ran before they were
// bulk-converted and pool-parallel; the fast ops must match them bitwise.
HalfMatrix ref_layer_norm(const HalfMatrix& x, std::span<const float> gamma,
                          std::span<const float> beta, float eps = 1e-5f) {
  HalfMatrix out(x.rows(), x.cols());
  for (std::size_t t = 0; t < x.cols(); ++t) {
    float mean = 0.0f;
    for (std::size_t f = 0; f < x.rows(); ++f) mean += x(f, t).to_float();
    mean /= float(x.rows());
    float var = 0.0f;
    for (std::size_t f = 0; f < x.rows(); ++f) {
      const float d = x(f, t).to_float() - mean;
      var = std::fma(d, d, var);
    }
    var /= float(x.rows());
    const float inv = 1.0f / std::sqrt(var + eps);
    for (std::size_t f = 0; f < x.rows(); ++f)
      out(f, t) = half_t(
          std::fma((x(f, t).to_float() - mean) * inv, gamma[f], beta[f]));
  }
  return out;
}

HalfMatrix ref_gelu(const HalfMatrix& x) {
  HalfMatrix out(x.rows(), x.cols());
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.flat()[i].to_float();
    const float t = fmath::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v));
    out.flat()[i] = half_t(0.5f * v * (1.0f + t));
  }
  return out;
}

HalfMatrix ref_add(const HalfMatrix& x, const HalfMatrix& y) {
  HalfMatrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.flat()[i] = x.flat()[i] + y.flat()[i];
  return out;
}

/// Elements of `got` whose bits differ from `want`'s.
std::size_t bit_mismatches(const HalfMatrix& got, const HalfMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i)
    bad += got.flat()[i].bits() != want.flat()[i].bits();
  return bad;
}

std::vector<float> random_affine(std::size_t n, Rng& rng, float lo,
                                 float hi) {
  std::vector<float> v(n);
  for (auto& e : v) e = rng.uniform(lo, hi);
  return v;
}

/// Checks gelu, add, layer_norm, layer_norm(add(...)) and add_layer_norm
/// on random (rows x cols) inputs against the scalar loops, through `ctx`.
void expect_elementwise_bit_identical(std::size_t rows, std::size_t cols,
                                      Rng& rng, ops::ExecContext* ctx) {
  SCOPED_TRACE(::testing::Message()
               << rows << "x" << cols << ", "
               << (ctx == nullptr ? std::string("global context")
                                  : std::to_string(ctx->pool().size()) +
                                        " threads"));
  const HalfMatrix x = random_half_matrix(rows, cols, rng, 2.0f);
  const HalfMatrix y = random_half_matrix(rows, cols, rng, 2.0f);
  const std::vector<float> gamma = random_affine(rows, rng, 0.5f, 1.5f);
  const std::vector<float> beta = random_affine(rows, rng, -0.5f, 0.5f);
  EXPECT_EQ(bit_mismatches(gelu(x, ctx), ref_gelu(x)), 0u);
  EXPECT_EQ(bit_mismatches(add(x, y, ctx), ref_add(x, y)), 0u);
  EXPECT_EQ(bit_mismatches(layer_norm(x, gamma, beta, 1e-5f, ctx),
                           ref_layer_norm(x, gamma, beta)),
            0u);
  EXPECT_EQ(
      bit_mismatches(layer_norm(add(x, y, ctx), gamma, beta, 1e-5f, ctx),
                     ref_layer_norm(ref_add(x, y), gamma, beta)),
      0u);
  EXPECT_EQ(bit_mismatches(add_layer_norm(x, y, gamma, beta, 1e-5f, ctx),
                           ref_layer_norm(ref_add(x, y), gamma, beta)),
            0u);
}

TEST(Config, Presets) {
  EXPECT_EQ(bert_base().hidden, 768u);
  EXPECT_EQ(bert_base().heads, 12u);
  EXPECT_EQ(bert_base().head_dim(), 64u);
  EXPECT_EQ(bert_large().hidden, 1024u);
  EXPECT_EQ(gpt2_large().hidden, 1280u);
  EXPECT_EQ(gpt3_175b().hidden, 12288u);
  // Parameter counts in the ballpark the paper quotes.
  EXPECT_NEAR(double(bert_base().encoder_params()), 85e6, 5e6);
  EXPECT_GT(gpt3_175b().encoder_params(), 150e9);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(1);
  FloatMatrix scores = random_float_matrix(6, 9, rng, 3.0f);
  softmax_rows(scores);
  for (std::size_t r = 0; r < 6; ++r) {
    float sum = 0.0f;
    for (float v : scores.row(r)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxRowsOfEmptyShapesAreNoOps) {
  // A row of zero columns has no max to read; it must not be touched.
  FloatMatrix no_cols(3, 0);
  softmax_rows(no_cols);
  EXPECT_EQ(no_cols.rows(), 3u);
  EXPECT_EQ(no_cols.cols(), 0u);
  FloatMatrix no_rows(0, 5);
  softmax_rows(no_rows);
  EXPECT_EQ(no_rows.size(), 0u);
}

TEST(Ops, SoftmaxStableUnderLargeInputs) {
  FloatMatrix scores(1, 3);
  scores(0, 0) = 1000.0f;
  scores(0, 1) = 1001.0f;
  scores(0, 2) = 999.0f;
  softmax_rows(scores);
  EXPECT_FALSE(std::isnan(scores(0, 0)));
  EXPECT_GT(scores(0, 1), scores(0, 0));
  EXPECT_GT(scores(0, 0), scores(0, 2));
}

TEST(Ops, LayerNormNormalizesPerToken) {
  Rng rng(2);
  const HalfMatrix x = random_half_matrix(64, 3, rng, 4.0f);
  std::vector<float> gamma(64, 1.0f), beta(64, 0.0f);
  const HalfMatrix y = layer_norm(x, gamma, beta);
  for (std::size_t t = 0; t < 3; ++t) {
    float mean = 0.0f, var = 0.0f;
    for (std::size_t f = 0; f < 64; ++f) mean += y(f, t).to_float();
    mean /= 64.0f;
    for (std::size_t f = 0; f < 64; ++f) {
      const float d = y(f, t).to_float() - mean;
      var += d * d;
    }
    var /= 64.0f;
    EXPECT_NEAR(mean, 0.0f, 2e-2f);
    EXPECT_NEAR(var, 1.0f, 5e-2f);
  }
}

TEST(Ops, LayerNormAppliesGammaBeta) {
  HalfMatrix x(2, 1);
  x(0, 0) = half_t(1.0f);
  x(1, 0) = half_t(-1.0f);
  std::vector<float> gamma = {2.0f, 2.0f}, beta = {1.0f, 1.0f};
  const HalfMatrix y = layer_norm(x, gamma, beta);
  EXPECT_NEAR(y(0, 0).to_float(), 3.0f, 2e-2f);   // 1*2+1
  EXPECT_NEAR(y(1, 0).to_float(), -1.0f, 2e-2f);  // -1*2+1
}

TEST(Ops, GeluKnownValues) {
  HalfMatrix x(1, 3);
  x(0, 0) = half_t(0.0f);
  x(0, 1) = half_t(10.0f);
  x(0, 2) = half_t(-10.0f);
  const HalfMatrix y = gelu(x);
  EXPECT_FLOAT_EQ(y(0, 0).to_float(), 0.0f);
  EXPECT_NEAR(y(0, 1).to_float(), 10.0f, 1e-2f);
  EXPECT_NEAR(y(0, 2).to_float(), 0.0f, 1e-2f);
}

TEST(Ops, AddAndBias) {
  HalfMatrix a(2, 2, half_t(1.0f)), b(2, 2, half_t(2.5f));
  const HalfMatrix c = add(a, b);
  EXPECT_FLOAT_EQ(c(1, 1).to_float(), 3.5f);
  FloatMatrix f(2, 2, 1.0f);
  std::vector<float> bias = {10.0f, 20.0f};
  add_bias(f, bias);
  EXPECT_FLOAT_EQ(f(0, 1), 11.0f);
  EXPECT_FLOAT_EQ(f(1, 0), 21.0f);
}

TEST(Ops, ElementwiseBitIdenticalToScalarReference) {
  ops::ExecContextOptions opts;
  opts.threads = 1;
  ops::ExecContext one(opts);
  opts.threads = 4;
  ops::ExecContext four(opts);
  const std::vector<ops::ExecContext*> contexts = {nullptr, &one, &four};

  // gelu over every fp16 bit pattern.
  HalfMatrix all(256, 256);
  for (std::size_t i = 0; i < all.size(); ++i)
    all.flat()[i] = half_t::from_bits(static_cast<std::uint16_t>(i));
  const HalfMatrix want = ref_gelu(all);
  for (ops::ExecContext* ctx : contexts) {
    const HalfMatrix got = gelu(all, ctx);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < all.size(); ++i)
      bad += all.flat()[i].is_nan()
                 ? !got.flat()[i].is_nan()
                 : got.flat()[i].bits() != want.flat()[i].bits();
    EXPECT_EQ(bad, 0u) << (ctx == nullptr ? 0 : ctx->pool().size())
                       << " threads";
  }

  Rng rng(71);
  for (const std::size_t rows : {1, 7, 64, 256, 768})
    for (const std::size_t cols : {1, 3, 16, 31, 33, 100, 378, 1000})
      for (ops::ExecContext* ctx : contexts)
        expect_elementwise_bit_identical(rows, cols, rng, ctx);
}

TEST(Ops, ElementwiseInlineCutoffBitIdentical) {
  // ops.cpp runs an op over fewer than 2^14 elements inline and a larger
  // one on the pool; pin the bits on both sides of that cutoff.
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kInlineElems = std::size_t(1) << 14;
  ops::ExecContextOptions opts;
  opts.threads = 1;
  ops::ExecContext one(opts);
  Rng rng(72);
  for (const std::size_t cols :
       {std::size_t(1), kInlineElems / kRows - 1, kInlineElems / kRows + 1})
    expect_elementwise_bit_identical(kRows, cols, rng, &one);
}

TEST(Ops, AddLayerNormBitIdenticalToLayerNormOfAdd) {
  // The fused op against the two passes it replaces in the encoder, with
  // +-inf and NaN inputs (never a NaN in both operands of one sum, whose
  // result would depend on the add's operand order), on the caller and
  // on the workers.
  ops::ExecContextOptions opts;
  opts.threads = 1;
  ops::ExecContext one(opts);
  opts.threads = 4;
  ops::ExecContext four(opts);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nans[] = {std::bit_cast<float>(0x7fc00001u),
                        std::bit_cast<float>(0xffa12345u)};
  std::vector<std::size_t> widths;
  for (std::size_t w = 1; w <= 37; ++w) widths.push_back(w);
  widths.push_back(97);
  widths.push_back(257);
  Rng rng(73);
  for (const std::size_t rows : {256, 768})
    for (const std::size_t cols : widths) {
      HalfMatrix x = random_half_matrix(rows, cols, rng, 2.0f);
      HalfMatrix y = random_half_matrix(rows, cols, rng, 2.0f);
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t f = (c * 37) % rows, g = (c * 11 + 5) % rows;
        switch (c % 6) {
          case 1: x(f, c) = half_t(kInf); break;
          case 2: x(f, c) = half_t(nans[c % 2]); break;
          case 3: y(f, c) = half_t(-kInf); break;
          case 4:  // inf + -inf
            x(f, c) = half_t(kInf);
            y(f, c) = half_t(-kInf);
            break;
          case 5:
            y(f, c) = half_t(nans[(c / 6) % 2]);
            x(g, c) = half_t(g == f ? 1.0f : -kInf);
            break;
          default: break;
        }
      }
      const std::vector<float> gamma = random_affine(rows, rng, 0.5f, 1.5f);
      const std::vector<float> beta = random_affine(rows, rng, -0.5f, 0.5f);
      const auto check = [&](ops::ExecContext* ctx, const char* where) {
        SCOPED_TRACE(::testing::Message()
                     << rows << "x" << cols << ", " << where);
        const HalfMatrix want =
            layer_norm(add(x, y, ctx), gamma, beta, 1e-5f, ctx);
        EXPECT_EQ(bit_mismatches(
                      add_layer_norm(x, y, gamma, beta, 1e-5f, ctx), want),
                  0u);
        if (cols > 1) {
          EXPECT_TRUE(want(0, 1).is_nan());  // an inf column
        }
      };
      check(&one, "inline");
      const ::venom::detail::ForcePooled pooled;
      check(&four, "pooled, 4 threads");
    }
}

TEST(Ops, AttentionScoresAndContext) {
  // 1-dim head: scores reduce to outer product of scalars.
  HalfMatrix q(1, 2), k(1, 2), v(1, 2);
  q(0, 0) = half_t(1.0f);
  q(0, 1) = half_t(2.0f);
  k(0, 0) = half_t(3.0f);
  k(0, 1) = half_t(4.0f);
  v(0, 0) = half_t(1.0f);
  v(0, 1) = half_t(-1.0f);
  const FloatMatrix s = attention_scores(q, k, 0.5f);
  EXPECT_FLOAT_EQ(s(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(s(1, 1), 4.0f);
  FloatMatrix p(2, 2, 0.5f);  // uniform attention
  const HalfMatrix ctx = attention_context(p, v);
  EXPECT_NEAR(ctx(0, 0).to_float(), 0.0f, 1e-3f);
}

TEST(Linear, DenseMatchesManualGemm) {
  Rng rng(3);
  Linear lin = Linear::random(8, 16, rng);
  const HalfMatrix x = random_half_matrix(16, 5, rng);
  const HalfMatrix y = lin.forward(x);
  FloatMatrix ref = gemm_dense(lin.dense_weight(), x);
  add_bias(ref, lin.bias());
  for (std::size_t o = 0; o < 8; ++o)
    for (std::size_t t = 0; t < 5; ++t)
      EXPECT_NEAR(y(o, t).to_float(), ref(o, t), 0.05f + 0.02f * std::fabs(ref(o, t)));
}

TEST(Linear, SparsifyRoutesThroughSpathaAndApproximatesDense) {
  Rng rng(4);
  Linear lin = Linear::random(32, 64, rng);
  const HalfMatrix x = random_half_matrix(64, 8, rng);
  const HalfMatrix dense_out = lin.forward(x);
  lin.sparsify({8, 2, 4});  // 2:4 — mild pruning, output stays close
  EXPECT_TRUE(lin.is_sparse());
  const HalfMatrix sparse_out = lin.forward(x);
  // 50% magnitude pruning keeps the dominant terms; correlation stays high.
  double dot = 0.0, n1 = 0.0, n2 = 0.0;
  for (std::size_t i = 0; i < dense_out.size(); ++i) {
    const double a = dense_out.flat()[i].to_float();
    const double b = sparse_out.flat()[i].to_float();
    dot += a * b;
    n1 += a * a;
    n2 += b * b;
  }
  EXPECT_GT(dot / std::sqrt(n1 * n2), 0.7);
}

TEST(Linear, SparseForwardEqualsSpmmOfPrunedWeight) {
  Rng rng(5);
  Linear lin = Linear::random(16, 32, rng);
  const HalfMatrix x = random_half_matrix(32, 4, rng);
  const HalfMatrix w_dense = lin.dense_weight();
  lin.sparsify({4, 2, 8});
  const HalfMatrix y = lin.forward(x);
  // The sparse weight decompresses to the magnitude-pruned dense weight.
  const HalfMatrix pruned = lin.sparse_weight().to_dense();
  EXPECT_TRUE(VnmMatrix::conforms(pruned, {4, 2, 8}));
  FloatMatrix ref = gemm_dense(pruned, x);
  add_bias(ref, lin.bias());
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(y(0, i).to_float(), ref(0, i), 0.05f + 0.02f * std::fabs(ref(0, i)));
  (void)w_dense;
}

TEST(Linear, TimingAccumulates) {
  Rng rng(6);
  Linear lin = Linear::random(16, 16, rng);
  const HalfMatrix x = random_half_matrix(16, 4, rng);
  TimingBreakdown t;
  lin.forward(x, &t);
  EXPECT_GT(t.gemm_s, 0.0);
  EXPECT_DOUBLE_EQ(t.softmax_s, 0.0);
}

TEST(Attention, ShapePreservedAndFinite) {
  Rng rng(7);
  MultiHeadAttention mha(32, 4, rng);
  const HalfMatrix x = random_half_matrix(32, 6, rng);
  const HalfMatrix y = mha.forward(x);
  EXPECT_EQ(y.rows(), 32u);
  EXPECT_EQ(y.cols(), 6u);
  for (auto v : y.flat()) EXPECT_FALSE(v.is_nan());
}

TEST(Attention, RejectsIndivisibleHeads) {
  Rng rng(8);
  EXPECT_THROW(MultiHeadAttention(30, 4, rng), Error);
}

TEST(Attention, CausalMaskBlocksFutureTokens) {
  // With the causal mask, output at position 0 must not change when
  // later tokens change.
  Rng rng(21);
  MultiHeadAttention mha(32, 4, rng, /*causal=*/true);
  Rng data_rng(22);
  HalfMatrix x = random_half_matrix(32, 6, data_rng);
  const HalfMatrix y1 = mha.forward(x);
  for (std::size_t f = 0; f < 32; ++f) x(f, 5) = half_t(9.0f);  // last token
  const HalfMatrix y2 = mha.forward(x);
  for (std::size_t f = 0; f < 32; ++f) {
    EXPECT_EQ(y1(f, 0).bits(), y2(f, 0).bits()) << f;  // first unaffected
  }
  // The last position must see the change.
  bool any_diff = false;
  for (std::size_t f = 0; f < 32 && !any_diff; ++f)
    any_diff = y1(f, 5).bits() != y2(f, 5).bits();
  EXPECT_TRUE(any_diff);
}

TEST(Attention, BidirectionalSeesFutureTokens) {
  Rng rng(23);
  MultiHeadAttention mha(32, 4, rng, /*causal=*/false);
  Rng data_rng(24);
  HalfMatrix x = random_half_matrix(32, 6, data_rng);
  const HalfMatrix y1 = mha.forward(x);
  for (std::size_t f = 0; f < 32; ++f) x(f, 5) = half_t(9.0f);
  const HalfMatrix y2 = mha.forward(x);
  bool any_diff = false;
  for (std::size_t f = 0; f < 32 && !any_diff; ++f)
    any_diff = y1(f, 0).bits() != y2(f, 0).bits();
  EXPECT_TRUE(any_diff);  // position 0 attends to the changed last token
}

TEST(Attention, DynamicNmApproximatesDenseAttention) {
  // Attention probabilities after softmax are concentrated; keeping the
  // top 2 of every 4 retains most of the mass, so the sparse context
  // stays close to the dense one.
  Rng rng(31);
  MultiHeadAttention dense_mha(32, 4, rng);
  Rng rng2(31);
  MultiHeadAttention sparse_mha(32, 4, rng2);  // identical weights
  sparse_mha.set_dynamic_score_sparsity(NmPattern{2, 4});
  ASSERT_TRUE(sparse_mha.dynamic_score_sparsity().has_value());

  Rng data_rng(32);
  const HalfMatrix x = random_half_matrix(32, 8, data_rng, 0.5f);
  const HalfMatrix yd = dense_mha.forward(x);
  const HalfMatrix ys = sparse_mha.forward(x);
  double dot = 0.0, n1 = 0.0, n2 = 0.0;
  for (std::size_t i = 0; i < yd.size(); ++i) {
    const double a = yd.flat()[i].to_float();
    const double b = ys.flat()[i].to_float();
    dot += a * b;
    n1 += a * a;
    n2 += b * b;
  }
  // Random (non-peaked) activations are the worst case for score
  // pruning; trained attention is far more concentrated.
  EXPECT_GT(dot / std::sqrt(n1 * n2), 0.85);
}

TEST(Attention, DynamicNmExactWhenPeaked) {
  // If every probability row has a single dominant entry per group, 1:2
  // pruning plus renormalization reproduces dense attention closely.
  Rng rng(33);
  MultiHeadAttention mha(16, 2, rng);
  mha.set_dynamic_score_sparsity(NmPattern{1, 2});
  Rng data_rng(34);
  // Strongly scaled inputs -> near-one-hot softmax rows.
  const HalfMatrix x = random_half_matrix(16, 4, data_rng, 3.0f);
  const HalfMatrix y = mha.forward(x);
  for (auto v : y.flat()) EXPECT_FALSE(v.is_nan());
}

TEST(Attention, DynamicNmRejectsNonHardwarePatterns) {
  Rng rng(35);
  MultiHeadAttention mha(16, 2, rng);
  EXPECT_THROW(mha.set_dynamic_score_sparsity(NmPattern{2, 8}), Error);
  EXPECT_NO_THROW(mha.set_dynamic_score_sparsity(NmPattern{1, 2}));
  EXPECT_NO_THROW(mha.set_dynamic_score_sparsity(std::nullopt));
  EXPECT_FALSE(mha.dynamic_score_sparsity().has_value());
}

TEST(Attention, DynamicNmRequiresDivisibleSequence) {
  Rng rng(36);
  MultiHeadAttention mha(16, 2, rng);
  mha.set_dynamic_score_sparsity(NmPattern{2, 4});
  Rng data_rng(37);
  const HalfMatrix x = random_half_matrix(16, 6, data_rng);  // 6 % 4 != 0
  EXPECT_THROW(mha.forward(x), Error);
}

TEST(Attention, DynamicNmComposesWithCausalMask) {
  Rng rng(38);
  MultiHeadAttention mha(16, 2, rng, /*causal=*/true);
  mha.set_dynamic_score_sparsity(NmPattern{2, 4});
  Rng data_rng(39);
  HalfMatrix x = random_half_matrix(16, 8, data_rng);
  const HalfMatrix y1 = mha.forward(x);
  for (std::size_t f = 0; f < 16; ++f) x(f, 7) = half_t(5.0f);
  const HalfMatrix y2 = mha.forward(x);
  for (std::size_t f = 0; f < 16; ++f)
    EXPECT_EQ(y1(f, 0).bits(), y2(f, 0).bits());  // causality preserved
}

TEST(Attention, DynamicNmContextBitIdenticalToSpmm24Route) {
  // The dynamic-score context matmul now runs through the register-
  // blocked spatha::spmm_nm; reproduce the replaced spmm_24 route by
  // hand and require bit identity of the full attention output.
  Rng rng(51);
  MultiHeadAttention mha(16, 2, rng);
  mha.set_dynamic_score_sparsity(NmPattern{2, 4});
  Rng data_rng(52);
  const HalfMatrix x = random_half_matrix(16, 8, data_rng);
  const HalfMatrix y = mha.forward(x);

  // Reference: identical weights, scores pruned the same way, context
  // through the scalar baseline kernel.
  Rng rng2(51);
  MultiHeadAttention ref_mha(16, 2, rng2);
  const std::size_t dh = 8;
  const float scale = 1.0f / std::sqrt(float(dh));
  const HalfMatrix q = ref_mha.wq().forward(x);
  const HalfMatrix k = ref_mha.wk().forward(x);
  const HalfMatrix v = ref_mha.wv().forward(x);
  HalfMatrix context(16, 8);
  for (std::size_t h = 0; h < 2; ++h) {
    HalfMatrix qh(dh, 8), kh(dh, 8), vh(dh, 8);
    for (std::size_t d = 0; d < dh; ++d)
      for (std::size_t t = 0; t < 8; ++t) {
        qh(d, t) = q(h * dh + d, t);
        kh(d, t) = k(h * dh + d, t);
        vh(d, t) = v(h * dh + d, t);
      }
    FloatMatrix scores = attention_scores(qh, kh, scale);
    softmax_rows(scores);
    // Re-prune exactly as the layer does: top-2 of 4, renormalized.
    HalfMatrix pruned(8, 8);
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t g = 0; g < 2; ++g) {
        std::size_t best = g * 4;
        for (std::size_t c = 1; c < 4; ++c)
          if (scores(i, g * 4 + c) > scores(i, best)) best = g * 4 + c;
        std::size_t second = best == g * 4 ? g * 4 + 1 : g * 4;
        for (std::size_t c = 0; c < 4; ++c)
          if (g * 4 + c != best && scores(i, g * 4 + c) > scores(i, second))
            second = g * 4 + c;
        pruned(i, best) = half_t(scores(i, best));
        pruned(i, second) = half_t(scores(i, second));
      }
      float sum = 0.0f;
      for (std::size_t c = 0; c < 8; ++c) sum += pruned(i, c).to_float();
      if (sum > 0.0f)
        for (std::size_t c = 0; c < 8; ++c)
          if (!pruned(i, c).is_zero())
            pruned(i, c) = half_t(pruned(i, c).to_float() / sum);
    }
    const NmMatrix p_nm = NmMatrix::compress(pruned, {2, 4});
    const FloatMatrix ctx_t = spmm_24(p_nm, transpose(vh));
    for (std::size_t d = 0; d < dh; ++d)
      for (std::size_t i = 0; i < 8; ++i)
        context(h * dh + d, i) = half_t(ctx_t(i, d));
  }
  const HalfMatrix ref = ref_mha.wo().forward(context);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_EQ(y.flat()[i].bits(), ref.flat()[i].bits()) << i;
}

TEST(Attention, BatchedForwardBitIdenticalPerSequence) {
  Rng rng(53);
  MultiHeadAttention mha(32, 4, rng);
  Rng data_rng(54);
  const HalfMatrix a = random_half_matrix(32, 4, data_rng);
  const HalfMatrix b = random_half_matrix(32, 8, data_rng);
  const HalfMatrix ya = mha.forward(a);
  const HalfMatrix yb = mha.forward(b);

  // Pack a and b along the token axis.
  HalfMatrix packed(32, 12);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t t = 0; t < 4; ++t) packed(r, t) = a(r, t);
    for (std::size_t t = 0; t < 8; ++t) packed(r, 4 + t) = b(r, t);
  }
  const std::size_t ends[] = {4, 12};
  const HalfMatrix y = mha.forward_batched(packed, ends);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t t = 0; t < 4; ++t)
      ASSERT_EQ(y(r, t).bits(), ya(r, t).bits());
    for (std::size_t t = 0; t < 8; ++t)
      ASSERT_EQ(y(r, 4 + t).bits(), yb(r, t).bits());
  }
}

TEST(Attention, ZeroTokenForwardReturnsEmpty) {
  // Pre-batched behavior preserved: a dense MHA over an empty activation
  // returns an empty (hidden x 0) result instead of throwing.
  Rng rng(60);
  MultiHeadAttention mha(16, 2, rng);
  const HalfMatrix y = mha.forward(HalfMatrix(16, 0));
  EXPECT_EQ(y.rows(), 16u);
  EXPECT_EQ(y.cols(), 0u);
}

TEST(Attention, BatchedForwardValidatesSequenceEnds) {
  Rng rng(55);
  MultiHeadAttention mha(16, 2, rng);
  const HalfMatrix x = random_half_matrix(16, 8, rng);
  const std::size_t short_ends[] = {4};         // does not cover x
  const std::size_t unsorted[] = {6, 4, 8};     // not increasing
  const std::size_t leading_empty[] = {0, 8};   // empty first sequence
  EXPECT_THROW(mha.forward_batched(x, short_ends), Error);
  EXPECT_THROW(mha.forward_batched(x, unsorted), Error);
  EXPECT_THROW(mha.forward_batched(x, leading_empty), Error);
}

// The vectorized, pool-parallel attention core against the scalar loops
// it replaced: per (head, sequence) slices, attention_scores, the
// causal/window mask, softmax_rows and attention_context. Probabilities
// and context must match bit for bit, with one thread and with four.
TEST(AttentionCore, BitIdenticalToScalarReference) {
  ops::ExecContextOptions opts;
  opts.threads = 1;
  ops::ExecContext one(opts);
  opts.threads = 4;
  ops::ExecContext four(opts);
  Rng rng(70);
  constexpr std::size_t heads = 2;
  struct Mask {
    bool causal;
    std::size_t window;
  };
  for (const std::size_t t : {1, 15, 16, 17, 33, 130})
    for (const std::size_t dh : {8, 20, 64})
      for (const Mask mask : {Mask{false, 0}, Mask{true, 0}, Mask{true, 5}})
        for (std::size_t count = 1; count <= 3; ++count) {
          SCOPED_TRACE(::testing::Message()
                       << "T=" << t << " dh=" << dh << " causal="
                       << mask.causal << " window=" << mask.window
                       << " sequences=" << count);
          const std::size_t lengths[] = {t, (t + 1) / 2, 1};
          std::vector<std::size_t> ends;
          std::size_t total = 0;
          for (std::size_t s = 0; s < count; ++s)
            ends.push_back(total += lengths[s]);
          const HalfMatrix q = random_half_matrix(heads * dh, total, rng);
          const HalfMatrix k = random_half_matrix(heads * dh, total, rng);
          const HalfMatrix v = random_half_matrix(heads * dh, total, rng);

          const float scale = 1.0f / std::sqrt(float(dh));
          HalfMatrix want(heads * dh, total);
          std::vector<FloatMatrix> want_p;
          for (std::size_t h = 0; h < heads; ++h) {
            std::size_t s0 = 0;
            for (const std::size_t s1 : ends) {
              HalfMatrix qh(dh, s1 - s0), kh(dh, s1 - s0), vh(dh, s1 - s0);
              for (std::size_t d = 0; d < dh; ++d)
                for (std::size_t c = s0; c < s1; ++c) {
                  qh(d, c - s0) = q(h * dh + d, c);
                  kh(d, c - s0) = k(h * dh + d, c);
                  vh(d, c - s0) = v(h * dh + d, c);
                }
              FloatMatrix p = attention_scores(qh, kh, scale);
              if (mask.causal)
                for (std::size_t i = 0; i < p.rows(); ++i)
                  for (std::size_t j = 0; j < p.cols(); ++j)
                    if (j > i || (mask.window != 0 && j + mask.window <= i))
                      p(i, j) = -1e30f;
              softmax_rows(p);
              const HalfMatrix ctx = attention_context(p, vh);
              for (std::size_t d = 0; d < dh; ++d)
                for (std::size_t c = s0; c < s1; ++c)
                  want(h * dh + d, c) = ctx(d, c - s0);
              want_p.push_back(std::move(p));
              s0 = s1;
            }
          }

          for (ops::ExecContext* ctx : {&one, &four}) {
            ScratchArena arena;
            AttentionCore core(heads, dh, mask.causal, mask.window,
                               AttentionCore::packed(ends, arena), arena);
            core.load(q, k, v, ctx->pool(), nullptr);
            core.probabilities(ctx->pool(), nullptr);
            HalfMatrix got(heads * dh, total);
            core.context(got, ctx->pool(), nullptr);
            std::size_t bad_p = 0;
            for (std::size_t h = 0; h < heads; ++h)
              for (std::size_t s = 0; s < count; ++s) {
                const FloatMatrix& p = want_p[h * count + s];
                bad_p += std::memcmp(core.probs(h, s), p.flat().data(),
                                     p.size() * sizeof(float)) != 0;
              }
            std::size_t bad_ctx = 0;
            for (std::size_t i = 0; i < got.size(); ++i)
              bad_ctx += got.flat()[i].bits() != want.flat()[i].bits();
            EXPECT_EQ(bad_p, 0u) << ctx->pool().size() << " threads";
            EXPECT_EQ(bad_ctx, 0u) << ctx->pool().size() << " threads";
          }
        }
}

TEST(AttentionCore, NonFiniteValuesBitIdenticalToScalarReference) {
  // V holds +-inf and NaN, at most one NaN source per context chain, so
  // the reference's NaN is defined; the context's vector write-back must
  // round each element as half_t does, NaN included. Bidirectional, so
  // every key is live in every row, as in attention_context.
  constexpr std::size_t heads = 2, dh = 20;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::size_t ends[] = {37, 38};  // a block of rows, then one query
  Rng rng(74);
  const HalfMatrix q = random_half_matrix(heads * dh, 38, rng);
  const HalfMatrix k = random_half_matrix(heads * dh, 38, rng);
  HalfMatrix v = random_half_matrix(heads * dh, 38, rng);
  for (std::size_t row = 0; row < heads * dh; ++row) {
    const std::size_t j = (row * 7) % 37;
    switch (row % 4) {
      case 1: v(row, j) = half_t(row % 8 == 1 ? kInf : -kInf); break;
      case 2:
        v(row, j) = half_t::from_bits(row % 8 == 2 ? 0x7d01 : 0xfe42);
        v(row, 37) = half_t::from_bits(0xfc01);
        break;
      case 3:  // inf + -inf
        v(row, j) = half_t(kInf);
        v(row, (j + 3) % 37) = half_t(-kInf);
        break;
      default: break;
    }
  }
  HalfMatrix want(heads * dh, 38);
  std::size_t s0 = 0;
  for (const std::size_t s1 : ends) {
    for (std::size_t h = 0; h < heads; ++h) {
      HalfMatrix qh(dh, s1 - s0), kh(dh, s1 - s0), vh(dh, s1 - s0);
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t c = s0; c < s1; ++c) {
          qh(d, c - s0) = q(h * dh + d, c);
          kh(d, c - s0) = k(h * dh + d, c);
          vh(d, c - s0) = v(h * dh + d, c);
        }
      FloatMatrix p = attention_scores(qh, kh, 1.0f / std::sqrt(float(dh)));
      softmax_rows(p);
      const HalfMatrix ctx = attention_context(p, vh);
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t c = s0; c < s1; ++c)
          want(h * dh + d, c) = ctx(d, c - s0);
    }
    s0 = s1;
  }
  std::size_t nans = 0;
  for (const half_t e : want.flat()) nans += e.is_nan();
  EXPECT_GT(nans, 0u);

  ops::ExecContextOptions opts;
  opts.threads = 4;
  ops::ExecContext four(opts);
  for (const bool pooled : {false, true}) {
    std::optional<::venom::detail::ForcePooled> force;
    if (pooled) force.emplace();
    ScratchArena arena;
    AttentionCore core(heads, dh, false, 0, AttentionCore::packed(ends, arena),
                       arena);
    core.load(q, k, v, four.pool(), nullptr);
    core.probabilities(four.pool(), nullptr);
    HalfMatrix got(heads * dh, 38);
    core.context(got, four.pool(), nullptr);
    EXPECT_EQ(bit_mismatches(got, want), 0u) << "pooled " << pooled;
  }
}

TEST(Encoder, BatchedForwardBitIdenticalPerSequence) {
  // Full stack (sparse weights + causal + dynamic attention): packing
  // sequences must not change any request's bits — the property the
  // serving engine's correctness rests on.
  Rng rng(56);
  ModelConfig cfg{.name = "tiny", .layers = 2, .hidden = 32, .heads = 4,
                  .ffn_hidden = 64, .seq_len = 8, .causal = true};
  Encoder enc(cfg, rng);
  enc.sparsify({8, 2, 4});
  enc.set_dynamic_score_sparsity(NmPattern{2, 4});

  Rng data_rng(57);
  const HalfMatrix a = random_half_matrix(32, 8, data_rng);
  const HalfMatrix b = random_half_matrix(32, 4, data_rng);
  const HalfMatrix c = random_half_matrix(32, 12, data_rng);
  const HalfMatrix ya = enc.forward(a);
  const HalfMatrix yb = enc.forward(b);
  const HalfMatrix yc = enc.forward(c);

  HalfMatrix packed(32, 24);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t t = 0; t < 8; ++t) packed(r, t) = a(r, t);
    for (std::size_t t = 0; t < 4; ++t) packed(r, 8 + t) = b(r, t);
    for (std::size_t t = 0; t < 12; ++t) packed(r, 12 + t) = c(r, t);
  }
  const std::size_t ends[] = {8, 12, 24};
  const HalfMatrix y = enc.forward_batched(packed, ends);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t t = 0; t < 8; ++t)
      ASSERT_EQ(y(r, t).bits(), ya(r, t).bits());
    for (std::size_t t = 0; t < 4; ++t)
      ASSERT_EQ(y(r, 8 + t).bits(), yb(r, t).bits());
    for (std::size_t t = 0; t < 12; ++t)
      ASSERT_EQ(y(r, 12 + t).bits(), yc(r, t).bits());
  }
}

TEST(Linear, ExecContextRouteBitIdenticalAndCachesPlans) {
  Rng rng(58);
  Linear lin = Linear::random(32, 64, rng);
  lin.sparsify({8, 2, 8});
  const HalfMatrix x = random_half_matrix(64, 8, rng);
  const HalfMatrix direct = lin.forward(x);  // ExecContext::global()

  ops::ExecContext ctx;
  lin.set_exec_context(&ctx);
  for (int round = 0; round < 3; ++round) {
    const HalfMatrix cached = lin.forward(x);
    for (std::size_t i = 0; i < direct.size(); ++i)
      ASSERT_EQ(cached.flat()[i].bits(), direct.flat()[i].bits());
  }
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
  EXPECT_EQ(ctx.plan_cache().hits(), 2u);
  lin.set_exec_context(nullptr);
  EXPECT_NO_THROW(lin.forward(x));
}

TEST(Config, GptModelsAreCausal) {
  EXPECT_FALSE(bert_base().causal);
  EXPECT_FALSE(bert_large().causal);
  EXPECT_TRUE(gpt2_large().causal);
  EXPECT_TRUE(gpt3_175b().causal);
}

TEST(Attention, TimingBreakdownPopulated) {
  Rng rng(9);
  MultiHeadAttention mha(32, 4, rng);
  const HalfMatrix x = random_half_matrix(32, 8, rng);
  TimingBreakdown t;
  mha.forward(x, &t);
  EXPECT_GT(t.gemm_s, 0.0);
  EXPECT_GT(t.softmax_s, 0.0);
  EXPECT_GT(t.attn_matmul_s, 0.0);

  // The KV-cached forward fills the same classes; its ring appends (a
  // prefill chunk's and a decode step's) bill to attn_matmul_s.
  MultiHeadAttention causal(32, 4, rng, /*causal=*/true);
  KvCache cache(1, 32, 16, 4);
  KvCache* caches[] = {&cache};
  for (const std::size_t n : {std::size_t{8}, std::size_t{1}}) {
    const HalfMatrix xn = random_half_matrix(32, n, rng);
    TimingBreakdown tc;
    causal.forward_cached(xn, std::span<const std::size_t>(&n, 1), caches, 0,
                          &tc);
    EXPECT_GT(tc.gemm_s, 0.0);
    EXPECT_GT(tc.softmax_s, 0.0);
    EXPECT_GT(tc.attn_matmul_s, 0.0);
  }
  EXPECT_EQ(cache.length(), 9u);
}

TEST(Encoder, ForwardShapeAndFiniteness) {
  Rng rng(10);
  ModelConfig cfg{.name = "tiny", .layers = 2, .hidden = 32, .heads = 4,
                  .ffn_hidden = 64, .seq_len = 8};
  Encoder enc(cfg, rng);
  EXPECT_EQ(enc.layer_count(), 2u);
  const HalfMatrix x = random_half_matrix(32, 8, rng);
  const HalfMatrix y = enc.forward(x);
  EXPECT_EQ(y.rows(), 32u);
  EXPECT_EQ(y.cols(), 8u);
  for (auto v : y.flat()) EXPECT_FALSE(v.is_nan());
}

TEST(Encoder, SparsifiedStillReasonable) {
  Rng rng(11);
  ModelConfig cfg{.name = "tiny", .layers = 1, .hidden = 32, .heads = 4,
                  .ffn_hidden = 64, .seq_len = 8};
  Encoder dense_enc(cfg, rng);
  Rng rng2(11);
  Encoder sparse_enc(cfg, rng2);  // identical weights (same seed stream)
  sparse_enc.sparsify({8, 2, 4});

  Rng rng3(99);
  const HalfMatrix x = random_half_matrix(32, 8, rng3);
  const HalfMatrix yd = dense_enc.forward(x);
  const HalfMatrix ys = sparse_enc.forward(x);
  double dot = 0.0, n1 = 0.0, n2 = 0.0;
  for (std::size_t i = 0; i < yd.size(); ++i) {
    const double a = yd.flat()[i].to_float();
    const double b = ys.flat()[i].to_float();
    dot += a * b;
    n1 += a * a;
    n2 += b * b;
  }
  EXPECT_GT(dot / std::sqrt(n1 * n2), 0.5);
  for (auto v : ys.flat()) EXPECT_FALSE(v.is_nan());
}

TEST(Encoder, FullySparseStackRuns) {
  // Weights to V:N:M AND dynamic N:M attention, end to end: the maximal
  // sparsity configuration the library supports.
  Rng rng(40);
  ModelConfig cfg{.name = "tiny", .layers = 2, .hidden = 32, .heads = 4,
                  .ffn_hidden = 64, .seq_len = 8};
  Encoder enc(cfg, rng);
  enc.sparsify({8, 2, 4});
  enc.set_dynamic_score_sparsity(NmPattern{2, 4});
  Rng data_rng(41);
  const HalfMatrix x = random_half_matrix(32, 8, data_rng);
  const HalfMatrix y = enc.forward(x);
  EXPECT_EQ(y.rows(), 32u);
  for (auto v : y.flat()) EXPECT_FALSE(v.is_nan());
  // Disabling restores the dense attention path.
  enc.set_dynamic_score_sparsity(std::nullopt);
  EXPECT_NO_THROW(enc.forward(x));
}

TEST(Encoder, TimingBreakdownSumsToTotal) {
  Rng rng(12);
  ModelConfig cfg{.name = "tiny", .layers = 1, .hidden = 32, .heads = 4,
                  .ffn_hidden = 64, .seq_len = 4};
  Encoder enc(cfg, rng);
  const HalfMatrix x = random_half_matrix(32, 4, rng);
  TimingBreakdown t;
  enc.forward(x, &t);
  EXPECT_GT(t.gemm_s, 0.0);
  EXPECT_GT(t.other_s, 0.0);
  EXPECT_NEAR(t.total(), t.gemm_s + t.softmax_s + t.attn_matmul_s + t.other_s,
              1e-12);
}

}  // namespace
}  // namespace venom::transformer
