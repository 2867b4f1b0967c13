// Sparse backward pass, end to end: the ops-layer dispatch of the
// transposed SpMM / masked SDDMM, finite-difference checks of the
// transformer backward (MHA, encoder layer, encoder stack), and the
// fine-tuning loop's acceptance bar (>= 50% of the post-prune loss
// recovered on the synthetic regression task).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/gemm.hpp"
#include "common/rng.hpp"
#include "ops/ops.hpp"
#include "pruning/finetune.hpp"
#include "spatha/sddmm.hpp"
#include "spatha/spmm.hpp"
#include "transformer/encoder.hpp"
#include "transformer/ops.hpp"
#include "workloads/generators.hpp"

namespace venom {
namespace {

using transformer::Encoder;
using transformer::EncoderLayer;
using transformer::EncoderLayerGrads;
using transformer::Linear;
using transformer::MhaGrads;
using transformer::ModelConfig;
using transformer::MultiHeadAttention;

double inner(const FloatMatrix& g, const FloatMatrix& d) {
  double acc = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i)
    acc += double(g.flat()[i]) * double(d.flat()[i]);
  return acc;
}

/// 0.5 * ||y - t||^2 with fp16 y, accumulated in double.
double half_loss(const HalfMatrix& y, const FloatMatrix& t) {
  double acc = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double d = double(y.flat()[i].to_float()) - double(t.flat()[i]);
    acc += 0.5 * d * d;
  }
  return acc;
}

FloatMatrix loss_grad(const HalfMatrix& y, const FloatMatrix& t) {
  FloatMatrix g(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i)
    g.flat()[i] = y.flat()[i].to_float() - t.flat()[i];
  return g;
}

/// x +/- h*dir rounded to fp16 (the actually-applied perturbation), and
/// the effective fp32 delta between the two — directional FD uses the
/// rounded operands so fp16 quantization cannot masquerade as gradient
/// error.
struct Perturbed {
  HalfMatrix plus, minus;
  FloatMatrix delta;  // plus - minus, exact
};

Perturbed perturb(const HalfMatrix& x, const FloatMatrix& dir, float h) {
  Perturbed p{HalfMatrix(x.rows(), x.cols()), HalfMatrix(x.rows(), x.cols()),
              FloatMatrix(x.rows(), x.cols())};
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.flat()[i].to_float();
    p.plus.flat()[i] = half_t(v + h * dir.flat()[i]);
    p.minus.flat()[i] = half_t(v - h * dir.flat()[i]);
    p.delta.flat()[i] =
        p.plus.flat()[i].to_float() - p.minus.flat()[i].to_float();
  }
  return p;
}

FloatMatrix random_direction(std::size_t rows, std::size_t cols, Rng& rng) {
  FloatMatrix d(rows, cols);
  for (auto& v : d.flat()) v = rng.normal();
  return d;
}

/// Aggregate directional FD check: RMS disagreement between the FD and
/// analytic directional derivatives over `dirs` random directions,
/// normalized by the analytic RMS. Robust to single directions whose
/// derivative lands near the fp16 forward's noise floor.
template <typename ForwardFn>
double directional_rel_err(ForwardFn&& forward, const FloatMatrix& grad_x,
                           const HalfMatrix& x, const FloatMatrix& t,
                           Rng& rng, int dirs = 6, float h = 0.05f) {
  double num = 0.0, den = 0.0;
  for (int i = 0; i < dirs; ++i) {
    const FloatMatrix dir = random_direction(x.rows(), x.cols(), rng);
    const Perturbed p = perturb(x, dir, h);
    const double fd = half_loss(forward(p.plus), t) -
                      half_loss(forward(p.minus), t);
    const double an = inner(grad_x, p.delta);
    num += (fd - an) * (fd - an);
    den += an * an;
  }
  return std::sqrt(num / std::max(den, 1e-12));
}

// ------------------------------------------------- ops-layer dispatch

TEST(BackwardOps, TransposedDispatchMatchesScalarOracle) {
  Rng rng = Rng::seeded("backward-ops", 1);
  const VnmConfig fmt{8, 2, 10};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(
      random_half_matrix(32, 40, rng, 0.1f), fmt);
  const HalfMatrix b = random_half_matrix(32, 13, rng, 0.1f);

  const FloatMatrix fast =
      ops::matmul_transposed(ops::MatmulArgs::make_transposed(a, b));
  const FloatMatrix oracle = spatha::spmm_vnm_transposed_scalar(a, b);
  EXPECT_LT(rel_fro_error(fast, oracle), 1e-5f);
  EXPECT_LT(rel_fro_error(oracle,
                          gemm_dense(transpose(a.to_dense()), b)),
            1e-5f);
}

TEST(BackwardOps, SddmmDispatchMatchesScalarOracle) {
  Rng rng = Rng::seeded("backward-ops", 2);
  const VnmConfig fmt{4, 2, 8};
  const VnmMatrix s = VnmMatrix::from_dense_magnitude(
      random_half_matrix(16, 32, rng, 0.1f), fmt);
  const HalfMatrix a = random_half_matrix(16, 12, rng, 0.1f);
  const HalfMatrix b = random_half_matrix(12, 32, rng, 0.1f);

  const VnmMatrix fast = ops::sddmm(ops::MatmulArgs::make_sddmm(s, a, b));
  const VnmMatrix oracle = spatha::sddmm_vnm_scalar(s, a, b);
  ASSERT_EQ(fast.values().size(), oracle.values().size());
  for (std::size_t i = 0; i < fast.values().size(); ++i)
    EXPECT_NEAR(fast.values()[i].to_float(), oracle.values()[i].to_float(),
                0.01f + 0.02f * std::fabs(oracle.values()[i].to_float()))
        << i;
}

TEST(BackwardOps, DenseTransposedMatchesHandTransposedGemm) {
  Rng rng = Rng::seeded("backward-ops", 3);
  const HalfMatrix w = random_half_matrix(24, 40, rng, 0.1f);
  const HalfMatrix b = random_half_matrix(24, 9, rng, 0.1f);
  const FloatMatrix got =
      ops::matmul_transposed(ops::MatmulArgs::make_transposed(w, b));
  const FloatMatrix ref = gemm_dense(transpose(w), b);
  ASSERT_EQ(got.rows(), ref.rows());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.flat()[i], ref.flat()[i]) << i;
}

TEST(BackwardOps, UnsupportedKindThrows) {
  Rng rng = Rng::seeded("backward-ops", 4);
  const HalfMatrix a = random_half_matrix(8, 8, rng);
  const HalfMatrix b = random_half_matrix(8, 8, rng);
  ops::MatmulArgs args = ops::MatmulArgs::make(a, b);
  EXPECT_THROW(ops::matmul_transposed(args), Error);  // kind mismatch
  EXPECT_THROW(ops::sddmm(args), Error);
}

// ------------------------------------------------- layer_norm backward

TEST(LayerNormBackward, RecomputesTheForwardsStatistics) {
  // With gamma = 1 and dL/dy one on a single column, dL/dgamma is the
  // backward's xhat of that column, which must be the forward's
  // normalize before its fp16 rounding: mean and variance each divided
  // by the feature count, as layer_norm divides them.
  constexpr std::size_t kFeatures = 768, kCols = 48;
  constexpr float kEps = 1e-5f;
  Rng rng = Rng::seeded("layer-norm-backward-stats");
  const HalfMatrix x = random_half_matrix(kFeatures, kCols, rng);
  const std::vector<float> gamma(kFeatures, 1.0f);
  std::vector<float> dgamma(kFeatures), dbeta(kFeatures);
  for (std::size_t t = 0; t < kCols; ++t) {
    float mean = 0.0f;
    for (std::size_t f = 0; f < kFeatures; ++f) mean += x(f, t).to_float();
    mean /= float(kFeatures);
    float var = 0.0f;
    for (std::size_t f = 0; f < kFeatures; ++f) {
      const float d = x(f, t).to_float() - mean;
      var = std::fma(d, d, var);
    }
    const float inv = 1.0f / std::sqrt(var / float(kFeatures) + kEps);

    FloatMatrix grad_y(kFeatures, kCols);
    for (std::size_t f = 0; f < kFeatures; ++f) grad_y(f, t) = 1.0f;
    std::fill(dgamma.begin(), dgamma.end(), 0.0f);
    std::fill(dbeta.begin(), dbeta.end(), 0.0f);
    transformer::layer_norm_backward(x, gamma, grad_y, dgamma, dbeta, kEps);
    for (std::size_t f = 0; f < kFeatures; ++f)
      ASSERT_EQ(dgamma[f], (x(f, t).to_float() - mean) * inv)
          << "column " << t << " feature " << f;
  }
}

// -------------------------------------------- Linear training surface

TEST(LinearBackward, SparseWeightGradIsMaskedAndStructured) {
  Rng rng = Rng::seeded("linear-backward", 1);
  Linear layer = Linear::random(16, 32, rng);
  layer.sparsify({4, 2, 8});
  const HalfMatrix x = random_half_matrix(32, 6, rng, 0.5f);
  const FloatMatrix t = random_direction(16, 6, rng);
  const Linear::Grads g = layer.backward(x, loss_grad(layer.forward(x), t));

  ASSERT_NE(g.weight_vnm, nullptr);
  EXPECT_EQ(g.weight_vnm->m_indices(), layer.sparse_weight().m_indices());
  EXPECT_EQ(g.weight_vnm->column_locs(), layer.sparse_weight().column_locs());
  const HalfMatrix pattern = layer.sparse_weight().to_dense();
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 32; ++c)
      if (pattern(r, c).is_zero()) {
        EXPECT_EQ(g.weight(r, c), 0.0f) << r << ',' << c;
      }
}

TEST(LinearBackward, ApplyGradientsKeepsPatternAndReducesLoss) {
  Rng rng = Rng::seeded("linear-backward", 2);
  Linear layer = Linear::random(16, 32, rng);
  const VnmConfig fmt{4, 2, 8};
  layer.sparsify(fmt);
  const HalfMatrix x = random_half_matrix(32, 24, rng, 0.5f);
  const FloatMatrix t = random_direction(16, 24, rng);

  const double before = half_loss(layer.forward(x), t);
  for (int s = 0; s < 5; ++s) {
    const Linear::Grads g = layer.backward(x, loss_grad(layer.forward(x), t));
    layer.apply_gradients(g, 0.01f);
    EXPECT_TRUE(VnmMatrix::conforms(layer.sparse_weight().to_dense(), fmt));
  }
  EXPECT_LT(half_loss(layer.forward(x), t), before);
}

// ------------------------------------- transformer finite differences
//
// Directional FD over the fp16 forward: tolerances are looser than the
// kernel-level checks in test_properties because every intermediate
// activation rounds to fp16 (noise ~2^-11 per element accumulated over
// the network), while the analytic backward runs fp32.

TEST(MhaBackward, FiniteDifferenceDense) {
  for (const bool causal : {false, true}) {
    Rng rng = Rng::seeded("mha-fd", causal ? 1 : 0);
    MultiHeadAttention mha(16, 2, rng, causal);
    const std::size_t tokens = 6;
    const HalfMatrix x = random_half_matrix(16, tokens, rng, 0.5f);
    const FloatMatrix t = random_direction(16, tokens, rng);

    const FloatMatrix grad_x =
        mha.backward(x, loss_grad(mha.forward(x), t), nullptr);
    const auto fwd = [&](const HalfMatrix& xx) { return mha.forward(xx); };
    EXPECT_LT(directional_rel_err(fwd, grad_x, x, t, rng), 5e-2)
        << "causal=" << causal;
  }
}

TEST(MhaBackward, FiniteDifferenceSparseProjections) {
  Rng rng = Rng::seeded("mha-fd-sparse");
  MultiHeadAttention mha(16, 2, rng);
  mha.sparsify({4, 2, 8});
  const std::size_t tokens = 5;
  const HalfMatrix x = random_half_matrix(16, tokens, rng, 0.5f);
  const FloatMatrix t = random_direction(16, tokens, rng);

  MhaGrads grads;
  const FloatMatrix grad_x =
      mha.backward(x, loss_grad(mha.forward(x), t), &grads);
  EXPECT_NE(grads.wq.weight_vnm, nullptr);  // sparse ops really ran

  const auto fwd = [&](const HalfMatrix& xx) { return mha.forward(xx); };
  EXPECT_LT(directional_rel_err(fwd, grad_x, x, t, rng), 5e-2);
}

TEST(MhaBackward, DynamicScoreSparsityThrows) {
  Rng rng = Rng::seeded("mha-dynamic");
  MultiHeadAttention mha(16, 2, rng);
  mha.set_dynamic_score_sparsity(NmPattern{2, 4});
  const HalfMatrix x = random_half_matrix(16, 4, rng, 0.5f);
  EXPECT_THROW(mha.backward(x, FloatMatrix(16, 4), nullptr), Error);
}

TEST(EncoderLayerBackward, FiniteDifference) {
  Rng rng = Rng::seeded("encoder-layer-fd");
  const ModelConfig cfg{.name = "fd", .layers = 1, .hidden = 16, .heads = 2,
                        .ffn_hidden = 32, .seq_len = 6};
  EncoderLayer layer(cfg, rng);
  const HalfMatrix x = random_half_matrix(16, 6, rng, 0.5f);
  const FloatMatrix t = random_direction(16, 6, rng);

  EncoderLayerGrads grads;
  const FloatMatrix grad_x =
      layer.backward(x, loss_grad(layer.forward(x), t), &grads);
  EXPECT_EQ(grads.ln1_gamma.size(), 16u);

  const auto fwd = [&](const HalfMatrix& xx) { return layer.forward(xx); };
  EXPECT_LT(directional_rel_err(fwd, grad_x, x, t, rng), 8e-2);
}

TEST(EncoderBackward, FiniteDifferenceSparseStack) {
  Rng rng = Rng::seeded("encoder-fd");
  const ModelConfig cfg{.name = "fd2", .layers = 2, .hidden = 16, .heads = 2,
                        .ffn_hidden = 32, .seq_len = 5};
  Encoder enc(cfg, rng);
  enc.sparsify({4, 2, 8});
  const HalfMatrix x = random_half_matrix(16, 5, rng, 0.5f);
  const FloatMatrix t = random_direction(16, 5, rng);

  std::vector<EncoderLayerGrads> grads;
  const FloatMatrix grad_x =
      enc.backward(x, loss_grad(enc.forward(x), t), &grads);
  ASSERT_EQ(grads.size(), 2u);

  const auto fwd = [&](const HalfMatrix& xx) { return enc.forward(xx); };
  EXPECT_LT(directional_rel_err(fwd, grad_x, x, t, rng), 1e-1);
}

// ---------------------------------------------------- fine-tune loop

TEST(Finetune, LinearRecoversHalfThePostPruneLoss) {
  // The PR's acceptance bar: magnitude-prune -> V:N:M convert -> SGD on
  // the sparse kernels removes >= 50% of the post-prune loss.
  Rng task_rng = Rng::seeded("finetune-task");
  const workloads::RegressionTask task =
      workloads::regression_task(64, 128, 256, task_rng);
  Rng student_rng = Rng::seeded("finetune-student");
  Linear student = Linear::random(64, 128, student_rng);

  pruning::SparseFinetuneConfig cfg;
  cfg.format = {8, 2, 8};
  cfg.steps = 60;
  const pruning::SparseFinetuneReport r =
      pruning::finetune_linear(student, task, cfg);

  EXPECT_GT(r.post_prune_loss, 0.0);
  EXPECT_GE(r.recovery(), 0.5)
      << "post-prune " << r.post_prune_loss << " -> " << r.final_loss;
  // The loop is monotone by construction (backtracking line search).
  for (std::size_t i = 1; i < r.curve.size(); ++i)
    EXPECT_LE(r.curve[i], r.curve[i - 1]) << i;
  // And the student is still exactly V:N:M.
  EXPECT_TRUE(
      VnmMatrix::conforms(student.sparse_weight().to_dense(), cfg.format));
}

TEST(Finetune, EncoderRecoversTowardDenseOutputs) {
  // Distillation-style recovery: fine-tune the pruned encoder to
  // reproduce its own dense outputs.
  Rng rng = Rng::seeded("finetune-encoder");
  const ModelConfig mc{.name = "ft", .layers = 1, .hidden = 32, .heads = 2,
                       .ffn_hidden = 64, .seq_len = 16};
  Encoder enc(mc, rng);
  const HalfMatrix x = random_half_matrix(32, 16, rng, 0.5f);
  const FloatMatrix dense_out = to_float(enc.forward(x));

  pruning::SparseFinetuneConfig cfg;
  cfg.format = {4, 2, 8};
  cfg.steps = 12;
  cfg.lr = 0.05f;
  const pruning::SparseFinetuneReport r =
      pruning::finetune_encoder(enc, x, dense_out, cfg);
  EXPECT_GT(r.post_prune_loss, 0.0);
  EXPECT_LT(r.final_loss, r.post_prune_loss);
}

}  // namespace
}  // namespace venom
