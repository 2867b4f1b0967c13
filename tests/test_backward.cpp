// Sparse backward pass, end to end: Linear::backward's transposed SpMM /
// masked SDDMM pinned to the direct kernel calls, finite-difference
// checks of the transformer backward (MHA, encoder layer, encoder
// stack), and the fine-tuning loop's acceptance bar (>= 50% of the
// post-prune loss recovered on the synthetic regression task).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// Counts the elements whose fp32 bit patterns differ.
std::size_t bit_mismatches(const FloatMatrix& a, const FloatMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return a.size() + 1;
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    n += std::bit_cast<std::uint32_t>(a.flat()[i]) !=
         std::bit_cast<std::uint32_t>(b.flat()[i]);
  return n;
}

TEST(LinearBackward, MatchesDirectKernelCalls) {
  // backward() is the transposed SpMM and the SDDMM (the dense GEMM for
  // a dense weight) keyed by one R x K x tokens config, run on the
  // layer's context: its gradients carry those calls' bits exactly.
  constexpr std::size_t kOut = 128, kIn = 96;
  Rng rng = Rng::seeded("linear-backward-direct");
  ops::ExecContextOptions opts;
  opts.threads = 4;
  ops::ExecContext four(opts);
  Linear sparse = Linear::random(kOut, kIn, rng);
  sparse.sparsify({64, 2, 8});
  Linear dense = Linear::random(kOut, kIn, rng);

  for (const std::size_t c : {1, 13, 64}) {
    const HalfMatrix x = random_half_matrix(kIn, c, rng, 0.5f);
    const FloatMatrix gy = random_direction(kOut, c, rng);
    const HalfMatrix gyh = to_half(gy);
    const HalfMatrix xt = transpose(x);
    std::vector<float> bias(kOut, 0.0f);
    for (std::size_t o = 0; o < kOut; ++o)
      for (std::size_t t = 0; t < c; ++t) bias[o] += gy(o, t);

    for (ops::ExecContext* attached : {(ops::ExecContext*)nullptr, &four}) {
      SCOPED_TRACE(testing::Message() << "sparse C=" << c << " threads="
                                      << (attached != nullptr ? 4 : 0));
      ops::ExecContext& ctx = ops::resolve(attached);
      sparse.set_exec_context(attached);
      const Linear::Grads g = sparse.backward(x, gy);
      const VnmMatrix& w = sparse.sparse_weight();
      const spatha::SpmmConfig cfg =
          ctx.select_config(w.config(), kOut, kIn, c);
      const VnmMatrix dw = spatha::sddmm_vnm(w, gyh, xt, cfg, &ctx.pool(),
                                             &ctx.scratch());
      EXPECT_EQ(bit_mismatches(g.input, spatha::spmm_vnm_transposed(
                                            w, gyh, cfg, &ctx.pool())),
                0u);
      ASSERT_NE(g.weight_vnm, nullptr);
      ASSERT_EQ(g.weight_vnm->values().size(), dw.values().size());
      for (std::size_t i = 0; i < dw.values().size(); ++i)
        ASSERT_EQ(g.weight_vnm->values()[i].bits(), dw.values()[i].bits())
            << i;
      EXPECT_EQ(bit_mismatches(g.weight, to_float(dw.to_dense())), 0u);
      EXPECT_EQ(g.bias, bias);
    }
    sparse.set_exec_context(nullptr);

    SCOPED_TRACE(testing::Message() << "dense C=" << c);
    ThreadPool& pool = ops::ExecContext::global().pool();
    const Linear::Grads g = dense.backward(x, gy);
    EXPECT_EQ(bit_mismatches(
                  g.input,
                  gemm_dense(transpose(dense.dense_weight()), gyh, &pool)),
              0u);
    EXPECT_EQ(bit_mismatches(g.weight, gemm_dense(gyh, xt, &pool)), 0u);
    EXPECT_EQ(g.weight_vnm, nullptr);
    EXPECT_EQ(g.bias, bias);
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
