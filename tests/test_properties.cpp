// Randomized property tests: cross-kernel equivalence, format-law
// invariants, and compression round-trips over fuzzed shapes and
// configurations. Each case draws its geometry from a seeded RNG so
// failures are reproducible from the gtest parameter.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/gemm.hpp"
#include "baselines/spmm_24.hpp"
#include "baselines/spmm_csr.hpp"
#include "baselines/spmm_cvse.hpp"
#include "common/rng.hpp"
#include "common/thread_pool_testing.hpp"
#include "format/csr.hpp"
#include "format/cvse.hpp"
#include "pruning/policies.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/sddmm.hpp"
#include "spatha/spmm.hpp"
#include "transformer/linear.hpp"

namespace venom {
namespace {

/// Draws a random but valid V:N:M problem from a seed.
struct FuzzCase {
  VnmConfig cfg;
  std::size_t rows, cols, b_cols;
  HalfMatrix dense;
  HalfMatrix b;

  static FuzzCase draw(std::uint64_t seed) {
    Rng rng(seed);
    FuzzCase fc;
    const std::size_t ms[] = {4, 5, 7, 8, 10, 16, 20, 25, 32, 40, 50, 100};
    fc.cfg.m = ms[rng.uniform_index(std::size(ms))];
    fc.cfg.n = fc.cfg.m >= 4 ? 1 + rng.uniform_index(2) : 1;  // 1 or 2
    const std::size_t vs[] = {1, 2, 4, 8, 16, 32, 64};
    fc.cfg.v = vs[rng.uniform_index(std::size(vs))];
    fc.rows = fc.cfg.v * (1 + rng.uniform_index(4));
    fc.cols = fc.cfg.m * (1 + rng.uniform_index(8));
    fc.b_cols = 1 + rng.uniform_index(40);
    fc.dense = random_half_matrix(fc.rows, fc.cols, rng, 0.1f);
    fc.b = random_half_matrix(fc.cols, fc.b_cols, rng, 0.1f);
    return fc;
  }
};

class VnmFuzz : public ::testing::TestWithParam<int> {
  ::venom::detail::ForcePooled pooled_;  // keep the chunked path under test
};

TEST_P(VnmFuzz, CompressionLaws) {
  const FuzzCase fc = FuzzCase::draw(1000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  const HalfMatrix pruned = sparse.to_dense();

  // Law 1: pruning conforms to the declared pattern.
  EXPECT_TRUE(VnmMatrix::conforms(pruned, fc.cfg));
  // Law 2: compress(to_dense(x)) == x as a matrix.
  EXPECT_TRUE(VnmMatrix::compress(pruned, fc.cfg).to_dense() == pruned);
  // Law 3: nnz is exactly rows * groups * n.
  EXPECT_EQ(sparse.nnz(), fc.rows * (fc.cols / fc.cfg.m) * fc.cfg.n);
  // Law 4: every kept value exists identically in the dense origin.
  for (std::size_t r = 0; r < fc.rows; ++r)
    for (std::size_t c = 0; c < fc.cols; ++c)
      if (!pruned(r, c).is_zero()) {
        ASSERT_EQ(pruned(r, c).bits(), fc.dense(r, c).bits());
      }
  // Law 5: magnitude pruning keeps at least as much energy as zeroing
  // arbitrary positions would on average — concretely, at least n/m of
  // the total (the mean of a random selection).
  const double kept = l1_energy(pruned);
  const double total = l1_energy(fc.dense);
  EXPECT_GE(kept + 1e-9,
            total * double(fc.cfg.n) / double(fc.cfg.m));
}

TEST_P(VnmFuzz, KernelsAgree) {
  const FuzzCase fc = FuzzCase::draw(2000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);

  const FloatMatrix oracle = gemm_dense(sparse.to_dense(), fc.b);
  // Tiled Spatha.
  EXPECT_LT(rel_fro_error(spatha::spmm_vnm(sparse, fc.b), oracle), 1e-5f);
  // Naive reference.
  EXPECT_LT(rel_fro_error(spatha::spmm_vnm_reference(sparse, fc.b), oracle),
            1e-5f);
  // Fused path with empty epilogue (fp16 output tolerance).
  const HalfMatrix fused = spatha::spmm_vnm_fused(sparse, fc.b, {});
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_NEAR(fused.flat()[i].to_float(), oracle.flat()[i],
                0.02f + 0.01f * std::fabs(oracle.flat()[i]));
  // CSR kernel on the same pruned matrix.
  EXPECT_LT(rel_fro_error(
                spmm_csr(CsrMatrix::from_dense(sparse.to_dense()), fc.b),
                oracle),
            1e-5f);
}

TEST_P(VnmFuzz, RandomTileConfigsAgree) {
  const FuzzCase fc = FuzzCase::draw(3000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  const FloatMatrix oracle = spatha::spmm_vnm_reference(sparse, fc.b);

  Rng rng(4000 + std::size_t(GetParam()));
  for (int trial = 0; trial < 3; ++trial) {
    spatha::SpmmConfig cfg;
    cfg.block_k = fc.cfg.m * (1 + rng.uniform_index(8));
    cfg.block_c = 1 + rng.uniform_index(fc.b_cols);
    cfg.batch_size = 1 + rng.uniform_index(4);
    cfg.store_width = rng.uniform() < 0.5f ? spatha::StoreWidth::k32bit
                                           : spatha::StoreWidth::k128bit;
    EXPECT_LT(rel_fro_error(spatha::spmm_vnm(sparse, fc.b, cfg), oracle),
              1e-5f)
        << cfg.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, VnmFuzz, ::testing::Range(0, 12));

class BaselineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BaselineFuzz, FormatsRoundTripArbitrarySparsity) {
  Rng rng(5000 + std::size_t(GetParam()));
  const std::size_t rows = 8 * (1 + rng.uniform_index(6));
  const std::size_t cols = 4 * (1 + rng.uniform_index(12));
  const double sparsity = 0.3 + 0.65 * rng.uniform();
  const HalfMatrix pruned = pruning::prune_unstructured(
      random_half_matrix(rows, cols, rng, 0.1f), sparsity);

  EXPECT_TRUE(CsrMatrix::from_dense(pruned).to_dense() == pruned);
  for (std::size_t l : {1u, 2u, 4u, 8u})
    if (rows % l == 0) {
      EXPECT_TRUE(CvseMatrix::from_dense(pruned, l).to_dense() == pruned)
          << "l=" << l;
    }
}

TEST_P(BaselineFuzz, Spmm24MmaAgreesOnRandomShapes) {
  Rng rng(6000 + std::size_t(GetParam()));
  const std::size_t rows = 16 * (1 + rng.uniform_index(4));
  const std::size_t cols = 32 * (1 + rng.uniform_index(6));
  const std::size_t b_cols = 8 * (1 + rng.uniform_index(6));
  const NmMatrix a = NmMatrix::from_dense_magnitude(
      random_half_matrix(rows, cols, rng, 0.1f), {2, 4});
  const HalfMatrix b = random_half_matrix(cols, b_cols, rng, 0.1f);
  EXPECT_LT(rel_fro_error(spmm_24_mma(a, b), spmm_24(a, b)), 2e-2f);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, BaselineFuzz, ::testing::Range(0, 10));

class EnergyLawFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EnergyLawFuzz, SelectionFreedomOrdersEnergy) {
  // Looser structure never retains less energy: ideal >= 1:N:M >= V:N:M
  // for any larger V, on any weight distribution.
  Rng rng(7000 + std::size_t(GetParam()));
  const HalfMatrix w = pruning::synthetic_bert_weight(
      64, 80, rng, 0.1 + 0.3 * rng.uniform(), 2.0f + 6.0f * rng.uniform());
  const std::size_t m = GetParam() % 2 == 0 ? 8 : 10;
  const VnmConfig small{1, 2, m};
  const VnmConfig mid{8, 2, m};
  const VnmConfig big{64, 2, m};
  const double ideal =
      pruning::energy(pruning::prune_unstructured(w, small.sparsity()), w);
  const double e1 = pruning::energy(pruning::prune_vnm(w, small), w);
  const double e8 = pruning::energy(pruning::prune_vnm(w, mid), w);
  const double e64 = pruning::energy(pruning::prune_vnm(w, big), w);
  EXPECT_GE(ideal + 1e-9, e1);
  EXPECT_GE(e1 + 1e-9, e8);
  EXPECT_GE(e8 + 1e-9, e64);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, EnergyLawFuzz, ::testing::Range(0, 8));

// --------------------------------------------------- gradient checks
//
// The backward kernels are validated two ways per fuzzed problem:
// (1) parity of the fast paths against their scalar oracles, and
// (2) finite differences: the transposed SpMM and the SDDMM must be the
//     exact adjoints of the *forward* spmm_vnm — under both
//     ColumnLocModes, since kFixed changes which dense coordinates every
//     nonzero touches. All FD deltas are computed from the actually-
//     rounded fp16 operands, so fp16 quantization cannot masquerade as
//     gradient error; the acceptance tolerance is 1e-2 relative.

double inner_cs(const FloatMatrix& a, const FloatMatrix& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += double(a.flat()[i]) * double(b.flat()[i]);
  return acc;
}

double grad_rel_err(double fd, double an) {
  return std::fabs(fd - an) / std::max({std::fabs(fd), std::fabs(an), 1e-4});
}

class GradFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GradFuzz, TransposedMatchesScalarOracleBothModes) {
  const FuzzCase fc = FuzzCase::draw(8000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  // B here plays dL/dy: shape (rows x any width).
  Rng rng(8100 + std::size_t(GetParam()));
  const HalfMatrix gy = random_half_matrix(fc.rows, 1 + rng.uniform_index(24),
                                           rng, 0.1f);
  for (const spatha::ColumnLocMode mode :
       {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
    spatha::SpmmConfig cfg = spatha::select_config_heuristic(
        fc.cfg, fc.rows, fc.cols, gy.cols());
    cfg.column_loc = mode;
    const FloatMatrix fast =
        spatha::spmm_vnm_transposed(sparse, gy, cfg);
    const FloatMatrix oracle =
        spatha::spmm_vnm_transposed_scalar(sparse, gy, mode);
    EXPECT_LT(rel_fro_error(fast, oracle), 1e-5f)
        << "mode=" << int(mode);
  }
}

TEST_P(GradFuzz, SddmmMatchesScalarOracleBothModes) {
  const FuzzCase fc = FuzzCase::draw(9000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  Rng rng(9100 + std::size_t(GetParam()));
  const std::size_t depth = 1 + rng.uniform_index(24);
  const HalfMatrix a = random_half_matrix(fc.rows, depth, rng, 0.1f);
  const HalfMatrix b = random_half_matrix(depth, fc.cols, rng, 0.1f);
  for (const spatha::ColumnLocMode mode :
       {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
    spatha::SpmmConfig cfg =
        spatha::select_config_heuristic(fc.cfg, fc.rows, fc.cols, depth);
    cfg.column_loc = mode;
    cfg.chunk_grain = 1 + rng.uniform_index(3);  // exercise the partition
    const VnmMatrix fast = spatha::sddmm_vnm(sparse, a, b, cfg);
    const VnmMatrix oracle = spatha::sddmm_vnm_scalar(sparse, a, b, mode);
    ASSERT_EQ(fast.values().size(), oracle.values().size());
    for (std::size_t i = 0; i < fast.values().size(); ++i) {
      const float o = oracle.values()[i].to_float();
      EXPECT_NEAR(fast.values()[i].to_float(), o,
                  0.005f + 0.01f * std::fabs(o))
          << "mode=" << int(mode) << " i=" << i;
    }
  }
}

TEST_P(GradFuzz, TransposedIsAdjointOfForwardBothModes) {
  // f(B) = <S, spmm_vnm(A, B, mode)>  =>  df/dB = spmm_vnm_t(A, S, mode).
  const FuzzCase fc = FuzzCase::draw(10000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  Rng rng(10100 + std::size_t(GetParam()));
  const HalfMatrix s = random_half_matrix(fc.rows, fc.b_cols, rng, 0.1f);
  FloatMatrix s_f = to_float(s);

  for (const spatha::ColumnLocMode mode :
       {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
    spatha::SpmmConfig cfg = spatha::select_config_heuristic(
        fc.cfg, fc.rows, fc.cols, fc.b_cols);
    cfg.column_loc = mode;
    const FloatMatrix grad_b =
        spatha::spmm_vnm_transposed(sparse, s, cfg);

    // Directional FD from the actually-rounded fp16 perturbations.
    HalfMatrix b_plus(fc.cols, fc.b_cols), b_minus(fc.cols, fc.b_cols);
    FloatMatrix delta(fc.cols, fc.b_cols);
    const float h = 0.02f;
    for (std::size_t i = 0; i < fc.b.size(); ++i) {
      const float v = fc.b.flat()[i].to_float();
      const float d = rng.normal();
      b_plus.flat()[i] = half_t(v + h * d);
      b_minus.flat()[i] = half_t(v - h * d);
      delta.flat()[i] =
          b_plus.flat()[i].to_float() - b_minus.flat()[i].to_float();
    }
    const double fd =
        inner_cs(s_f, spatha::spmm_vnm(sparse, b_plus, cfg)) -
        inner_cs(s_f, spatha::spmm_vnm(sparse, b_minus, cfg));
    const double an = inner_cs(grad_b, delta);
    EXPECT_LT(grad_rel_err(fd, an), 1e-2) << "mode=" << int(mode);
  }
}

TEST_P(GradFuzz, SddmmIsAdjointOfForwardValuesBothModes) {
  // f(vals) = <S, spmm_vnm(A(vals), B, mode)>  =>
  //   df/dvals = sddmm_vnm(A, S, B^T, mode) slot by slot.
  const FuzzCase fc = FuzzCase::draw(11000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  Rng rng(11100 + std::size_t(GetParam()));
  const HalfMatrix s = random_half_matrix(fc.rows, fc.b_cols, rng, 0.1f);
  const FloatMatrix s_f = to_float(s);
  const HalfMatrix bt = transpose(fc.b);

  for (const spatha::ColumnLocMode mode :
       {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
    spatha::SpmmConfig cfg = spatha::select_config_heuristic(
        fc.cfg, fc.rows, fc.cols, fc.b_cols);
    cfg.column_loc = mode;
    const VnmMatrix grad_vals = spatha::sddmm_vnm(sparse, s, bt, cfg);

    // Perturb the compressed values directly (zero slots are padding —
    // the kernels skip them, so they stay untouched).
    std::vector<half_t> vp = sparse.values(), vm = sparse.values();
    std::vector<float> delta(vp.size(), 0.0f);
    const float h = 0.02f;
    for (std::size_t i = 0; i < vp.size(); ++i) {
      if (vp[i].is_zero()) continue;
      const float v = vp[i].to_float();
      const float d = rng.normal();
      vp[i] = half_t(v + h * d);
      vm[i] = half_t(v - h * d);
      // A perturbed value landing on exact zero would change the
      // kernels' skip set; nudge it off zero.
      if (vp[i].is_zero()) vp[i] = half_t(v + 2.0f * h * std::fabs(d) + h);
      if (vm[i].is_zero()) vm[i] = half_t(v - 2.0f * h * std::fabs(d) - h);
      delta[i] = vp[i].to_float() - vm[i].to_float();
    }
    const VnmMatrix a_plus = VnmMatrix::from_parts(
        fc.cfg, fc.rows, fc.cols, vp, sparse.m_indices(),
        sparse.column_locs());
    const VnmMatrix a_minus = VnmMatrix::from_parts(
        fc.cfg, fc.rows, fc.cols, vm, sparse.m_indices(),
        sparse.column_locs());
    const double fd =
        inner_cs(s_f, spatha::spmm_vnm(a_plus, fc.b, cfg)) -
        inner_cs(s_f, spatha::spmm_vnm(a_minus, fc.b, cfg));
    double an = 0.0;
    for (std::size_t i = 0; i < delta.size(); ++i)
      an += double(grad_vals.values()[i].to_float()) * double(delta[i]);
    EXPECT_LT(grad_rel_err(fd, an), 1e-2) << "mode=" << int(mode);
  }
}

TEST_P(GradFuzz, LinearBackwardFiniteDifference) {
  // Dense and sparse Linear::backward against directional FD of the
  // half-precision forward, over the fuzzed ragged geometry.
  const FuzzCase fc = FuzzCase::draw(12000 + std::size_t(GetParam()));
  Rng rng(12100 + std::size_t(GetParam()));
  const std::size_t tokens = 1 + rng.uniform_index(16);
  const HalfMatrix x = random_half_matrix(fc.cols, tokens, rng, 0.5f);
  FloatMatrix t(fc.rows, tokens);
  for (auto& v : t.flat()) v = 0.1f * rng.normal();

  std::vector<float> bias(fc.rows);
  for (auto& v : bias) v = 0.1f * rng.normal();

  for (const bool sparse : {false, true}) {
    transformer::Linear layer(fc.dense, bias);
    if (sparse) layer.sparsify(fc.cfg);

    const auto loss = [&](const HalfMatrix& xx) {
      const HalfMatrix y = layer.forward(xx);
      double acc = 0.0;
      for (std::size_t i = 0; i < y.size(); ++i) {
        const double d =
            double(y.flat()[i].to_float()) - double(t.flat()[i]);
        acc += 0.5 * d * d;
      }
      return acc;
    };
    const HalfMatrix y = layer.forward(x);
    FloatMatrix gy(fc.rows, tokens);
    for (std::size_t i = 0; i < gy.size(); ++i)
      gy.flat()[i] = y.flat()[i].to_float() - t.flat()[i];
    const transformer::Linear::Grads g = layer.backward(x, gy);

    // Directional FD aggregated over several directions (RMS of the
    // disagreement over the RMS analytic derivative): a single direction
    // can land where the derivative nearly cancels, turning the fp16
    // noise floor into an arbitrary relative error. The loss is
    // quadratic in x and W, so central differences carry no curvature
    // error and a generous step safely drowns the rounding noise.
    const float h = 0.1f;
    const int dirs = 4;

    double num_x = 0.0, den_x = 0.0;
    for (int k = 0; k < dirs; ++k) {
      HalfMatrix xp(fc.cols, tokens), xm(fc.cols, tokens);
      FloatMatrix dx(fc.cols, tokens);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float v = x.flat()[i].to_float();
        const float d = rng.normal();
        xp.flat()[i] = half_t(v + h * d);
        xm.flat()[i] = half_t(v - h * d);
        dx.flat()[i] = xp.flat()[i].to_float() - xm.flat()[i].to_float();
      }
      const double fd_x = loss(xp) - loss(xm);
      const double an_x = inner_cs(g.input, dx);
      num_x += (fd_x - an_x) * (fd_x - an_x);
      den_x += an_x * an_x;
    }
    EXPECT_LT(std::sqrt(num_x / std::max(den_x, 1e-12)), 1e-2)
        << "sparse=" << sparse << " (input)";

    // Weight directions (surviving coordinates only when sparse).
    const auto loss_of = [&](const transformer::Linear& l) {
      const HalfMatrix yy = l.forward(x);
      double acc = 0.0;
      for (std::size_t i = 0; i < yy.size(); ++i) {
        const double d =
            double(yy.flat()[i].to_float()) - double(t.flat()[i]);
        acc += 0.5 * d * d;
      }
      return acc;
    };
    const HalfMatrix w0 =
        sparse ? layer.sparse_weight().to_dense() : layer.dense_weight();
    double num_w = 0.0, den_w = 0.0;
    for (int k = 0; k < dirs; ++k) {
      HalfMatrix wp = w0, wm = w0;
      FloatMatrix dw(fc.rows, fc.cols);
      for (std::size_t i = 0; i < w0.size(); ++i) {
        if (sparse && w0.flat()[i].is_zero()) continue;
        const float v = w0.flat()[i].to_float();
        const float d = rng.normal();
        wp.flat()[i] = half_t(v + h * d);
        wm.flat()[i] = half_t(v - h * d);
        dw.flat()[i] = wp.flat()[i].to_float() - wm.flat()[i].to_float();
      }
      transformer::Linear lp(wp, bias), lm(wm, bias);
      if (sparse) {
        lp.sparsify(fc.cfg);
        lm.sparsify(fc.cfg);
      }
      const double fd_w = loss_of(lp) - loss_of(lm);
      const double an_w = inner_cs(g.weight, dw);
      num_w += (fd_w - an_w) * (fd_w - an_w);
      den_w += an_w * an_w;
    }
    EXPECT_LT(std::sqrt(num_w / std::max(den_w, 1e-12)), 1e-2)
        << "sparse=" << sparse << " (weight)";
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, GradFuzz, ::testing::Range(0, 10));

// ----------------------------------------------------- quantization
//
// The int8/fp8 containers share the V:N:M structure verbatim, so the
// laws here are about the values only: symmetric int8 round-trips
// within half a row scale, fp8 decode is exact (the loss happened at
// encode time), zero rows stay exactly zero with a zero scale, and the
// largest magnitude in every row saturates to the +-127 codes. Kernel
// parity (fast == scalar, bit for bit) rides the same fuzzed geometry
// as the gradient checks above.

using quant::Fp8VnmMatrix;
using quant::QuantizedVnmMatrix;
using quant::spmm_vnm_fp8;
using quant::spmm_vnm_fp8_scalar;
using quant::spmm_vnm_i8;
using quant::spmm_vnm_i8_scalar;

class QuantFuzz : public ::testing::TestWithParam<int> {
  ::venom::detail::ForcePooled pooled_;  // keep the chunked path under test
};

TEST_P(QuantFuzz, Int8RoundTripBoundedByHalfScale) {
  const FuzzCase fc = FuzzCase::draw(13000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(sparse);
  const VnmMatrix back = q.dequantize();

  // Structure is shared untouched.
  EXPECT_EQ(back.m_indices(), sparse.m_indices());
  EXPECT_EQ(back.column_locs(), sparse.column_locs());
  ASSERT_EQ(back.values().size(), sparse.values().size());

  for (std::size_t r = 0; r < sparse.rows(); ++r) {
    const float scale = q.row_scale(r);
    const std::size_t per_row = sparse.values().size() / sparse.rows();
    for (std::size_t i = 0; i < per_row; ++i) {
      const float orig = sparse.values()[r * per_row + i].to_float();
      const float dq = back.values()[r * per_row + i].to_float();
      // Half a quantization step, plus the fp16 rounding of the
      // dequantized product (one ulp at that magnitude).
      const float tol = 0.5f * scale + 2e-3f * std::fabs(orig) + 1e-7f;
      EXPECT_NEAR(dq, orig, tol) << "r=" << r << " i=" << i;
      // Exact zeros survive quantization exactly (structure law: the
      // kernels' skip set must not change).
      if (orig == 0.0f) {
        EXPECT_EQ(dq, 0.0f);
      }
    }
  }
}

TEST_P(QuantFuzz, Int8ZeroRowsGetZeroScaleAndStayZero) {
  FuzzCase fc = FuzzCase::draw(14000 + std::size_t(GetParam()));
  // Kill a deterministic subset of rows entirely.
  for (std::size_t r = 0; r < fc.rows; r += 2)
    for (std::size_t c = 0; c < fc.cols; ++c) fc.dense(r, c) = half_t(0.0f);
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(sparse);
  const std::size_t per_row = q.values().size() / fc.rows;
  for (std::size_t r = 0; r < fc.rows; r += 2) {
    EXPECT_EQ(q.row_scale(r), 0.0f) << "r=" << r;
    for (std::size_t i = 0; i < per_row; ++i)
      EXPECT_EQ(q.values()[r * per_row + i], 0) << "r=" << r;
  }
  // And the round trip keeps them zero.
  const VnmMatrix back = q.dequantize();
  for (std::size_t r = 0; r < fc.rows; r += 2)
    for (std::size_t i = 0; i < per_row; ++i)
      EXPECT_TRUE(back.values()[r * per_row + i].is_zero());
}

TEST_P(QuantFuzz, Int8RowMaximaSaturateToFullCode) {
  const FuzzCase fc = FuzzCase::draw(15000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(sparse);
  const std::size_t per_row = sparse.values().size() / sparse.rows();
  for (std::size_t r = 0; r < sparse.rows(); ++r) {
    float max_abs = 0.0f;
    int max_code = 0;
    for (std::size_t i = 0; i < per_row; ++i) {
      const float v =
          std::fabs(sparse.values()[r * per_row + i].to_float());
      max_abs = std::max(max_abs, v);
      max_code = std::max<int>(
          max_code, std::abs(int(q.values()[r * per_row + i])));
    }
    if (max_abs == 0.0f) continue;
    // The row maximum maps to the extreme code, and nothing overflows
    // past it: the symmetric scheme never emits -128.
    EXPECT_EQ(max_code, 127) << "r=" << r;
  }
}

TEST_P(QuantFuzz, Fp8DecodeThenEncodeIsIdentity) {
  const FuzzCase fc = FuzzCase::draw(16000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    const Fp8VnmMatrix q = Fp8VnmMatrix::quantize(sparse, fmt);
    // dequantize() is exact, so re-encoding reproduces the codes.
    const Fp8VnmMatrix again = Fp8VnmMatrix::quantize(q.dequantize(), fmt);
    EXPECT_EQ(again.values(), q.values())
        << "format=" << to_string(fmt);
  }
}

TEST_P(QuantFuzz, KernelParityInt8BothModes) {
  const FuzzCase fc = FuzzCase::draw(17000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(sparse);
  for (const spatha::ColumnLocMode mode :
       {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
    spatha::SpmmConfig cfg = spatha::select_config_heuristic(
        fc.cfg, fc.rows, fc.cols, fc.b_cols);
    cfg.column_loc = mode;
    const FloatMatrix fast = spmm_vnm_i8(q, fc.b, cfg);
    const FloatMatrix oracle = spmm_vnm_i8_scalar(q, fc.b, mode);
    ASSERT_EQ(fast.size(), oracle.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
      ASSERT_EQ(fast.flat()[i], oracle.flat()[i])
          << "mode=" << int(mode) << " i=" << i;
  }
}

// The same parity at shapes that reach the int8 SpMM's 16 x 16 AMX tiles
// where the process runs them (V >= 16, at least 16 groups per K panel,
// C >= 16), with random row, column and group tails; elsewhere it runs
// the vector body at these shapes.
TEST_P(QuantFuzz, KernelParityInt8OnTheTiles) {
  Rng rng(19000 + std::size_t(GetParam()));
  const std::size_t vs[] = {16, 24, 32, 48};
  const std::size_t ms[] = {4, 5, 8, 10};
  const VnmConfig fmt{vs[rng.uniform_index(std::size(vs))],
                      1 + rng.uniform_index(2),
                      ms[rng.uniform_index(std::size(ms))]};
  const std::size_t rows = fmt.v * (1 + rng.uniform_index(2));
  const std::size_t cols = fmt.m * (16 + rng.uniform_index(40));
  const std::size_t b_cols = 16 + rng.uniform_index(80);
  const QuantizedVnmMatrix q =
      QuantizedVnmMatrix::quantize(VnmMatrix::from_dense_magnitude(
          random_half_matrix(rows, cols, rng, 0.1f), fmt));
  const HalfMatrix b = random_half_matrix(cols, b_cols, rng, 0.1f);
  for (const spatha::ColumnLocMode mode :
       {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
    spatha::SpmmConfig cfg = spatha::select_config_heuristic(
        fmt, rows, cols, b_cols, ops::Dtype::kI8);
    cfg.column_loc = mode;
    const FloatMatrix fast = spmm_vnm_i8(q, b, cfg);
    const FloatMatrix oracle = spmm_vnm_i8_scalar(q, b, mode);
    ASSERT_EQ(fast.size(), oracle.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
      ASSERT_EQ(fast.flat()[i], oracle.flat()[i])
          << "V=" << fmt.v << " N=" << fmt.n << " M=" << fmt.m
          << " R=" << rows << " K=" << cols << " C=" << b_cols
          << " mode=" << int(mode) << " i=" << i;
  }
}

TEST_P(QuantFuzz, KernelParityFp8BothModesBothFormats) {
  const FuzzCase fc = FuzzCase::draw(18000 + std::size_t(GetParam()));
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(fc.dense, fc.cfg);
  for (const Fp8Format fmt : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    const Fp8VnmMatrix q = Fp8VnmMatrix::quantize(sparse, fmt);
    for (const spatha::ColumnLocMode mode :
         {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
      spatha::SpmmConfig cfg = spatha::select_config_heuristic(
          fc.cfg, fc.rows, fc.cols, fc.b_cols);
      cfg.column_loc = mode;
      const FloatMatrix fast = spmm_vnm_fp8(q, fc.b, cfg);
      const FloatMatrix oracle = spmm_vnm_fp8_scalar(q, fc.b, mode);
      ASSERT_EQ(fast.size(), oracle.size());
      for (std::size_t i = 0; i < fast.size(); ++i)
        ASSERT_EQ(fast.flat()[i], oracle.flat()[i])
            << "format=" << to_string(fmt) << " mode=" << int(mode)
            << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, QuantFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace venom
