// Tests for the plan-based execution API and plan cache, plus the
// Linear backward pass that builds on the transposed kernel.
#include "spatha/plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/gemm.hpp"
#include "common/rng.hpp"
#include "spatha/spmm.hpp"
#include "transformer/linear.hpp"

namespace venom::spatha {
namespace {

SpmmProblem problem(std::size_t r, std::size_t k, std::size_t c,
                    VnmConfig fmt) {
  return SpmmProblem{.rows = r, .cols = k, .b_cols = c, .format = fmt};
}

TEST(SpmmPlan, BuildAndExecuteMatchesDirectKernel) {
  Rng rng(1);
  const HalfMatrix w = random_half_matrix(32, 64, rng);
  const SpmmProblem p = problem(32, 64, 16, {8, 2, 8});
  const SpmmPlan plan = SpmmPlan::build(p, w);
  const HalfMatrix b = random_half_matrix(64, 16, rng);
  EXPECT_LT(rel_fro_error(plan.execute(b),
                          spmm_vnm(plan.compressed(), b)),
            1e-6f);
}

TEST(SpmmPlan, FusedExecution) {
  Rng rng(2);
  const HalfMatrix w = random_half_matrix(16, 32, rng);
  const SpmmProblem p = problem(16, 32, 8, {4, 2, 8});
  const SpmmPlan plan = SpmmPlan::build(p, w);
  const HalfMatrix b = random_half_matrix(32, 8, rng);
  Epilogue ep;
  ep.activation = Activation::kRelu;
  const HalfMatrix y = plan.execute_fused(b, ep);
  for (auto v : y.flat()) EXPECT_GE(v.to_float(), 0.0f);
}

TEST(SpmmPlan, ValidatesShapes) {
  Rng rng(3);
  const HalfMatrix w = random_half_matrix(32, 64, rng);
  EXPECT_THROW(SpmmPlan::build(problem(32, 32, 16, {8, 2, 8}), w), Error);
  const SpmmPlan plan = SpmmPlan::build(problem(32, 64, 16, {8, 2, 8}), w);
  EXPECT_THROW(plan.execute(HalfMatrix(64, 8)), Error);   // wrong C
  EXPECT_THROW(plan.execute(HalfMatrix(32, 16)), Error);  // wrong K
}

TEST(SpmmPlan, FromCompressedChecksConsistency) {
  Rng rng(4);
  const VnmMatrix c = VnmMatrix::from_dense_magnitude(
      random_half_matrix(16, 32, rng), {4, 2, 8});
  EXPECT_NO_THROW(SpmmPlan::from_compressed(problem(16, 32, 8, {4, 2, 8}),
                                            c));
  EXPECT_THROW(SpmmPlan::from_compressed(problem(16, 32, 8, {4, 2, 16}), c),
               Error);
}

TEST(WeightFingerprint, SensitiveToContentAndShape) {
  Rng rng(5);
  const HalfMatrix a = random_half_matrix(8, 8, rng);
  HalfMatrix b = a;
  EXPECT_EQ(weight_fingerprint(a), weight_fingerprint(b));
  b(3, 3) = b(3, 3) + half_t(1.0f);
  EXPECT_NE(weight_fingerprint(a), weight_fingerprint(b));
  // Same bytes, different shape.
  HalfMatrix c(4, 16);
  std::copy(a.flat().begin(), a.flat().end(), c.flat().begin());
  EXPECT_NE(weight_fingerprint(a), weight_fingerprint(c));
}

TEST(PlanCache, HitsOnRepeatAndEvictsLru) {
  Rng rng(6);
  PlanCache cache(2);
  const SpmmProblem p = problem(16, 32, 8, {4, 2, 8});
  const HalfMatrix w1 = random_half_matrix(16, 32, rng);
  const HalfMatrix w2 = random_half_matrix(16, 32, rng);
  const HalfMatrix w3 = random_half_matrix(16, 32, rng);

  const auto plan1 = cache.get_or_build(p, w1);
  EXPECT_EQ(cache.misses(), 1u);
  const auto plan1_again = cache.get_or_build(p, w1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(plan1.get(), plan1_again.get());  // same object

  cache.get_or_build(p, w2);
  cache.get_or_build(p, w3);  // evicts w1 (capacity 2)
  EXPECT_EQ(cache.size(), 2u);
  cache.get_or_build(p, w1);
  EXPECT_EQ(cache.misses(), 4u);  // w1 was rebuilt
}

TEST(PlanCache, DistinguishesProblems) {
  Rng rng(7);
  PlanCache cache(4);
  const HalfMatrix w = random_half_matrix(16, 32, rng);
  cache.get_or_build(problem(16, 32, 8, {4, 2, 8}), w);
  cache.get_or_build(problem(16, 32, 16, {4, 2, 8}), w);  // different C
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, RejectsZeroCapacity) {
  EXPECT_THROW(PlanCache(0), Error);
}

TEST(PlanCache, CompressedOperandsHitWithoutRepruning) {
  Rng rng(12);
  PlanCache cache(4);
  const SpmmProblem p = problem(16, 32, 8, {4, 2, 8});
  const VnmMatrix w = VnmMatrix::from_dense_magnitude(
      random_half_matrix(16, 32, rng), {4, 2, 8});
  const auto plan = cache.get_or_build(p, w);
  const auto again = cache.get_or_build(p, w);
  EXPECT_EQ(plan.get(), again.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // The cached plan executes on the compressed operand as-is.
  const HalfMatrix b = random_half_matrix(32, 8, rng);
  EXPECT_EQ(max_abs_diff(plan->execute(b), spmm_vnm(w, b)), 0.0f);
}

TEST(PlanCache, WidthsShareOnePackedOperandUntilTheLastPlanGoes) {
  // The packed form is per weight: plans for one weight at two batch
  // widths run on the same PackedVnm, and evicting the weight's last plan
  // releases it.
  Rng rng(14);
  PlanCache cache(2);
  const VnmConfig fmt{4, 2, 8};
  const auto make = [&] {
    return std::make_shared<const VnmMatrix>(VnmMatrix::from_dense_magnitude(
        random_half_matrix(16, 32, rng), fmt));
  };
  const auto w = make();
  const std::uint64_t fp = weight_fingerprint(*w);
  auto p16 = cache.get_or_build(problem(16, 32, 16, fmt), w, fp);
  auto p3 = cache.get_or_build(problem(16, 32, 3, fmt), w, fp);
  ASSERT_NE(p16->packed(), nullptr);
  EXPECT_EQ(p16->packed().get(), p3->packed().get());
  const HalfMatrix b = random_half_matrix(32, 3, rng);
  EXPECT_EQ(p3->execute(b), spmm_vnm_reference(*w, b));

  const std::weak_ptr<const PackedVnm> packed = p16->packed();
  p16.reset();
  p3.reset();
  const auto w2 = make();
  cache.get_or_build(problem(16, 32, 16, fmt), w2, weight_fingerprint(*w2));
  EXPECT_FALSE(packed.expired());  // the width-3 plan is still cached
  const auto w3 = make();
  cache.get_or_build(problem(16, 32, 16, fmt), w3, weight_fingerprint(*w3));
  EXPECT_TRUE(packed.expired());
}

TEST(PlanCache, AdoptsTheHoldersPackedOperand) {
  // A holder that packed its weight already (transformer::Linear) hands
  // the packed form in; every width's plan runs on it, packing nothing.
  Rng rng(15);
  PlanCache cache(4);
  const auto w = std::make_shared<const VnmMatrix>(
      VnmMatrix::from_dense_magnitude(random_half_matrix(32, 32, rng),
                                      {16, 2, 8}));
  const auto packed = std::make_shared<const PackedVnm>(w);
  EXPECT_EQ(&packed->source(), w.get());
  const std::uint64_t fp = weight_fingerprint(*w);
  const auto p1 = cache.get_or_build(problem(32, 32, 1, w->config()), w, fp,
                                     nullptr, packed);
  const auto p40 = cache.get_or_build(problem(32, 32, 40, w->config()), w,
                                      fp);
  EXPECT_EQ(p1->packed(), packed);
  EXPECT_EQ(p40->packed(), packed);
  for (const std::size_t width : {1, 40}) {
    const HalfMatrix b = random_half_matrix(32, width, rng);
    const auto& plan = width == 1 ? p1 : p40;
    EXPECT_EQ(plan->execute(b), spmm_vnm_reference(*w, b));
  }
}

TEST(PlanCache, ConcurrentGetOrBuildIsSafe) {
  Rng rng(13);
  PlanCache cache(8);
  const VnmMatrix w = VnmMatrix::from_dense_magnitude(
      random_half_matrix(16, 32, rng), {4, 2, 8});
  std::vector<std::thread> threads;
  std::atomic<std::size_t> served{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < 32; ++i) {
        const auto plan =
            cache.get_or_build(problem(16, 32, 8, {4, 2, 8}), w);
        if (plan != nullptr) served.fetch_add(1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(served.load(), 128u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SpmmPlan, ScratchPoolWarmsAcrossExecutions) {
  Rng rng(14);
  const HalfMatrix w = random_half_matrix(32, 64, rng);
  const SpmmProblem p = problem(32, 64, 16, {8, 2, 8});
  const SpmmPlan plan = SpmmPlan::build(p, w);
  const HalfMatrix b = random_half_matrix(64, 16, rng);
  const FloatMatrix first = plan.execute(b);
  for (int i = 0; i < 4; ++i) {
    const FloatMatrix again = plan.execute(b);
    for (std::size_t e = 0; e < first.size(); ++e)
      ASSERT_EQ(again.flat()[e], first.flat()[e]);
  }
  // The pool is bounded by peak chunk concurrency (runners + caller), not
  // by execution count: 5 runs must not mean 5x the scratch.
  EXPECT_GE(plan.scratch().created(), 1u);
  EXPECT_LE(plan.scratch().created(), ThreadPool::global().size() + 1);
}

// ---- Linear backward (uses the transposed kernel) -------------------------

TEST(LinearBackward, GradInputMatchesDenseBackward) {
  Rng rng(8);
  transformer::Linear lin = transformer::Linear::random(16, 32, rng);
  lin.sparsify({4, 2, 8});
  const HalfMatrix x = random_half_matrix(32, 6, rng);
  const FloatMatrix grad_y = random_float_matrix(16, 6, rng);
  const auto grads = lin.backward(x, grad_y);
  const FloatMatrix ref = gemm_dense(
      transpose(lin.sparse_weight().to_dense()), to_half(grad_y));
  EXPECT_LT(rel_fro_error(grads.input, ref), 1e-5f);
}

TEST(LinearBackward, FiniteDifferenceOnLoss) {
  // L = sum(y); dL/db = tokens, dL/dW = sum_t x^T broadcast. Verify both
  // against finite differences through the actual forward pass.
  Rng rng(9);
  transformer::Linear lin = transformer::Linear::random(4, 8, rng);
  const HalfMatrix x = random_half_matrix(8, 3, rng);
  FloatMatrix grad_y(4, 3, 1.0f);  // dL/dy for L = sum(y)
  const auto grads = lin.backward(x, grad_y);

  EXPECT_EQ(grads.bias.size(), 4u);
  for (float b : grads.bias) EXPECT_FLOAT_EQ(b, 3.0f);

  // grad_weight(o, i) = sum_t x(i, t).
  for (std::size_t o = 0; o < 4; ++o)
    for (std::size_t i = 0; i < 8; ++i) {
      float expect = 0.0f;
      for (std::size_t t = 0; t < 3; ++t) expect += x(i, t).to_float();
      EXPECT_NEAR(grads.weight(o, i), expect, 5e-2f);
    }
}

TEST(LinearBackward, MaskConfinesGradientToPattern) {
  Rng rng(10);
  transformer::Linear lin = transformer::Linear::random(16, 32, rng);
  lin.sparsify({4, 2, 8});
  FloatMatrix grad(16, 32, 1.0f);
  lin.mask_gradient_to_pattern(grad);
  const HalfMatrix pattern = lin.sparse_weight().to_dense();
  std::size_t alive = 0;
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 32; ++c) {
      if (pattern(r, c).is_zero()) {
        EXPECT_EQ(grad(r, c), 0.0f);
      } else {
        EXPECT_EQ(grad(r, c), 1.0f);
        ++alive;
      }
    }
  EXPECT_EQ(alive, 16u * 32 / 4);  // 2:8 density
}

TEST(LinearBackward, ShapeChecks) {
  Rng rng(11);
  transformer::Linear lin = transformer::Linear::random(4, 8, rng);
  EXPECT_THROW(lin.backward(HalfMatrix(8, 3), FloatMatrix(4, 2)), Error);
  EXPECT_THROW(lin.backward(HalfMatrix(4, 3), FloatMatrix(4, 3)), Error);
}

}  // namespace
}  // namespace venom::spatha
