// Tests for the weight fingerprint and the per-weight prepared-operand
// cache (ops::PlanCache), plus the Linear backward pass that builds on
// the transposed kernel.
#include "ops/plan_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/gemm.hpp"
#include "common/rng.hpp"
#include "ops/ops.hpp"
#include "spatha/plan.hpp"
#include "spatha/spmm.hpp"
#include "transformer/linear.hpp"

namespace venom::ops {
namespace {

using spatha::PackedVnm;
using spatha::spmm_vnm_reference;
using spatha::weight_fingerprint;

std::shared_ptr<const VnmMatrix> random_weight(std::size_t rows,
                                               std::size_t cols,
                                               VnmConfig fmt, Rng& rng) {
  return std::make_shared<const VnmMatrix>(VnmMatrix::from_dense_magnitude(
      random_half_matrix(rows, cols, rng), fmt));
}

TEST(WeightFingerprint, SensitiveToContentShapeAndFormat) {
  Rng rng(5);
  const HalfMatrix dense = random_half_matrix(16, 32, rng);
  const VnmConfig fmt{4, 2, 8};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(dense, fmt);
  EXPECT_EQ(weight_fingerprint(a), weight_fingerprint(VnmMatrix(a)));
  HalfMatrix changed = a.to_dense();
  for (half_t& v : changed.flat())
    if (!v.is_zero()) {
      v = half_t(2.0f * v.to_float());
      break;
    }
  EXPECT_NE(weight_fingerprint(a),
            weight_fingerprint(VnmMatrix::compress(changed, fmt)));
  // The same dense values laid out in another shape.
  HalfMatrix reshaped(32, 16);
  std::copy(dense.flat().begin(), dense.flat().end(),
            reshaped.flat().begin());
  EXPECT_NE(weight_fingerprint(a), weight_fingerprint(
                                       VnmMatrix::from_dense_magnitude(
                                           reshaped, fmt)));
  // The same weight in another V:N:M format.
  EXPECT_NE(weight_fingerprint(a), weight_fingerprint(
                                       VnmMatrix::from_dense_magnitude(
                                           dense, VnmConfig{8, 2, 8})));
}

TEST(PlanCache, OneEntryPerWeightAtEveryWidth) {
  // Everything dispatch prepares from a weight is per weight: every
  // batch width, and the int8 datapath too, reads one entry with one
  // packed form.
  Rng rng(14);
  ExecContext ctx;
  const auto w = random_weight(48, 64, {16, 2, 8}, rng);
  const std::uint64_t fp = weight_fingerprint(*w);
  for (const std::size_t width : {1, 7, 14, 15, 16, 64}) {
    const HalfMatrix x = random_half_matrix(64, width, rng);
    EXPECT_EQ(matmul(MatmulArgs::make(w, fp, x), ctx),
              spmm_vnm_reference(*w, x))
        << "C = " << width;
  }
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
  EXPECT_EQ(ctx.plan_cache().hits(), 5u);
  EXPECT_EQ(ctx.plan_cache().size(), 1u);
  const std::weak_ptr<const PackedVnm> packed = ctx.plan_cache().packed(w, fp);

  const HalfMatrix x = random_half_matrix(64, 16, rng);
  const MatmulArgs args = MatmulArgs::make(w, fp, x);
  {
    const ScopedBackend forced("vnm-int8");
    const FloatMatrix first = matmul(args, ctx);
    EXPECT_EQ(matmul(args, ctx), first);
  }
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
  EXPECT_EQ(ctx.plan_cache().size(), 1u);
  // The int8 image joined the entry; the packed form is still the one.
  EXPECT_EQ(ctx.plan_cache().packed(w, fp), packed.lock());
  // Any width goes, but B's depth must match the weight's.
  EXPECT_THROW(matmul(MatmulArgs::make(w, fp, HalfMatrix(32, 16)), ctx),
               Error);
}

TEST(PlanCache, HitsOnRepeatAndEvictsLru) {
  Rng rng(6);
  PlanCache cache(2);
  const VnmConfig fmt{4, 2, 8};
  const auto w1 = random_weight(16, 32, fmt, rng);
  const auto w2 = random_weight(16, 32, fmt, rng);
  const auto w3 = random_weight(16, 32, fmt, rng);
  const auto fp = [](const auto& w) { return weight_fingerprint(*w); };

  const auto first = cache.packed(w1, fp(w1));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.packed(w1, fp(w1)), first);  // same object
  EXPECT_EQ(cache.hits(), 1u);

  cache.packed(w2, fp(w2));
  cache.packed(w1, fp(w1));  // w1 is now the most recent
  cache.packed(w3, fp(w3));  // evicts w2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.packed(w1, fp(w1)), first);
  EXPECT_EQ(cache.misses(), 3u);
  cache.packed(w2, fp(w2));
  EXPECT_EQ(cache.misses(), 4u);  // w2 was prepared again
}

TEST(PlanCache, EvictionFreesTheWeightsImages) {
  Rng rng(16);
  PlanCache cache(1);
  auto w1 = random_weight(16, 32, {4, 2, 8}, rng);
  const auto w2 = random_weight(16, 32, {4, 2, 8}, rng);
  const std::weak_ptr<const VnmMatrix> weight = w1;
  const std::weak_ptr<const PackedVnm> packed =
      cache.packed(w1, weight_fingerprint(*w1));
  const std::weak_ptr<const quant::QuantizedVnmMatrix> i8 =
      cache.int8(w1, weight_fingerprint(*w1));
  w1.reset();
  EXPECT_FALSE(packed.expired());
  EXPECT_FALSE(i8.expired());
  EXPECT_FALSE(weight.expired());

  cache.packed(w2, weight_fingerprint(*w2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(packed.expired());
  EXPECT_TRUE(i8.expired());
  EXPECT_TRUE(weight.expired());
}

TEST(PlanCache, AdoptsTheHoldersPackedOperand) {
  // A holder that packed its weight already (transformer::Linear) hands
  // the packed form in; every width runs on it, packing nothing.
  Rng rng(15);
  ExecContext ctx;
  const auto w = random_weight(32, 32, {16, 2, 8}, rng);
  const auto packed = std::make_shared<const PackedVnm>(w);
  const std::uint64_t fp = weight_fingerprint(*w);
  for (const std::size_t width : {1, 40}) {
    const HalfMatrix x = random_half_matrix(32, width, rng);
    MatmulArgs args = MatmulArgs::make(w, fp, x);
    if (width == 1) args.vnm_packed = packed;
    EXPECT_EQ(matmul(args, ctx), spmm_vnm_reference(*w, x));
  }
  EXPECT_EQ(ctx.plan_cache().packed(w, fp), packed);
}

TEST(PlanCache, ConcurrentFirstUseAcrossDatapaths) {
  // Four threads make the first use of one weight at once, two on the
  // fp16 backend and two on the int8 one (called directly: the forced
  // backend override is process-wide).
  Rng rng(13);
  ExecContext ctx;
  const auto w = random_weight(32, 64, {16, 2, 8}, rng);
  const std::uint64_t fp = weight_fingerprint(*w);
  const HalfMatrix x = random_half_matrix(64, 16, rng);
  const MatmulArgs args = MatmulArgs::make(w, fp, x);
  const Matmul* backends[] = {BackendRegistry::instance().find("vnm-fast"),
                              BackendRegistry::instance().find("vnm-int8")};
  constexpr std::size_t kThreads = 4, kCalls = 8;
  std::vector<std::vector<FloatMatrix>> out(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t i = 0; i < kCalls; ++i)
        out[t].push_back(backends[t % 2]->run(args, ctx));
    });
  for (auto& t : threads) t.join();

  const quant::QuantizedVnmMatrix i8 = quant::QuantizedVnmMatrix::quantize(*w);
  const FloatMatrix want[] = {spmm_vnm_reference(*w, x),
                              backends[1]->run(MatmulArgs::make(i8, x), ctx)};
  for (std::size_t t = 0; t < kThreads; ++t)
    for (const FloatMatrix& y : out[t]) EXPECT_EQ(y, want[t % 2]);
  EXPECT_EQ(ctx.plan_cache().size(), 1u);
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
}

TEST(PlanCache, RejectsZeroCapacity) { EXPECT_THROW(PlanCache(0), Error); }

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
}  // namespace venom::ops
