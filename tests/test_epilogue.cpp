// Tests for the fused-epilogue Spatha kernel and its row epilogue.
#include "spatha/epilogue.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "baselines/gemm.hpp"
#include "common/rng.hpp"
#include "spatha/spmm.hpp"

namespace venom::spatha {
namespace {

VnmMatrix random_vnm(std::size_t rows, std::size_t cols, VnmConfig cfg,
                     std::uint64_t seed) {
  Rng rng(seed);
  return VnmMatrix::from_dense_magnitude(random_half_matrix(rows, cols, rng),
                                         cfg);
}

float gelu_ref(float v) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  return 0.5f * v *
         (1.0f + std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v)));
}

TEST(Fused, NoEpilogueMatchesPlainSpmm) {
  Rng rng(1);
  const VnmMatrix a = random_vnm(16, 32, {4, 2, 8}, 2);
  const HalfMatrix b = random_half_matrix(32, 12, rng);
  const HalfMatrix fused = spmm_vnm_fused(a, b, {});
  const FloatMatrix plain = spmm_vnm(a, b);
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_EQ(fused.flat()[i].bits(), half_t(plain.flat()[i]).bits());
}

TEST(Fused, BiasIsPerRow) {
  Rng rng(2);
  const VnmMatrix a = random_vnm(8, 16, {4, 2, 8}, 3);
  const HalfMatrix b = random_half_matrix(16, 4, rng);
  std::vector<float> bias(8);
  for (std::size_t i = 0; i < 8; ++i) bias[i] = float(i) * 10.0f;
  Epilogue ep;
  ep.bias = bias;
  const HalfMatrix y = spmm_vnm_fused(a, b, ep);
  const FloatMatrix plain = spmm_vnm(a, b);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t n = 0; n < 4; ++n)
      EXPECT_NEAR(y(r, n).to_float(), plain(r, n) + bias[r],
                  0.05f + 0.01f * std::fabs(plain(r, n) + bias[r]));
}

TEST(Fused, ReluClampsNegatives) {
  Rng rng(3);
  const VnmMatrix a = random_vnm(8, 16, {4, 2, 8}, 4);
  const HalfMatrix b = random_half_matrix(16, 8, rng);
  Epilogue ep;
  ep.activation = Activation::kRelu;
  const HalfMatrix y = spmm_vnm_fused(a, b, ep);
  const FloatMatrix plain = spmm_vnm(a, b);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GE(y.flat()[i].to_float(), 0.0f);
    const float expect = std::max(0.0f, plain.flat()[i]);
    EXPECT_NEAR(y.flat()[i].to_float(), expect,
                0.01f + 0.01f * std::fabs(expect));
  }
}

TEST(Fused, GeluMatchesReference) {
  Rng rng(4);
  const VnmMatrix a = random_vnm(8, 16, {4, 2, 8}, 5);
  const HalfMatrix b = random_half_matrix(16, 8, rng);
  Epilogue ep;
  ep.activation = Activation::kGelu;
  const HalfMatrix y = spmm_vnm_fused(a, b, ep);
  const FloatMatrix plain = spmm_vnm(a, b);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float expect = gelu_ref(plain.flat()[i]);
    EXPECT_NEAR(y.flat()[i].to_float(), expect,
                0.01f + 0.02f * std::fabs(expect));
  }
}

TEST(Fused, BiasPlusActivationOrder) {
  // Activation applies AFTER the bias: relu(-5 + 10) = 5, not relu(-5)+10.
  HalfMatrix dense(2, 8);
  dense(0, 0) = half_t(-5.0f);  // single nonzero -> product -5 * b
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(dense, {2, 2, 8});
  HalfMatrix b(8, 1);
  for (std::size_t r = 0; r < 8; ++r) b(r, 0) = half_t(1.0f);
  std::vector<float> bias = {10.0f, 10.0f};
  Epilogue ep;
  ep.bias = bias;
  ep.activation = Activation::kRelu;
  const HalfMatrix y = spmm_vnm_fused(a, b, ep);
  EXPECT_FLOAT_EQ(y(0, 0).to_float(), 5.0f);
  EXPECT_FLOAT_EQ(y(1, 0).to_float(), 10.0f);
}

TEST(Fused, RejectsWrongBiasSize) {
  Rng rng(5);
  const VnmMatrix a = random_vnm(8, 16, {4, 2, 8}, 6);
  const HalfMatrix b = random_half_matrix(16, 4, rng);
  std::vector<float> bias(7);
  Epilogue ep;
  ep.bias = bias;
  EXPECT_THROW(spmm_vnm_fused(a, b, ep), Error);
}

TEST(Fused, RowEpilogueMatchesPerElementActivation) {
  // apply_epilogue is stage 3's one loop (the fused kernel and the ops
  // layer's generic fused path): vector body plus scalar tail, bit for bit
  // apply_activation(act, v + bias) per element, specials included.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> row = {inf,   -inf,  nan,    -nan,  0.0f,  -0.0f,
                            1e-40f, -1e-40f, 3.5f, -3.5f, 65504.0f, -0.7f};
  Rng rng(9);
  for (std::size_t i = row.size(); i < 37; ++i)
    row.push_back(rng.uniform(-8.0f, 8.0f));
  const std::vector<float> biases = {0.0f, -0.0f, 1.5f, -inf, nan};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (const Activation act :
       {Activation::kNone, Activation::kRelu, Activation::kGelu})
    for (std::size_t width = 0; width <= row.size(); ++width)
      for (std::size_t bi = 0; bi <= biases.size(); ++bi) {
        // bi == biases.size(): no bias vector at all.
        std::vector<float> bias(3, bi < biases.size() ? biases[bi] : 0.0f);
        Epilogue ep;
        ep.activation = act;
        if (bi < biases.size()) ep.bias = bias;
        std::vector<float> got(row.begin(), row.begin() + width);
        apply_epilogue(ep, 2, got.data(), width);
        for (std::size_t n = 0; n < width; ++n) {
          const float b = bi < biases.size() ? biases[bi] : 0.0f;
          const float want = apply_activation(act, row[n] + b);
          // NaN + NaN keeps one operand's payload, and which one depends
          // on the operand order the compiler picks for a commutative
          // add: only NaN-ness is defined there.
          if (std::isnan(row[n]) && std::isnan(b))
            EXPECT_EQ(std::isnan(got[n]), std::isnan(want)) << n;
          else
            EXPECT_EQ(bits(got[n]), bits(want))
                << "act " << int(act) << " width " << width << " n " << n
                << " bias " << b;
        }
      }
}

}  // namespace
}  // namespace venom::spatha
