// Parity tests for the high-throughput SpMM pipeline: the packed kernel
// (spmm_vnm, both its wide and narrow stage 2, plain and fused)
// must be bit-identical to both the naive oracle (spmm_vnm_reference) and
// the seed scalar path (spmm_vnm_scalar) — same fp32 accumulation order
// per output element — across widths, ragged shapes and both
// ColumnLocModes. Also covers the bulk
// fp16 converters and the chunked parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/spmm_24.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/thread_pool_testing.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/microkernel.hpp"
#include "spatha/spmm.hpp"

namespace venom::spatha {
namespace {

VnmMatrix random_vnm(std::size_t rows, std::size_t cols, VnmConfig cfg,
                     std::uint64_t seed) {
  Rng rng(seed);
  return VnmMatrix::from_dense_magnitude(random_half_matrix(rows, cols, rng),
                                         cfg);
}

// Shapes chosen so that B.cols() is not a multiple of block_c (ragged
// width tails shorter than the register strip) and the group count is not
// a multiple of groups_per_panel (ragged K panels).
struct Case {
  VnmConfig fmt;
  std::size_t rows, cols, b_cols;
  std::size_t block_k, block_c;
};

const Case kCases[] = {
    {{4, 2, 8}, 16, 80, 70, 16, 64},   // 10 groups, 2/panel; widths 64+6
    {{8, 2, 10}, 32, 110, 37, 30, 16}, // 11 groups, 3/panel (ragged)
    {{16, 2, 4}, 32, 64, 33, 12, 33},  // width 33 = 2 strips + tail 1
    {{2, 2, 5}, 8, 25, 19, 10, 7},     // M=5, sel=4, everything ragged
    {{4, 1, 2}, 8, 16, 20, 6, 9},      // M<4 degenerate (sel = M = 2)
};

SpmmConfig make_config(const Case& c) {
  SpmmConfig cfg = select_config(c.fmt, c.rows, c.cols, c.b_cols);
  cfg.block_k = c.block_k;
  cfg.block_c = c.block_c;
  return cfg;
}

TEST(SpmmFast, BitIdenticalToReferenceAcrossRaggedShapes) {
  const ::venom::detail::ForcePooled pooled;  // keep the chunked path under test
  std::uint64_t seed = 100;
  for (const Case& c : kCases) {
    Rng rng(seed + 1);
    const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, seed);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    const SpmmConfig cfg = make_config(c);

    const FloatMatrix fast = spmm_vnm(a, b, cfg);
    const FloatMatrix ref = spmm_vnm_reference(a, b);
    const FloatMatrix seed_path = spmm_vnm_scalar(a, b, cfg);
    EXPECT_EQ(fast, ref) << "fast != reference for " << cfg.describe();
    EXPECT_EQ(fast, seed_path) << "fast != seed scalar for "
                               << cfg.describe();
    seed += 7;
  }
}

TEST(SpmmFast, FixedColumnLocBitIdenticalToScalar) {
  // ColumnLocMode::kFixed reads selectors 0..sel-1 instead of the
  // column-loc metadata; the fast and seed paths must agree bit-for-bit
  // on the ablation too.
  std::uint64_t seed = 500;
  for (const Case& c : kCases) {
    Rng rng(seed + 1);
    const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, seed);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    SpmmConfig cfg = make_config(c);
    cfg.column_loc = ColumnLocMode::kFixed;
    EXPECT_EQ(spmm_vnm(a, b, cfg), spmm_vnm_scalar(a, b, cfg));
    seed += 7;
  }
}

TEST(SpmmFast, FixedColumnLocMatchesReferenceOnIdentitySelection) {
  // With the pattern confined to the first 4 columns of every M-group the
  // selection is the identity, so the kFixed ablation must equal the real
  // kernel and the reference exactly.
  Rng rng(13);
  HalfMatrix dense(8, 16);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t g = 0; g < 2; ++g)
      for (std::size_t c = 0; c < 4; ++c)
        dense(r, g * 8 + c) = half_t(rng.normal());
  const VnmConfig fmt{4, 2, 8};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(dense, fmt);
  const HalfMatrix b = random_half_matrix(16, 21, rng);
  SpmmConfig cfg = select_config(fmt, 8, 16, 21);
  cfg.block_c = 8;  // ragged widths 8, 8, 5
  cfg.column_loc = ColumnLocMode::kFixed;
  EXPECT_EQ(spmm_vnm(a, b, cfg), spmm_vnm_reference(a, b));
}

TEST(SpmmFast, FusedEpilogueMatchesHalfOfUnfused) {
  // With an empty epilogue the fused kernel is to_half(spmm_vnm(..)).
  Rng rng(31);
  const VnmConfig fmt{8, 2, 10};
  const VnmMatrix a = random_vnm(32, 110, fmt, 32);
  const HalfMatrix b = random_half_matrix(110, 37, rng);
  const SpmmConfig cfg = select_config(fmt, 32, 110, 37);
  const HalfMatrix fused = spmm_vnm_fused(a, b, Epilogue{}, cfg);
  const HalfMatrix expect = to_half(spmm_vnm(a, b, cfg));
  ASSERT_EQ(fused.rows(), expect.rows());
  ASSERT_EQ(fused.cols(), expect.cols());
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_EQ(fused.flat()[i].bits(), expect.flat()[i].bits()) << "at " << i;
}

// ---------------------------------------------------------------------------
// The packed kernel across widths: both stage-2 paths (the production
// choice and each one forced) and the fused epilogue against both
// oracles. A mismatch reports its first (row, col).

/// "" when equal bit for bit, else where and how they first differ.
template <class T>
std::string first_mismatch(const Matrix<T>& got, const Matrix<T>& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols())
    return "shape " + std::to_string(got.rows()) + "x" +
           std::to_string(got.cols()) + " vs " + std::to_string(want.rows()) +
           "x" + std::to_string(want.cols());
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c)
      if (std::memcmp(&got(r, c), &want(r, c), sizeof(T)) != 0) {
        std::ostringstream os;
        os << "first mismatch at (" << r << ", " << c << "): got "
           << float(got(r, c)) << ", want " << float(want(r, c));
        return os.str();
      }
  return "";
}

/// What the fused epilogue must produce: per element
/// to_half(apply_activation(act, acc + bias)).
HalfMatrix expected_fused(const FloatMatrix& acc, const Epilogue& ep) {
  HalfMatrix y(acc.rows(), acc.cols());
  for (std::size_t r = 0; r < acc.rows(); ++r)
    for (std::size_t c = 0; c < acc.cols(); ++c)
      y(r, c) = half_t(apply_activation(
          ep.activation, acc(r, c) + (ep.bias.empty() ? 0.0f : ep.bias[r])));
  return y;
}

/// Every packed entry point against spmm_vnm_reference and
/// spmm_vnm_scalar for one (a, b, cfg).
void expect_packed_matches_oracles(const VnmMatrix& a, const HalfMatrix& b,
                                   const SpmmConfig& cfg,
                                   const std::string& what) {
  const FloatMatrix ref = spmm_vnm_reference(a, b);
  ASSERT_EQ(first_mismatch(spmm_vnm_scalar(a, b, cfg), ref), "")
      << what << ": scalar oracle vs reference";
  EXPECT_EQ(first_mismatch(spmm_vnm(a, b, cfg), ref), "") << what;
  const PackedVnm packed(a);
  for (const detail::PackedPath path :
       {detail::PackedPath::kWide, detail::PackedPath::kNarrow})
    EXPECT_EQ(first_mismatch(detail::spmm_packed(packed, b, cfg, path), ref),
              "")
        << what << " path " << int(path);

  std::vector<float> bias(a.rows());
  for (std::size_t r = 0; r < bias.size(); ++r)
    bias[r] = 0.25f * static_cast<float>(int(r % 7) - 3);
  for (const Activation act :
       {Activation::kNone, Activation::kRelu, Activation::kGelu}) {
    Epilogue ep;
    ep.activation = act;
    ep.bias = bias;
    const HalfMatrix want = expected_fused(ref, ep);
    EXPECT_EQ(first_mismatch(spmm_vnm_fused(a, b, ep, cfg), want), "")
        << what << " fused act " << int(act);
    for (const detail::PackedPath path :
         {detail::PackedPath::kWide, detail::PackedPath::kNarrow})
      EXPECT_EQ(first_mismatch(
                    detail::spmm_packed_fused(packed, b, ep, cfg, path), want),
                "")
          << what << " fused act " << int(act) << " path " << int(path);
  }
}

TEST(SpmmFast, OnesIdentityRandomPrePass) {
  // Simple operands first: a layout fault shows on ones or the identity
  // before the random case mixes it with the arithmetic.
  const VnmConfig fmt{16, 2, 8};
  const std::size_t rows = 32, cols = 32;
  for (const std::size_t width : {1, 16, 64}) {
    Rng rng(width);
    HalfMatrix ones_a(rows, cols), eye_a(rows, cols), eye_b(cols, width),
        ones_b(cols, width);
    for (auto& v : ones_a.flat()) v = half_t(1.0f);
    for (auto& v : ones_b.flat()) v = half_t(1.0f);
    for (std::size_t i = 0; i < rows; ++i) eye_a(i, i) = half_t(1.0f);
    for (std::size_t i = 0; i < std::min(cols, width); ++i)
      eye_b(i, i) = half_t(1.0f);
    const struct {
      const char* name;
      HalfMatrix a, b;
    } inputs[] = {
        {"ones", ones_a, ones_b},
        {"identity", eye_a, eye_b},
        {"random", random_half_matrix(rows, cols, rng),
         random_half_matrix(cols, width, rng)},
    };
    for (const auto& in : inputs) {
      const VnmMatrix a = VnmMatrix::from_dense_magnitude(in.a, fmt);
      expect_packed_matches_oracles(
          a, in.b, select_config(fmt, rows, cols, width),
          std::string(in.name) + " C=" + std::to_string(width));
    }
  }
}

TEST(SpmmFast, WidthSweepMatchesOraclesOnBothPaths) {
  const ::venom::detail::ForcePooled pooled;  // keep the chunked path under test
  // C on both sides of the narrow/wide crossover, V of 16, 64 and 128;
  // one config as dispatch picks it and one with ragged K panels.
  static_assert(detail::kNarrowMaxWidth >= 7 && detail::kNarrowMaxWidth < 16);
  std::uint64_t seed = 900;
  for (const std::size_t v : {16, 64, 128})
    for (const std::size_t width : {1, 2, 3, 7, 15, 16, 17, 63, 64, 65}) {
      const VnmConfig fmt{v, 2, 8};
      const std::size_t rows = 2 * v, cols = 96;
      Rng rng(seed + 1);
      const VnmMatrix a = random_vnm(rows, cols, fmt, seed);
      const HalfMatrix b = random_half_matrix(cols, width, rng);
      SpmmConfig cfg = select_config(fmt, rows, cols, width);
      const std::string what =
          "V=" + std::to_string(v) + " C=" + std::to_string(width);
      expect_packed_matches_oracles(a, b, cfg, what);
      cfg.block_k = 40;  // 5 groups per panel: 5 + 5 + 2
      expect_packed_matches_oracles(a, b, cfg, what + " BSk=40");
      seed += 3;
    }
}

TEST(SpmmFast, RaggedFormatsAtNarrowWidthsOnBothPaths) {
  const ::venom::detail::ForcePooled pooled;  // keep the chunked path under test
  // The ragged kCases at widths under the crossover, plus one M-group
  // wider than any register (M = 32), so the narrow path's masked-gather
  // lookup runs on every lane width, and 16-row chunks that span several
  // block rows (V < 16) or end past the last row run on both paths.
  std::vector<Case> cases(std::begin(kCases), std::end(kCases));
  cases.push_back({{16, 2, 32}, 48, 128, 0, 64, 16});
  static_assert(detail::kNarrowMaxWidth >= 14);
  std::uint64_t seed = 1300;
  for (const Case& c : cases)
    for (const std::size_t width : {5, 14}) {
      Rng rng(seed + 1);
      const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, seed);
      const HalfMatrix b = random_half_matrix(c.cols, width, rng);
      SpmmConfig cfg = select_config(c.fmt, c.rows, c.cols, width);
      cfg.block_k = c.block_k;
      cfg.block_c = std::min(c.block_c, width);
      expect_packed_matches_oracles(
          a, b, cfg,
          std::to_string(c.fmt.v) + ":" + std::to_string(c.fmt.n) + ":" +
              std::to_string(c.fmt.m) + " C=" + std::to_string(width));
      seed += 5;
    }
}

TEST(SpmmFast, InfAndNanSelectedOnlyByZeroSlotsNeverReachTheOutput) {
  // One nonzero column per group: each row's second slot holds a zero
  // value that still names a B row. Those rows of B (when no nonzero
  // names them) hold inf / NaN; a kernel that multiplied a zero slot
  // (0 x inf = NaN) instead of skipping it would differ from the oracle.
  const VnmConfig fmt{16, 2, 8};
  const std::size_t rows = 32, cols = 64;
  Rng rng(77);
  HalfMatrix dense(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t g = 0; g < cols / fmt.m; ++g)
      dense(r, g * fmt.m + g % 3) = half_t(rng.normal() + 4.0f);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(dense, fmt);
  std::vector<bool> used(cols, false), zero_only(cols, false);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t g = 0; g < a.groups_per_row(); ++g)
      for (std::size_t j = 0; j < fmt.n; ++j)
        (a.value(r, g, j).is_zero() ? zero_only : used)[a.dense_column(
            r, g, j)] = true;
  const float poison[] = {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()};
  for (const std::size_t width : {1, 5, 16, 33}) {
    HalfMatrix b = random_half_matrix(cols, width, rng);
    std::size_t poisoned = 0;
    for (std::size_t k = 0; k < cols; ++k) {
      if (!zero_only[k] || used[k]) continue;
      for (std::size_t n = 0; n < width; ++n)
        b(k, n) = half_t(poison[(k + n) % 3]);
      ++poisoned;
    }
    ASSERT_GT(poisoned, 0u);
    const FloatMatrix ref = spmm_vnm_reference(a, b);
    for (const float x : ref.flat()) ASSERT_TRUE(std::isfinite(x));
    expect_packed_matches_oracles(a, b, select_config(fmt, rows, cols, width),
                                  "poisoned C=" + std::to_string(width));
  }
}

TEST(SpmmNm, BitIdenticalToSpmm24Baseline) {
  // The register-blocked N:M fast path must reproduce the scalar spmm_24
  // bit for bit (same per-element accumulation order) — it replaces it in
  // the dynamic-attention context matmul.
  for (const NmPattern pattern : {NmPattern{2, 4}, NmPattern{1, 2}}) {
    for (const std::size_t width : {8u, 37u, 70u}) {  // ragged strip tails
      Rng rng(17 + pattern.m + width);
      const NmMatrix a = NmMatrix::from_dense_magnitude(
          random_half_matrix(24, 32, rng), pattern);
      const HalfMatrix b = random_half_matrix(32, width, rng);
      const FloatMatrix fast = spmm_nm(a, b);
      const FloatMatrix base = spmm_24(a, b);
      ASSERT_EQ(fast.rows(), base.rows());
      ASSERT_EQ(fast.cols(), base.cols());
      for (std::size_t i = 0; i < fast.size(); ++i)
        ASSERT_EQ(fast.flat()[i], base.flat()[i])
            << pattern.n << ':' << pattern.m << " width " << width
            << " elem " << i;
    }
  }
}

TEST(SpmmNm, HandlesNonHardwarePatterns) {
  // spmm_24 is restricted to the shapes cuSparseLt accepts; the CPU fast
  // path has no such constraint. Check 2:8 against a dense reference.
  Rng rng(29);
  const NmPattern pattern{2, 8};
  const NmMatrix a = NmMatrix::from_dense_magnitude(
      random_half_matrix(8, 32, rng), pattern);
  const HalfMatrix b = random_half_matrix(32, 12, rng);
  const FloatMatrix c = spmm_nm(a, b);
  const HalfMatrix ad = a.to_dense();
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t n = 0; n < 12; ++n) {
      float ref = 0.0f;
      for (std::size_t k = 0; k < 32; ++k)
        ref += ad(r, k).to_float() * b(k, n).to_float();
      EXPECT_NEAR(c(r, n), ref, 1e-3f + 1e-3f * std::fabs(ref));
    }
}

TEST(SpmmNm, ScratchPoolExecutionStaysBitIdentical) {
  // spmm_vnm with a caller-owned scratch pool (the serving path)
  // must not perturb results; repeated executions reuse pooled buffers.
  Rng rng(31);
  const VnmMatrix a = random_vnm(32, 80, {8, 2, 8}, 33);
  const HalfMatrix b = random_half_matrix(80, 70, rng);
  const SpmmConfig cfg = select_config({8, 2, 8}, 32, 80, 70);
  const FloatMatrix plain = spmm_vnm(a, b, cfg);
  SpmmScratchPool scratch;
  for (int round = 0; round < 3; ++round) {
    const FloatMatrix pooled = spmm_vnm(a, b, cfg, nullptr, &scratch);
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(pooled.flat()[i], plain.flat()[i]) << round << ' ' << i;
  }
  EXPECT_GE(scratch.created(), 1u);
}

TEST(HalfBulk, HalfToFloatMatchesScalarExhaustively) {
  // Every one of the 65536 bit patterns, including subnormals, infinities
  // and NaNs, must convert exactly as half_t::to_float does.
  std::vector<half_t> src(1 << 16);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = half_t::from_bits(static_cast<std::uint16_t>(i));
  std::vector<float> dst(src.size());
  half_to_float_n(src.data(), dst.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float expect = src[i].to_float();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dst[i]),
              std::bit_cast<std::uint32_t>(expect))
        << "half bits 0x" << std::hex << i;
  }
  // Repeat in 7-element chunks: below the SIMD width, so every value —
  // including the subnormal range — also exercises the scalar tail loop.
  for (std::size_t base = 0; base < src.size(); base += 7) {
    const std::size_t len = std::min<std::size_t>(7, src.size() - base);
    half_to_float_n(src.data() + base, dst.data() + base, len);
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float expect = src[i].to_float();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dst[i]),
              std::bit_cast<std::uint32_t>(expect))
        << "scalar tail, half bits 0x" << std::hex << i;
  }
}

TEST(HalfBulk, FloatToHalfMatchesScalarOnFiniteAndInf) {
  std::vector<float> src;
  // Rounding-sensitive corpus: magnitudes across the half range, exact
  // halfway cases, the overflow boundary, subnormal outputs, and zeros.
  Rng rng(7);
  for (int i = 0; i < 4096; ++i)
    src.push_back(rng.normal() * std::pow(2.0f, (i % 40) - 20));
  for (float f : {0.0f, -0.0f, 1.0f, 1.0f + 0x1p-11f, 1.0f + 0x1.8p-11f,
                  65519.0f, 65519.999f, 65520.0f, 70000.0f, 0x1p-24f,
                  0x1.8p-24f, 0x1p-25f, 0x1p-26f, 6.1e-5f, -6.1e-5f})
    for (float s : {1.0f, -1.0f}) src.push_back(f * s);
  src.push_back(std::numeric_limits<float>::infinity());
  src.push_back(-std::numeric_limits<float>::infinity());

  // Every value at every position mod 8: through the F16C bodies and
  // the scalar tail.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::vector<float> shifted(offset, 1.0f);
    shifted.insert(shifted.end(), src.begin(), src.end());
    std::vector<half_t> dst(shifted.size());
    float_to_half_n(shifted.data(), dst.data(), shifted.size());
    for (std::size_t i = 0; i < shifted.size(); ++i)
      ASSERT_EQ(dst[i].bits(), half_t(shifted[i]).bits())
          << "input " << shifted[i] << " offset " << offset;
  }
}

TEST(HalfBulk, FloatToHalfNanStaysNan) {
  // Quiet and signaling NaNs with payloads in the bits fp16 keeps and in
  // those it drops, of both signs, must convert exactly as half_t does
  // (sign | 0x7e00) at every position of every length up to 24: in the
  // 16- and 8-lane F16C bodies and in the scalar tail.
  std::vector<std::uint32_t> nans;
  for (const std::uint32_t payload :
       {0x400000u, 0x000001u, 0x7fffffu, 0x200000u, 0x402000u, 0x001fffu,
        0x3fe000u, 0x600001u})
    for (const std::uint32_t sign : {0u, 0x80000000u})
      nans.push_back(sign | 0x7f800000u | payload);
  for (const std::uint32_t nan : nans)
    for (std::size_t n = 1; n <= 24; ++n)
      for (std::size_t pos = 0; pos < n; ++pos) {
        std::vector<float> src(n, -2.5f);
        src[pos] = std::bit_cast<float>(nan);
        std::vector<half_t> dst(n);
        float_to_half_n(src.data(), dst.data(), n);
        ASSERT_TRUE(dst[pos].is_nan());
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(dst[i].bits(), half_t(src[i]).bits())
              << "nan 0x" << std::hex << nan << std::dec << " n " << n
              << " pos " << pos << " i " << i;
      }
}

TEST(ThreadPoolFast, ChunkedCoversEveryIndexOnce) {
  const ::venom::detail::ForcePooled pooled;  // keep the chunked path under test
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1037);
  pool.parallel_for_chunks(hits.size(), [&](std::size_t b, std::size_t e) {
    ASSERT_LE(b, e);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolFast, WorkerExceptionPropagatesToCaller) {
  const ::venom::detail::ForcePooled pooled;  // keep the chunked path under test
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(512,
                                 [](std::size_t i) {
                                   if (i == 337)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay serviceable after a failed loop.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace venom::spatha
