// Tests for the int8/fp8-quantized V:N:M datapath: container round
// trips, fast-vs-scalar bit identity across ragged shapes and both
// ColumnLocModes, registry dispatch (dtype descs, VENOM_BACKEND
// rerouting, the weight's plan-cache entry), the fp8 Linear's fused
// epilogue, and quantize->serve parity of a whole encoder.
#include "quant/quantized_vnm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "baselines/gemm.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool_testing.hpp"
#include "io/serialize.hpp"
#include "ops/context.hpp"
#include "ops/ops.hpp"
#include "quant/int8_testing.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/plan.hpp"
#include "spatha/spmm.hpp"
#include "spatha/tuning_cache.hpp"
#include "transformer/encoder.hpp"

namespace venom::quant {
namespace {

VnmMatrix random_vnm(std::size_t rows, std::size_t cols, VnmConfig cfg,
                     std::uint64_t seed) {
  Rng rng(seed);
  return VnmMatrix::from_dense_magnitude(random_half_matrix(rows, cols, rng),
                                         cfg);
}

TEST(Quantize, RoundTripErrorBoundedByScale) {
  const VnmMatrix fp16 = random_vnm(16, 32, {4, 2, 8}, 1);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  const VnmMatrix back = q.dequantize();
  ASSERT_EQ(back.rows(), fp16.rows());
  for (std::size_t r = 0; r < 16; ++r) {
    const float bound = q.row_scale(r) * 0.5f + 1e-6f;
    for (std::size_t g = 0; g < fp16.groups_per_row(); ++g)
      for (std::size_t j = 0; j < 2; ++j)
        EXPECT_NEAR(back.value(r, g, j).to_float(),
                    fp16.value(r, g, j).to_float(), bound + 2e-3f);
  }
}

TEST(Quantize, StructureIsShared) {
  const VnmMatrix fp16 = random_vnm(8, 16, {4, 2, 8}, 2);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  EXPECT_EQ(q.config(), fp16.config());
  EXPECT_EQ(q.nnz(), fp16.nnz());
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t g = 0; g < fp16.groups_per_row(); ++g)
      for (std::size_t j = 0; j < 2; ++j)
        EXPECT_EQ(q.m_index(r, g, j), fp16.m_index(r, g, j));
}

TEST(Quantize, ValuesUseFullInt8Range) {
  const VnmMatrix fp16 = random_vnm(4, 16, {4, 2, 8}, 3);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  // The max-magnitude value of each row maps to +-127.
  for (std::size_t r = 0; r < 4; ++r) {
    int max_abs = 0;
    for (std::size_t g = 0; g < fp16.groups_per_row(); ++g)
      for (std::size_t j = 0; j < 2; ++j)
        max_abs = std::max(max_abs, std::abs(int(q.value(r, g, j))));
    EXPECT_EQ(max_abs, 127);
  }
}

TEST(Quantize, AllZeroRowGetsZeroScale) {
  HalfMatrix dense(4, 8);
  dense(1, 0) = half_t(1.0f);  // rows 0, 2, 3 entirely zero
  const VnmMatrix fp16 = VnmMatrix::compress(dense, {2, 2, 8});
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  EXPECT_EQ(q.row_scale(0), 0.0f);
  EXPECT_GT(q.row_scale(1), 0.0f);
  // Dequantize round-trips the zero rows exactly.
  EXPECT_TRUE(q.dequantize().to_dense() == dense);
}

TEST(SpmmI8, CloseToFp16Kernel) {
  Rng rng(4);
  const VnmMatrix fp16 = random_vnm(32, 64, {8, 2, 8}, 5);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  const HalfMatrix b = random_half_matrix(64, 16, rng);
  const FloatMatrix c_q = spmm_vnm_i8(q, b);
  const FloatMatrix c_fp = spatha::spmm_vnm(fp16, b);
  // int8 x int8 with per-row/col scales: a few percent relative error.
  EXPECT_LT(rel_fro_error(c_q, c_fp), 0.05f);
}

TEST(SpmmI8, ExactOnPowerOfTwoValues) {
  // Values representable exactly after scaling incur zero error.
  HalfMatrix dense(2, 8);
  dense(0, 0) = half_t(1.0f);
  dense(0, 4) = half_t(-0.5f);
  dense(1, 1) = half_t(2.0f);
  dense(1, 5) = half_t(1.0f);
  const VnmMatrix fp16 = VnmMatrix::compress(dense, {2, 1, 4});
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  HalfMatrix b(8, 2);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 2; ++c) b(r, c) = half_t(1.0f);
  const FloatMatrix c_q = spmm_vnm_i8(q, b);
  const FloatMatrix ref = gemm_dense(dense, b);
  EXPECT_LT(max_abs_diff(c_q, ref), 1e-2f);
}

TEST(SpmmI8, ShapeMismatchThrows) {
  const QuantizedVnmMatrix q =
      QuantizedVnmMatrix::quantize(random_vnm(8, 16, {4, 2, 8}, 6));
  EXPECT_THROW(spmm_vnm_i8(q, HalfMatrix(8, 4)), Error);
}

TEST(Footprint, Int8HalvesValueBytes) {
  const VnmMatrix fp16 = random_vnm(64, 128, {16, 2, 8}, 7);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  // values shrink 2x; scales add 4 bytes/row.
  EXPECT_LT(q.compressed_bytes(), fp16.compressed_bytes());
}

TEST(Footprint, Fp8HalvesValueBytesExactly) {
  const VnmMatrix fp16 = random_vnm(64, 128, {16, 2, 8}, 8);
  const Fp8VnmMatrix q = Fp8VnmMatrix::quantize(fp16, Fp8Format::kE4M3);
  // fp8 carries no scales: exactly nnz bytes saved vs the fp16 image.
  EXPECT_EQ(q.compressed_bytes(), fp16.compressed_bytes() - fp16.nnz());
}

// ------------------------------------------------------------- parity
//
// The exactness contract of the quantized datapath: each fast kernel is
// bit-identical to its scalar oracle on every shape and mode. For int8
// this holds because int32 accumulation is exact and both sides share
// the B-quantization helper and the dequantization expression; for fp8
// because the packed kernels over the exact fp16 decode accumulate each
// output element by fused multiply-adds in the oracle's ascending
// (group, j) order, as the oracle's std::fma does. The V = 16 / 64 rows
// at C = 1, 14 (narrow path) and 15, 16, 17 (wide path) straddle the
// packed kernels' crossover.

struct RaggedCase {
  std::size_t rows, cols, b_cols;
  VnmConfig fmt;
};

constexpr RaggedCase kRaggedCases[] = {
    {16, 32, 7, {4, 2, 8}},    {32, 40, 13, {8, 2, 10}},
    {8, 64, 70, {8, 2, 16}},   {64, 30, 5, {2, 1, 5}},
    {12, 56, 33, {4, 2, 7}},   {30, 64, 17, {10, 2, 8}},
    {32, 64, 1, {16, 2, 8}},   {64, 64, 1, {64, 2, 8}},
    {16, 48, 14, {16, 2, 6}},  {64, 32, 14, {64, 1, 4}},
    {48, 96, 15, {16, 2, 16}}, {128, 64, 15, {64, 2, 8}},
    {16, 80, 16, {16, 1, 5}},  {64, 48, 16, {64, 2, 6}},
    {32, 40, 17, {16, 2, 10}}, {64, 128, 17, {64, 2, 16}},
};

// The int8 parity suites run once per stage-2 body: the AMX body where
// this process runs it (skipped with the reason elsewhere), and the
// vector body (AVX-512 VNNI, AVX2 or the portable loop) forced on.
enum class Body { kAmx, kVector };

class SpmmI8Parity : public ::testing::TestWithParam<Body> {
 protected:
  void SetUp() override {
    if (GetParam() == Body::kVector) {
      force_vector_.emplace();
      return;
    }
    const std::string why = detail::amx_unavailable_reason();
    if (!why.empty()) GTEST_SKIP() << why;
  }

 private:
  std::optional<detail::ForceVectorBody> force_vector_;
  ::venom::detail::ForcePooled pooled_;  // keep the chunked path under test
};

INSTANTIATE_TEST_SUITE_P(
    Body, SpmmI8Parity, ::testing::Values(Body::kAmx, Body::kVector),
    [](const ::testing::TestParamInfo<Body>& info) {
      return std::string(info.param == Body::kAmx ? "Amx" : "Vector");
    });

TEST_P(SpmmI8Parity, FastMatchesScalarOnRaggedShapesBothModes) {
  std::uint64_t seed = 40;
  for (const RaggedCase& c : kRaggedCases) {
    const VnmMatrix fp16 = random_vnm(c.rows, c.cols, c.fmt, seed);
    const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
    Rng rng(seed + 1);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    for (const spatha::ColumnLocMode mode :
         {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
      spatha::SpmmConfig cfg =
          spatha::select_config(c.fmt, c.rows, c.cols, c.b_cols);
      cfg.column_loc = mode;
      cfg.chunk_grain = 1 + seed % 3;  // exercise the chunk partition
      const FloatMatrix fast = spmm_vnm_i8(q, b, cfg);
      const FloatMatrix scalar = spmm_vnm_i8_scalar(q, b, mode);
      EXPECT_EQ(fast, scalar) << "mode=" << int(mode) << " rows=" << c.rows;
    }
    seed += 3;
  }
}

// The int8 heuristic's own tiling (BSc up to 128, 16 KiB K panels): the
// ragged cases' formats at 16x their depth, so a row spans several K
// panels, and at widths that straddle the C tile.
TEST_P(SpmmI8Parity, FastMatchesScalarUnderTheInt8Tiling) {
  std::uint64_t seed = 140;
  for (const RaggedCase& c : kRaggedCases) {
    const std::size_t cols = 16 * c.cols;
    const QuantizedVnmMatrix q =
        QuantizedVnmMatrix::quantize(random_vnm(c.rows, cols, c.fmt, seed));
    for (const std::size_t width : {8, 32, 64, 65, 128, 129, 256}) {
      Rng rng(seed + width);
      const HalfMatrix b = random_half_matrix(cols, width, rng);
      for (const spatha::ColumnLocMode mode :
           {spatha::ColumnLocMode::kEnabled,
            spatha::ColumnLocMode::kFixed}) {
        spatha::SpmmConfig cfg = spatha::select_config(
            c.fmt, c.rows, cols, width, ops::Dtype::kI8);
        cfg.column_loc = mode;
        EXPECT_EQ(spmm_vnm_i8(q, b, cfg), spmm_vnm_i8_scalar(q, b, mode))
            << "rows=" << c.rows << " C=" << width << " mode=" << int(mode);
      }
    }
    seed += 3;
  }
}

TEST(SpmmI8, BitIdenticalAcrossRuns) {
  const VnmMatrix fp16 = random_vnm(32, 64, {8, 2, 8}, 50);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  Rng rng(51);
  const HalfMatrix b = random_half_matrix(64, 24, rng);
  const FloatMatrix first = spmm_vnm_i8(q, b);
  const FloatMatrix second = spmm_vnm_i8(q, b);
  EXPECT_EQ(first, second);
}

TEST(SpmmFp8, FastMatchesScalarOnRaggedShapesBothModesBothFormats) {
  std::uint64_t seed = 60;
  for (const RaggedCase& c : kRaggedCases) {
    const VnmMatrix fp16 = random_vnm(c.rows, c.cols, c.fmt, seed);
    Rng rng(seed + 1);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    for (const Fp8Format format : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
      const Fp8VnmMatrix q = Fp8VnmMatrix::quantize(fp16, format);
      for (const spatha::ColumnLocMode mode :
           {spatha::ColumnLocMode::kEnabled,
            spatha::ColumnLocMode::kFixed}) {
        spatha::SpmmConfig cfg =
            spatha::select_config(c.fmt, c.rows, c.cols, c.b_cols);
        cfg.column_loc = mode;
        const FloatMatrix fast = spmm_vnm_fp8(q, b, cfg);
        const FloatMatrix scalar = spmm_vnm_fp8_scalar(q, b, mode);
        EXPECT_EQ(fast, scalar)
            << to_string(format) << " mode=" << int(mode);
      }
    }
    seed += 3;
  }
}

TEST(SpmmFp8, CloseToFp16Kernel) {
  Rng rng(70);
  const VnmMatrix fp16 = random_vnm(32, 64, {8, 2, 8}, 71);
  const HalfMatrix b = random_half_matrix(64, 16, rng);
  const FloatMatrix c_fp = spatha::spmm_vnm(fp16, b);
  // Half-ulp relative storage error: 2^-4 per value for E4M3, 2^-3 for
  // E5M2.
  const Fp8VnmMatrix q4 = Fp8VnmMatrix::quantize(fp16, Fp8Format::kE4M3);
  EXPECT_LT(rel_fro_error(spmm_vnm_fp8(q4, b), c_fp), 0.05f);
  const Fp8VnmMatrix q5 = Fp8VnmMatrix::quantize(fp16, Fp8Format::kE5M2);
  EXPECT_LT(rel_fro_error(spmm_vnm_fp8(q5, b), c_fp), 0.1f);
}

TEST(Fp8Vnm, DequantizeIsLossless) {
  // Every fp8 value is exactly representable in fp16, so decode back to
  // the fp16 container loses nothing relative to the fp8 image.
  const VnmMatrix fp16 = random_vnm(16, 32, {4, 2, 8}, 80);
  for (const Fp8Format format : {Fp8Format::kE5M2, Fp8Format::kE4M3}) {
    const Fp8VnmMatrix q = Fp8VnmMatrix::quantize(fp16, format);
    const VnmMatrix back = q.dequantize();
    for (std::size_t r = 0; r < q.rows(); ++r)
      for (std::size_t g = 0; g < q.groups_per_row(); ++g)
        for (std::size_t j = 0; j < q.config().n; ++j)
          EXPECT_EQ(back.value(r, g, j).to_float(), q.value(r, g, j));
    // Structure is shared verbatim.
    EXPECT_EQ(back.m_indices(), fp16.m_indices());
    EXPECT_EQ(back.column_locs(), fp16.column_locs());
  }
}

TEST(FromParts, ValidatesQuantizedStructures) {
  const VnmConfig cfg{2, 2, 8};
  std::vector<std::int8_t> values(2 * 1 * 2, 1);
  std::vector<std::uint8_t> m_indices = {0, 1, 0, 1};
  std::vector<std::uint8_t> column_loc(1 * 1 * 4, 0);
  std::vector<float> scales(2, 0.5f);
  EXPECT_NO_THROW(QuantizedVnmMatrix::from_parts(cfg, 2, 8, values,
                                                 m_indices, column_loc,
                                                 scales));
  auto bad_idx = m_indices;
  bad_idx[0] = 4;  // selector out of the 4 selected columns
  EXPECT_THROW(QuantizedVnmMatrix::from_parts(cfg, 2, 8, values, bad_idx,
                                              column_loc, scales),
               Error);
  auto bad_loc = column_loc;
  bad_loc[0] = 8;  // column offset out of M
  EXPECT_THROW(QuantizedVnmMatrix::from_parts(cfg, 2, 8, values, m_indices,
                                              bad_loc, scales),
               Error);
  auto bad_scales = scales;
  bad_scales[0] = -1.0f;  // scales must be finite and non-negative
  EXPECT_THROW(QuantizedVnmMatrix::from_parts(cfg, 2, 8, values, m_indices,
                                              column_loc, bad_scales),
               Error);
  EXPECT_THROW(QuantizedVnmMatrix::from_parts(cfg, 2, 8, values, m_indices,
                                              column_loc, {0.5f}),
               Error);  // wrong scale count

  std::vector<std::uint8_t> f8_values(values.size(), 0x3c);
  EXPECT_NO_THROW(Fp8VnmMatrix::from_parts(cfg, 2, 8, Fp8Format::kE5M2,
                                           f8_values, m_indices,
                                           column_loc));
  EXPECT_THROW(Fp8VnmMatrix::from_parts(cfg, 2, 8, Fp8Format::kE5M2,
                                        f8_values, bad_idx, column_loc),
               Error);
  EXPECT_THROW(Fp8VnmMatrix::from_parts(cfg, 2, 8, Fp8Format::kE4M3, {},
                                        m_indices, column_loc),
               Error);
}

// Every (row, group) of a 16x16 16:2:8 matrix stores its two nonzeros
// in selector slot 0. The gathered 2:4 row has one position per slot, so
// all three containers reject the parts, naming the first (row, group).
// Every int8 body sums a row in int32: a row whose groups * n products
// of |a| <= 128 and |b| <= 127 could overflow it is refused.
TEST(FromParts, RejectsRowsTooLongForAnInt32Sum) {
  const VnmConfig cfg{2, 2, 8};
  const std::size_t max_groups = 2147483647 / (2 * 128 * 127);  // 66,052
  const auto build = [&](std::size_t groups) {
    const std::size_t words = 2 * groups;
    std::vector<std::uint8_t> m_indices(words * 2);
    for (std::size_t i = 0; i < m_indices.size(); ++i) m_indices[i] = i % 2;
    return QuantizedVnmMatrix::from_parts(
        cfg, 2, groups * cfg.m, std::vector<std::int8_t>(words * 2, -128),
        std::move(m_indices), std::vector<std::uint8_t>(groups * 4, 0),
        std::vector<float>(2, 0.5f));
  };
  EXPECT_NO_THROW(build(max_groups));
  EXPECT_THROW(build(max_groups + 1), Error);
}

TEST(FromParts, RejectsTwoNonzerosInOneSelectorSlot) {
  const VnmConfig cfg{16, 2, 8};
  const std::size_t n = 16, words = 16 * (16 / 8);
  const std::vector<std::uint8_t> same_slot(words * 2, 0);
  const std::vector<std::uint8_t> column_loc(1 * 2 * 4, 0);
  const auto expect_rejected = [](const auto& build) {
    try {
      build();
      ADD_FAILURE() << "duplicate selector slot accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("row 0 group 0"),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected([&] {
    VnmMatrix::from_parts(cfg, n, n,
                          std::vector<half_t>(words * 2, half_t(1.0f)),
                          same_slot, column_loc);
  });
  const std::vector<std::int8_t> codes(words * 2, 3);
  const std::vector<float> scales(n, 0.5f);
  expect_rejected([&] {
    QuantizedVnmMatrix::from_parts(cfg, n, n, codes, same_slot, column_loc,
                                   scales);
  });
  expect_rejected([&] {
    Fp8VnmMatrix::from_parts(cfg, n, n, Fp8Format::kE4M3,
                             std::vector<std::uint8_t>(words * 2, 0x38),
                             same_slot, column_loc);
  });

  // Zero values may repeat a slot (compress() pads that way), +0 and -0
  // alike.
  std::vector<std::int8_t> padded = codes;
  std::vector<std::uint8_t> f8_padded(words * 2, 0x38);
  for (std::size_t w = 0; w < words; ++w) {
    padded[2 * w + 1] = 0;
    f8_padded[2 * w + 1] = w % 2 == 0 ? 0x00 : 0x80;
  }
  EXPECT_NO_THROW(QuantizedVnmMatrix::from_parts(cfg, n, n, padded,
                                                 same_slot, column_loc,
                                                 scales));
  EXPECT_NO_THROW(Fp8VnmMatrix::from_parts(cfg, n, n, Fp8Format::kE4M3,
                                           f8_padded, same_slot,
                                           column_loc));
  std::vector<half_t> h_padded(words * 2, half_t(1.0f));
  for (std::size_t w = 0; w < words; ++w)
    h_padded[2 * w + 1] = half_t(w % 2 == 0 ? 0.0f : -0.0f);
  EXPECT_NO_THROW(
      VnmMatrix::from_parts(cfg, n, n, h_padded, same_slot, column_loc));

  // The same parts on disk: a valid QVN1 file whose m-indices are then
  // overwritten with slot 0 fails to load.
  std::vector<std::uint8_t> distinct(words * 2);
  for (std::size_t i = 0; i < distinct.size(); ++i) distinct[i] = i % 2;
  const std::string path = ::testing::TempDir() + "venom_same_slot.qvnm";
  io::save(QuantizedVnmMatrix::from_parts(cfg, n, n, codes, distinct,
                                          column_loc, scales),
           path);
  {
    // QVN1 header: magic, u32 version, u64 V, N, M, rows, cols; then the
    // int8 values and the m-indices.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4 + 4 + 5 * 8 + std::streamoff(codes.size()));
    f.write(reinterpret_cast<const char*>(same_slot.data()),
            std::streamsize(same_slot.size()));
  }
  expect_rejected([&] { io::load_quant_vnm_matrix(path); });
  std::remove(path.c_str());
}

// The exactness bound of the vector bodies: A codes at the int8 extremes
// (-128 reaches the kernel only through from_parts) against B columns at
// full scale, where every B code is +-127. A four-way dot product's int16
// pair sums peak at 2 * 128 * 127 = 32,512 here, and the widths cover
// every strip and tail of the 16- and 8-lane bodies. At 68 groups per
// row the AMX body takes the 16-aligned part (2 x 2 tile blocks at
// V = 32) and the vector body the K tail, the column tail and, at
// V = 24, the row tail.
void expect_exact_at_the_code_extremes(VnmConfig cfg, std::size_t rows,
                                       std::size_t cols) {
  const std::size_t groups = cols / cfg.m;
  const std::int8_t extremes[] = {-128, -127, 127};
  std::vector<std::int8_t> values(rows * groups * cfg.n);
  std::vector<std::uint8_t> m_indices(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = extremes[(i / 2 + i / 7) % 3];
    const std::size_t k = i / 2;  // (row, group); slots distinct per pair
    m_indices[i] = static_cast<std::uint8_t>(
        i % 2 == 0 ? k % 4 : (k % 4 + 1 + k / 4 % 3) % 4);
  }
  std::vector<std::uint8_t> column_loc((rows / cfg.v) * groups * 4);
  for (std::size_t i = 0; i < column_loc.size(); ++i)
    column_loc[i] = static_cast<std::uint8_t>((i % 4) * 2 + i / 4 % 2);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::from_parts(
      cfg, rows, cols, values, m_indices, column_loc,
      std::vector<float>(rows, 1.0f / 128));
  Rng rng(95);
  for (const std::size_t width :
       {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65}) {
    // One magnitude per column, random signs: every code is +-127.
    HalfMatrix b(cols, width);
    for (std::size_t c = 0; c < width; ++c) {
      const float mag = 0.25f + 0.125f * float(c % 5);
      for (std::size_t r = 0; r < cols; ++r)
        b(r, c) = half_t(rng.uniform() < 0.5f ? -mag : mag);
    }
    for (const spatha::ColumnLocMode mode :
         {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
      spatha::SpmmConfig sc = spatha::select_config(
          cfg, rows, cols, width, ops::Dtype::kI8);
      sc.column_loc = mode;
      EXPECT_EQ(spmm_vnm_i8(q, b, sc), spmm_vnm_i8_scalar(q, b, mode))
          << "C=" << width << " mode=" << int(mode);
    }
  }
}

TEST_P(SpmmI8Parity, ExactAtTheCodeExtremesOnEveryStripAndTail) {
  expect_exact_at_the_code_extremes({16, 2, 8}, 32, 64);
}

TEST_P(SpmmI8Parity, ExactAtTheCodeExtremesOnTheTiles) {
  expect_exact_at_the_code_extremes({32, 2, 8}, 64, 544);
  expect_exact_at_the_code_extremes({24, 2, 8}, 48, 544);
}

// A non-finite value in B makes its column's scale NaN and its codes 0,
// on every target: the fast path still equals the oracle (NaN where both
// are NaN), and no non-finite float reaches a float-to-int cast.
TEST(SpmmI8, InfInBKeepsFastEqualToScalar) {
  const QuantizedVnmMatrix q =
      QuantizedVnmMatrix::quantize(random_vnm(16, 64, {16, 2, 8}, 97));
  Rng rng(98);
  HalfMatrix b = random_half_matrix(64, 32, rng);  // all 32 columns vector
  b(5, 3) = half_t(std::numeric_limits<float>::infinity());
  const FloatMatrix fast = spmm_vnm_i8(q, b);
  const FloatMatrix scalar = spmm_vnm_i8_scalar(q, b);
  for (std::size_t r = 0; r < fast.rows(); ++r)
    for (std::size_t c = 0; c < fast.cols(); ++c)
      EXPECT_TRUE(fast(r, c) == scalar(r, c) ||
                  (std::isnan(fast(r, c)) && std::isnan(scalar(r, c))))
          << "r=" << r << " c=" << c << ": " << fast(r, c) << " vs "
          << scalar(r, c);
}

// NaN, +inf or -inf anywhere in a column makes that column all NaN, on
// the fast path and the oracle alike, and leaves every other column as
// in the all-finite run. The value sits at B(5, 3) (B(5, 0) at C = 1);
// C = 1 runs the quantizer's scalar loops, C = 17 and 32 its vector
// strips and tails.
TEST(SpmmI8, NonFiniteBColumnIsAllNaN) {
  const QuantizedVnmMatrix q =
      QuantizedVnmMatrix::quantize(random_vnm(32, 64, {16, 2, 8}, 99));
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const std::size_t width : {1, 17, 32}) {
    Rng rng(100 + width);
    const HalfMatrix finite = random_half_matrix(64, width, rng);
    const FloatMatrix want = spmm_vnm_i8_scalar(q, finite);
    const std::size_t col = std::min<std::size_t>(3, width - 1);
    for (const float v : bad) {
      HalfMatrix b = finite;
      b(5, col) = half_t(v);
      for (const FloatMatrix& got :
           {spmm_vnm_i8(q, b), spmm_vnm_i8_scalar(q, b)})
        for (std::size_t r = 0; r < got.rows(); ++r)
          for (std::size_t c = 0; c < got.cols(); ++c) {
            if (c == col)
              EXPECT_TRUE(std::isnan(got(r, c)))
                  << "C=" << width << " v=" << v << " r=" << r;
            else
              EXPECT_EQ(got(r, c), want(r, c))
                  << "C=" << width << " v=" << v << " r=" << r << " c=" << c;
          }
    }
  }
}

// ----------------------------------------------------------- dispatch

TEST(QuantDispatch, QuantizedArgsSelectQuantizedBackends) {
  const VnmMatrix fp16 = random_vnm(16, 32, {4, 2, 8}, 90);
  Rng rng(91);
  const HalfMatrix b = random_half_matrix(32, 8, rng);

  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  const ops::MatmulArgs qargs = ops::MatmulArgs::make(q, b);
  EXPECT_EQ(qargs.desc().dtype, ops::Dtype::kI8);
  EXPECT_EQ(ops::BackendRegistry::instance().select(qargs.desc()).name(),
            "vnm-int8");

  const Fp8VnmMatrix f8 = Fp8VnmMatrix::quantize(fp16, Fp8Format::kE5M2);
  const ops::MatmulArgs fargs = ops::MatmulArgs::make(f8, b);
  EXPECT_EQ(fargs.desc().dtype, ops::Dtype::kF8E5M2);
  EXPECT_EQ(ops::BackendRegistry::instance().select(fargs.desc()).name(),
            "vnm-fp8");

  // Forced scalar oracles agree bitwise with the production backends.
  const FloatMatrix fast = ops::matmul(qargs);
  {
    const ops::ScopedBackend forced("vnm-int8-scalar");
    EXPECT_EQ(ops::matmul(qargs), fast);
  }
  const FloatMatrix f8_fast = ops::matmul(fargs);
  {
    const ops::ScopedBackend forced("vnm-fp8-scalar");
    EXPECT_EQ(ops::matmul(fargs), f8_fast);
  }
}

// `venomtool backends` says which int8 stage-2 body this process runs.
TEST(QuantDispatch, Int8BackendNamesItsStage2Body) {
  const ops::Matmul* int8 = ops::BackendRegistry::instance().find("vnm-int8");
  ASSERT_NE(int8, nullptr);
  EXPECT_NE(int8->describe().find("stage 2: " + int8_stage2_body()),
            std::string::npos);
  EXPECT_EQ(int8_stage2_body().rfind("AMX", 0) == 0,
            detail::amx_unavailable_reason().empty())
      << int8_stage2_body();
}

TEST(QuantDispatch, TunedI8EntryRoundTripsAndDispatchesBitIdentically) {
  const VnmConfig fmt{16, 2, 8};
  const VnmMatrix fp16 = random_vnm(64, 128, fmt, 95);
  Rng rng(96);
  const HalfMatrix b = random_half_matrix(128, 32, rng);
  const QuantizedVnmMatrix q = QuantizedVnmMatrix::quantize(fp16);
  const ops::MatmulArgs qargs = ops::MatmulArgs::make(q, b);

  const FloatMatrix untuned = ops::matmul(qargs);

  // A tuned winner that differs from the int8 heuristic, persisted and
  // reloaded the way a $VENOM_TUNE_CACHE process would see it: the entry
  // must survive the JSON round trip under its "+i8" tag.
  spatha::SpmmConfig tuned =
      spatha::select_config_heuristic(fmt, 64, 128, 32, ops::Dtype::kI8);
  tuned.chunk_grain = 2;
  spatha::TuningEntry entry;
  entry.config = tuned;
  const spatha::TuningKey key =
      spatha::make_tuning_key(fmt, 64, 128, 32, ops::Dtype::kI8);
  spatha::TuningCache on_disk;
  on_disk.put(key, entry);
  const std::string path = testing::TempDir() + "quant_i8_cache.json";
  io::save_tuning_cache(on_disk, path);
  const spatha::TuningCache loaded = io::load_tuning_cache(path);
  const auto reloaded = loaded.lookup(fmt, 64, 128, 32, ops::Dtype::kI8);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(*reloaded, tuned);
  // The fp16 lookup must not surface it.
  EXPECT_FALSE(loaded.lookup(fmt, 64, 128, 32).has_value());

  // Installed globally (what the env-var load does), the vnm-int8
  // registry backend dispatches the tuned config — and stays
  // bit-identical to both the untuned dispatch and the scalar oracle
  // (integer accumulation is exact under any valid tiling).
  spatha::TuningCache::global().put(key, entry);
  ASSERT_EQ(spatha::select_config(fmt, 64, 128, 32, ops::Dtype::kI8), tuned);
  const FloatMatrix tuned_out = ops::matmul(qargs);
  spatha::TuningCache::global().erase(key);

  EXPECT_EQ(tuned_out, untuned);
  EXPECT_EQ(tuned_out, spmm_vnm_i8_scalar(q, b, tuned.column_loc));
}

TEST(QuantDispatch, ForcedBackendQuantizesFp16ArgsOnTheFly) {
  // VENOM_BACKEND=vnm-int8 (here the RAII equivalent) reroutes plain
  // fp16 V:N:M args through the quantized datapath: the backend
  // quantizes the weight on the fly, matching the explicit int8 product
  // bit for bit.
  const VnmMatrix fp16 = random_vnm(16, 32, {4, 2, 8}, 95);
  Rng rng(96);
  const HalfMatrix b = random_half_matrix(32, 8, rng);
  const ops::MatmulArgs args = ops::MatmulArgs::make(fp16, b);
  EXPECT_EQ(args.desc().dtype, ops::Dtype::kF16);

  const FloatMatrix expect_i8 =
      spmm_vnm_i8(QuantizedVnmMatrix::quantize(fp16), b);
  {
    const ops::ScopedBackend forced("vnm-int8");
    EXPECT_EQ(ops::matmul(args), expect_i8);
  }
  const FloatMatrix expect_f8 =
      spmm_vnm_fp8(Fp8VnmMatrix::quantize(fp16, Fp8Format::kE4M3), b);
  {
    const ops::ScopedBackend forced("vnm-fp8");
    EXPECT_EQ(ops::matmul(args), expect_f8);
  }
}

TEST(QuantDispatch, Fp16BackendsRejectQuantizedDescs) {
  // A quantized desc must never fall through to an fp16 kernel.
  const VnmMatrix fp16 = random_vnm(16, 32, {4, 2, 8}, 97);
  Rng rng(98);
  const HalfMatrix b = random_half_matrix(32, 8, rng);
  const ops::MatmulDesc desc =
      ops::MatmulArgs::make(QuantizedVnmMatrix::quantize(fp16), b).desc();
  for (const char* name : {"vnm-fast", "vnm-scalar", "vnm-mma"}) {
    const ops::Matmul* backend = ops::BackendRegistry::instance().find(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_FALSE(backend->supports(desc, cpu_feature_string())) << name;
  }
}

TEST(PlanCache, QuantizedDispatchReusesTheWeightsEntry) {
  // Fingerprinted fp16 args through a forced quantized backend build the
  // weight's int8 or fp8-E4M3 image once, in the weight's one PlanCache
  // entry, with the bits of the explicitly quantized operand.
  ops::ExecContext ctx;
  auto fp16 = std::make_shared<const VnmMatrix>(
      random_vnm(16, 32, {4, 2, 8}, 105));
  const std::uint64_t fp = spatha::weight_fingerprint(*fp16);
  Rng rng(106);
  const HalfMatrix b = random_half_matrix(32, 8, rng);
  const ops::MatmulArgs args = ops::MatmulArgs::make(fp16, fp, b);
  const QuantizedVnmMatrix i8 = QuantizedVnmMatrix::quantize(*fp16);
  const Fp8VnmMatrix f8 = Fp8VnmMatrix::quantize(*fp16, Fp8Format::kE4M3);

  for (const char* name : {"vnm-int8", "vnm-fp8"}) {
    const ops::ScopedBackend forced(name);
    const FloatMatrix first = ops::matmul(args, ctx);
    EXPECT_EQ(ops::matmul(args, ctx), first) << name;
    EXPECT_EQ(first, std::string(name) == "vnm-int8"
                         ? ops::matmul(ops::MatmulArgs::make(i8, b), ctx)
                         : ops::matmul(ops::MatmulArgs::make(f8, b), ctx))
        << name;
  }
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
  EXPECT_EQ(ctx.plan_cache().hits(), 3u);
  EXPECT_EQ(ctx.plan_cache().size(), 1u);

  // The fp8 slot is one packed decode of the E4M3 image, built on that
  // first fp8 dispatch and served to every later one.
  const auto packed = ctx.plan_cache().fp8(fp16, fp);
  EXPECT_EQ(ctx.plan_cache().fp8(fp16, fp), packed);
  EXPECT_EQ(packed->source().values(), f8.dequantize().values());
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
  EXPECT_EQ(ctx.plan_cache().hits(), 5u);
  // At a width on each side of the packed kernels' crossover, forced
  // vnm-fp8 over the cached decode equals the per-element oracle.
  for (const std::size_t width : {std::size_t{3}, std::size_t{40}}) {
    const HalfMatrix bw = random_half_matrix(32, width, rng);
    const ops::ScopedBackend forced("vnm-fp8");
    EXPECT_EQ(ops::matmul(ops::MatmulArgs::make(fp16, fp, bw), ctx),
              spmm_vnm_fp8_scalar(f8, bw))
        << "C=" << width;
  }
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
  EXPECT_EQ(ctx.plan_cache().hits(), 7u);
  EXPECT_EQ(ctx.plan_cache().fp8(fp16, fp), packed);
}

// ---------------------------------------------------- transformer mode

TEST(LinearQuant, RequiresSparsifiedLayer) {
  Rng rng(110);
  transformer::Linear layer = transformer::Linear::random(16, 32, rng);
  EXPECT_THROW(layer.set_weight_dtype(ops::Dtype::kI8), Error);
  layer.sparsify({4, 2, 8});
  EXPECT_NO_THROW(layer.set_weight_dtype(ops::Dtype::kI8));
  EXPECT_EQ(layer.weight_dtype(), ops::Dtype::kI8);
  ASSERT_NE(layer.int8_weight(), nullptr);
  EXPECT_EQ(layer.fp8_weight(), nullptr);
}

TEST(LinearQuant, QuantizedForwardCloseToFp16AndRestorable) {
  Rng rng(111);
  transformer::Linear layer = transformer::Linear::random(32, 64, rng);
  layer.sparsify({8, 2, 8});
  const HalfMatrix x = random_half_matrix(64, 12, rng, 0.5f);
  const HalfMatrix y_fp16 = layer.forward(x);

  layer.set_weight_dtype(ops::Dtype::kI8);
  const HalfMatrix y_i8 = layer.forward(x);
  EXPECT_LT(rel_fro_error(to_float(y_i8), to_float(y_fp16)), 0.05f);
  // Quantized-weight serving is deterministic.
  EXPECT_TRUE(layer.forward(x) == y_i8);

  layer.set_weight_dtype(ops::Dtype::kF8E4M3);
  ASSERT_NE(layer.fp8_weight(), nullptr);
  EXPECT_EQ(layer.int8_weight(), nullptr);
  EXPECT_LT(rel_fro_error(to_float(layer.forward(x)), to_float(y_fp16)),
            0.1f);

  // Restoring fp16 is bit-identical to the pre-quantization forward.
  layer.set_weight_dtype(ops::Dtype::kF16);
  EXPECT_TRUE(layer.forward(x) == y_fp16);
}

TEST(LinearQuant, Fp8ForwardIsTheFusedEpilogueOverTheOracle) {
  // An fp8 Linear runs the packed kernels over its decoded weight with
  // the bias fused into stage 3; its output is the fp16 conversion of
  // the bias epilogue applied to the per-element oracle, bit for bit, on
  // the narrow (C <= 14) and wide paths alike.
  Rng rng(112);
  transformer::Linear layer = transformer::Linear::random(64, 96, rng);
  layer.sparsify({16, 2, 8});
  for (const ops::Dtype dtype : {ops::Dtype::kF8E5M2, ops::Dtype::kF8E4M3}) {
    layer.set_weight_dtype(dtype);
    ASSERT_NE(layer.fp8_weight(), nullptr);
    spatha::Epilogue bias;
    bias.bias = layer.bias();
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{12}, std::size_t{70}}) {
      const HalfMatrix x = random_half_matrix(96, width, rng, 0.5f);
      FloatMatrix acc = spmm_vnm_fp8_scalar(*layer.fp8_weight(), x);
      HalfMatrix want(acc.rows(), width);
      for (std::size_t r = 0; r < acc.rows(); ++r) {
        spatha::apply_epilogue(bias, r, &acc(r, 0), width);
        float_to_half_n(&acc(r, 0), &want(r, 0), width);
      }
      EXPECT_TRUE(layer.forward(x) == want)
          << ops::to_string(dtype) << " C=" << width;
    }
  }
}

TEST(LinearQuant, Int8ForwardIsTheFusedEpilogueOverTheOracle) {
  // vnm-int8's run_fused dequantizes, applies the epilogue and converts
  // to fp16 inside each tile's write-back; its output is the fp16
  // conversion of the epilogue applied to the oracle's dequantized
  // accumulator, bit for bit, with and without GELU, through the Linear
  // and through ops::matmul_fused.
  Rng rng(113);
  transformer::Linear layer = transformer::Linear::random(64, 96, rng);
  layer.sparsify({16, 2, 8});
  layer.set_weight_dtype(ops::Dtype::kI8);
  ASSERT_NE(layer.int8_weight(), nullptr);
  const QuantizedVnmMatrix& w = *layer.int8_weight();
  ops::ExecContext ctx;
  for (const std::size_t width : {1, 12, 16, 70, 256}) {
    const HalfMatrix x = random_half_matrix(96, width, rng, 0.5f);
    for (const spatha::Activation act :
         {spatha::Activation::kNone, spatha::Activation::kGelu}) {
      spatha::Epilogue epilogue;
      epilogue.bias = layer.bias();
      epilogue.activation = act;
      FloatMatrix acc = spmm_vnm_i8_scalar(w, x);
      HalfMatrix want(acc.rows(), width);
      for (std::size_t r = 0; r < acc.rows(); ++r) {
        spatha::apply_epilogue(epilogue, r, &acc(r, 0), width);
        float_to_half_n(&acc(r, 0), &want(r, 0), width);
      }
      EXPECT_TRUE(ops::matmul_fused(ops::MatmulArgs::make(w, x), epilogue,
                                    ctx) == want)
          << "C=" << width << " act=" << int(act);
      if (act == spatha::Activation::kNone) {
        EXPECT_TRUE(layer.forward(x) == want) << "C=" << width;
      }
    }
  }
}

TEST(EncoderQuant, QuantizeServeParityAgainstFp16) {
  // The tentpole end-to-end gate: an entire sparsified encoder runs
  // reduced-precision within the documented bound of its fp16 serve
  // (int8 <= 5%, fp8-e4m3 <= 10% relative Frobenius), deterministically.
  Rng rng = Rng::seeded("encoder-quant");
  const transformer::ModelConfig cfg{.name = "quant", .layers = 2,
                                     .hidden = 32, .heads = 4,
                                     .ffn_hidden = 64, .seq_len = 16};
  transformer::Encoder enc(cfg, rng);
  enc.sparsify({8, 2, 8});
  const HalfMatrix x = random_half_matrix(32, 16, rng, 0.5f);
  const HalfMatrix y_fp16 = enc.forward(x);

  enc.set_weight_dtype(ops::Dtype::kI8);
  const HalfMatrix y_i8 = enc.forward(x);
  EXPECT_LT(rel_fro_error(to_float(y_i8), to_float(y_fp16)), 0.05f);
  EXPECT_TRUE(enc.forward(x) == y_i8);  // bit-identical across runs

  enc.set_weight_dtype(ops::Dtype::kF8E4M3);
  const HalfMatrix y_f8 = enc.forward(x);
  EXPECT_LT(rel_fro_error(to_float(y_f8), to_float(y_fp16)), 0.1f);
  EXPECT_TRUE(enc.forward(x) == y_f8);

  enc.set_weight_dtype(ops::Dtype::kF16);
  EXPECT_TRUE(enc.forward(x) == y_fp16);
}

TEST(LinearQuant, TrainingKeepsFp16MastersAndRequantizes) {
  // apply_gradients() updates the fp16 master and refreshes the int8
  // image, so serving after a step uses the stepped weight.
  Rng rng(115);
  transformer::Linear layer = transformer::Linear::random(16, 32, rng);
  layer.sparsify({4, 2, 8});
  layer.set_weight_dtype(ops::Dtype::kI8);
  const HalfMatrix x = random_half_matrix(32, 8, rng, 0.5f);
  const HalfMatrix y_before = layer.forward(x);

  FloatMatrix gy(16, 8);
  for (auto& v : gy.flat()) v = 0.1f * rng.normal();
  const transformer::Linear::Grads g = layer.backward(x, gy);
  layer.apply_gradients(g, 0.1f);

  // The image tracked the update (the forward changed), and it matches a
  // fresh quantization of the stepped sparse weight.
  const HalfMatrix y_after = layer.forward(x);
  EXPECT_FALSE(y_after == y_before);
  ASSERT_NE(layer.int8_weight(), nullptr);
  const QuantizedVnmMatrix fresh =
      QuantizedVnmMatrix::quantize(layer.sparse_weight());
  EXPECT_EQ(layer.int8_weight()->values(), fresh.values());
  EXPECT_EQ(layer.int8_weight()->row_scales(), fresh.row_scales());
}

}  // namespace
}  // namespace venom::quant
