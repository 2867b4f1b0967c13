// Tests for the Sparse Tensor Core simulator: metadata codec, mma
// semantics, Table-1 shape registry, and Fig. 6 fragment layouts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "format/nm.hpp"
#include "sptc/fragment.hpp"
#include "sptc/metadata.hpp"
#include "sptc/mma.hpp"
#include "sptc/shapes.hpp"
#include "tensor/matrix.hpp"

namespace venom::sptc {
namespace {

TEST(Metadata, PackUnpackRoundTrip) {
  Rng rng(1);
  std::vector<std::uint8_t> indices(100);
  for (auto& i : indices) i = std::uint8_t(rng.uniform_index(4));
  const auto words = pack_metadata(indices);
  EXPECT_EQ(words.size(), (100 + 15) / 16);
  const auto back = unpack_metadata(words, indices.size());
  EXPECT_EQ(back, indices);
}

TEST(Metadata, SixteenIndicesPerWord) {
  std::vector<std::uint8_t> indices(16, 3);
  const auto words = pack_metadata(indices);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0xffffffffu);
}

TEST(Metadata, LittleEndFirstOrdering) {
  const std::vector<std::uint8_t> indices = {1, 2, 3, 0};
  const auto words = pack_metadata(indices);
  EXPECT_EQ(words[0], (1u << 0) | (2u << 2) | (3u << 4));
  EXPECT_EQ(metadata_at(words, 0), 1);
  EXPECT_EQ(metadata_at(words, 2), 3);
}

TEST(Metadata, RejectsWideIndices) {
  const std::vector<std::uint8_t> indices = {4};
  EXPECT_THROW(pack_metadata(indices), Error);
}

TEST(Shapes, Table1Registry) {
  // The exact content of Table 1.
  const auto table = mma_shape_table();
  ASSERT_EQ(table.size(), 4u);
  EXPECT_TRUE(is_supported(Precision::kFp32, 8));
  EXPECT_TRUE(is_supported(Precision::kFp32, 16));
  EXPECT_TRUE(is_supported(Precision::kFp16, 16));
  EXPECT_TRUE(is_supported(Precision::kFp16, 32));
  EXPECT_TRUE(is_supported(Precision::kUint8, 32));
  EXPECT_TRUE(is_supported(Precision::kUint8, 64));
  EXPECT_TRUE(is_supported(Precision::kUint4, 64));
  EXPECT_TRUE(is_supported(Precision::kUint4, 128));
  EXPECT_FALSE(is_supported(Precision::kFp16, 64));
  EXPECT_FALSE(is_supported(Precision::kFp32, 32));
}

TEST(Shapes, FixedMAndN) {
  for (const auto& s : mma_shape_table()) {
    EXPECT_EQ(s.m, 16u);
    EXPECT_EQ(s.n, 8u);
  }
  EXPECT_EQ(shape_for(Precision::kFp16).name(32), "m16n8k32");
  EXPECT_EQ(shape_for(Precision::kFp32).pattern_n, 1u);
  EXPECT_EQ(shape_for(Precision::kFp32).pattern_m, 2u);
}

/// Dense reference: C += A(16xk) * B(kx8) in double precision.
std::vector<float> dense_ref(std::size_t k, const std::vector<half_t>& a,
                             const std::vector<half_t>& b) {
  std::vector<float> c(16 * 8, 0.0f);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t n = 0; n < 8; ++n)
        c[i * 8 + n] += a[i * k + j].to_float() * b[j * 8 + n].to_float();
  return c;
}

TEST(Mma, DenseMatchesReference) {
  Rng rng(2);
  for (std::size_t k : {8u, 16u}) {
    std::vector<half_t> a(16 * k), b(k * 8);
    for (auto& v : a) v = half_t(rng.normal());
    for (auto& v : b) v = half_t(rng.normal());
    std::vector<float> c(16 * 8, 0.0f);
    mma_dense_fp16(k, a, b, c);
    const auto ref = dense_ref(k, a, b);
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_NEAR(c[i], ref[i], 1e-3f);
  }
}

TEST(Mma, DenseRejectsBadK) {
  std::vector<half_t> a(16 * 32), b(32 * 8);
  std::vector<float> c(16 * 8);
  EXPECT_THROW(mma_dense_fp16(32, a, b, c), Error);
}

TEST(Mma, DenseAccumulatesIntoC) {
  std::vector<half_t> a(16 * 8, half_t(1.0f)), b(8 * 8, half_t(1.0f));
  std::vector<float> c(16 * 8, 100.0f);
  mma_dense_fp16(8, a, b, c);
  for (float v : c) EXPECT_FLOAT_EQ(v, 108.0f);
}

/// Builds a random 2:4 16 x k tile and returns (compressed, metadata,
/// dense expansion).
struct SparseTile {
  std::vector<half_t> comp;
  std::vector<std::uint32_t> meta;
  std::vector<half_t> dense;
};

SparseTile random_24_tile(std::size_t k, Rng& rng) {
  SparseTile t;
  t.comp.resize(16 * k / 2);
  t.dense.assign(16 * k, half_t(0.0f));
  std::vector<std::uint8_t> idx(16 * k / 2);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t g = 0; g < k / 4; ++g) {
      // Pick two distinct positions in the group of 4.
      const std::size_t p0 = rng.uniform_index(3);
      std::size_t p1 = p0 + 1 + rng.uniform_index(3 - p0);
      for (std::size_t j = 0; j < 2; ++j) {
        const std::size_t pos = j == 0 ? p0 : p1;
        const half_t v = half_t(rng.normal());
        t.comp[i * (k / 2) + g * 2 + j] = v;
        idx[i * (k / 2) + g * 2 + j] = std::uint8_t(pos);
        t.dense[i * k + g * 4 + pos] = v;
      }
    }
  t.meta = pack_metadata(idx);
  return t;
}

TEST(Mma, SparseEqualsDenseOnExpandedTile) {
  Rng rng(3);
  for (std::size_t k : {16u, 32u}) {
    const SparseTile t = random_24_tile(k, rng);
    std::vector<half_t> b(k * 8);
    for (auto& v : b) v = half_t(rng.normal());

    std::vector<float> c_sp(16 * 8, 0.0f);
    mma_sp_fp16(k, t.comp, t.meta, b, c_sp);
    const auto ref = dense_ref(k, t.dense, b);
    for (std::size_t i = 0; i < c_sp.size(); ++i)
      EXPECT_NEAR(c_sp[i], ref[i], 1e-3f) << "k=" << k << " i=" << i;
  }
}

TEST(Mma, SparseRejectsUnsupportedK) {
  std::vector<half_t> a(16 * 4), b(8 * 8);
  std::vector<std::uint32_t> meta(4);
  std::vector<float> c(16 * 8);
  EXPECT_THROW(mma_sp_fp16(8, a, meta, b, c), Error);
}

TEST(Mma, SparseRejectsWrongTileSizes) {
  std::vector<half_t> a(16 * 16), b(32 * 8);
  std::vector<std::uint32_t> meta(16);
  std::vector<float> c_bad(16 * 4);
  EXPECT_THROW(mma_sp_fp16(32, a, meta, b, c_bad), Error);
}

TEST(Mma, Fp32VariantOneOfTwo) {
  // 1:2 pattern: each compressed element selects one of 2 columns.
  Rng rng(4);
  const std::size_t k = 8;
  std::vector<float> comp(16 * k / 2), b(k * 8), c(16 * 8, 0.0f);
  std::vector<std::uint8_t> idx(16 * k / 2);
  std::vector<float> dense(16 * k, 0.0f);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t g = 0; g < k / 2; ++g) {
      const auto pos = std::uint8_t(rng.uniform_index(2));
      const float v = rng.normal();
      comp[i * (k / 2) + g] = v;
      idx[i * (k / 2) + g] = pos;
      dense[i * k + g * 2 + pos] = v;
    }
  for (auto& v : b) v = rng.normal();
  mma_sp_fp32(k, comp, pack_metadata(idx), b, c);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t n = 0; n < 8; ++n) {
      float ref = 0.0f;
      for (std::size_t j = 0; j < k; ++j)
        ref += dense[i * k + j] * b[j * 8 + n];
      EXPECT_NEAR(c[i * 8 + n], ref, 1e-4f);
    }
}

TEST(Mma, Uint8VariantAccumulatesInt32) {
  const std::size_t k = 32;
  std::vector<std::uint8_t> comp(16 * k / 2, 2), b(k * 8, 3);
  std::vector<std::uint8_t> idx(16 * k / 2);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i % 2 ? 2 : 0;
  std::vector<std::int32_t> c(16 * 8, 0);
  mma_sp_u8(k, comp, pack_metadata(idx), b, c);
  // Every row has k/2 = 16 products of 2*3.
  for (auto v : c) EXPECT_EQ(v, 16 * 6);
}

// ---- fragment layouts ----------------------------------------------------

TEST(Fragment, A16x16PartitionsTileExactly) {
  std::map<std::pair<std::size_t, std::size_t>, int> owners;
  for (std::size_t t = 0; t < 32; ++t)
    for (std::size_t r = 0; r < 8; ++r) {
      const auto c = a_fragment_m16n8k16(t, r);
      EXPECT_LT(c.row, 16u);
      EXPECT_LT(c.col, 16u);
      owners[{c.row, c.col}]++;
    }
  EXPECT_EQ(owners.size(), 16u * 16u);  // every element owned
  for (const auto& [coord, count] : owners) EXPECT_EQ(count, 1);
}

TEST(Fragment, B16x8PartitionsTileExactly) {
  std::map<std::pair<std::size_t, std::size_t>, int> owners;
  for (std::size_t t = 0; t < 32; ++t)
    for (std::size_t r = 0; r < 4; ++r) {
      const auto c = b_fragment_m16n8k16(t, r);
      owners[{c.row, c.col}]++;
    }
  EXPECT_EQ(owners.size(), 16u * 8u);
  for (const auto& [coord, count] : owners) EXPECT_EQ(count, 1);
}

TEST(Fragment, C16x8PartitionsTileExactly) {
  std::map<std::pair<std::size_t, std::size_t>, int> owners;
  for (std::size_t t = 0; t < 32; ++t)
    for (std::size_t r = 0; r < 4; ++r) {
      const auto c = c_fragment_m16n8(t, r);
      owners[{c.row, c.col}]++;
    }
  EXPECT_EQ(owners.size(), 16u * 8u);
  for (const auto& [coord, count] : owners) EXPECT_EQ(count, 1);
}

TEST(Fragment, SparseB32x8PartitionsTileExactly) {
  std::map<std::pair<std::size_t, std::size_t>, int> owners;
  for (std::size_t t = 0; t < 32; ++t)
    for (std::size_t r = 0; r < 8; ++r) {
      const auto c = b_fragment_m16n8k32_sp(t, r);
      EXPECT_LT(c.row, 32u);
      EXPECT_LT(c.col, 8u);
      owners[{c.row, c.col}]++;
    }
  EXPECT_EQ(owners.size(), 32u * 8u);
  for (const auto& [coord, count] : owners) EXPECT_EQ(count, 1);
}

TEST(Fragment, RegisterPairsAreContiguousColumns) {
  // Consecutive even/odd registers of A hold adjacent columns of the same
  // row: the property that enables 128-bit loads from the Fig. 7 layout.
  for (std::size_t t = 0; t < 32; ++t)
    for (std::size_t r = 0; r < 8; r += 2) {
      const auto c0 = a_fragment_m16n8k16(t, r);
      const auto c1 = a_fragment_m16n8k16(t, r + 1);
      EXPECT_EQ(c0.row, c1.row);
      EXPECT_EQ(c0.col + 1, c1.col);
    }
}

TEST(Fragment, QuarterWarpCoversConsecutiveCColumns) {
  // Threads t, t+1, t+2, t+3 of a C-fragment group cover 8 consecutive
  // columns of one row — the coalescing property of stage 3.
  for (std::size_t base = 0; base < 32; base += 4) {
    std::set<std::size_t> cols;
    std::size_t row = c_fragment_m16n8(base, 0).row;
    for (std::size_t t = base; t < base + 4; ++t)
      for (std::size_t r = 0; r < 2; ++r) {
        const auto c = c_fragment_m16n8(t, r);
        EXPECT_EQ(c.row, row);
        cols.insert(c.col);
      }
    EXPECT_EQ(cols.size(), 8u);
    EXPECT_EQ(*cols.begin(), 0u);
    EXPECT_EQ(*cols.rbegin(), 7u);
  }
}

TEST(Fragment, MetadataOwnership) {
  // Threads 0,4,...,28 carry the metadata; each covers two rows.
  for (std::size_t row = 0; row < 16; ++row) {
    const std::size_t owner = metadata_owner_m16n8k32_sp(row);
    EXPECT_EQ(owner % 4, 0u);
    EXPECT_EQ(owner, 4 * (row / 2));
  }
  EXPECT_THROW(metadata_owner_m16n8k32_sp(16), Error);
}

TEST(Fragment, RejectsOutOfRange) {
  EXPECT_THROW(a_fragment_m16n8k16(32, 0), Error);
  EXPECT_THROW(a_fragment_m16n8k16(0, 8), Error);
  EXPECT_THROW(b_fragment_m16n8k16(0, 4), Error);
  EXPECT_THROW(c_fragment_m16n8(0, 4), Error);
  EXPECT_THROW(b_fragment_m16n8k32_sp(0, 8), Error);
}

}  // namespace
}  // namespace venom::sptc
