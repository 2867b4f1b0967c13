// The packed V:N:M operand: vnm-fast's per-weight image of A.
//
// Spatha lays out the compressed operand and its column-loc metadata
// once, ahead of every launch (paper Section 4). PackedVnm is the CPU
// analogue: built once per weight in O(nnz), immutable, and shared by
// every execution at every batch width (a transformer::Linear owns one;
// ops::PlanCache keeps one per fingerprinted weight). The kernels over it
// (spmm_vnm / spmm_vnm_fused, spatha/packed.cpp) read no fp16 of A and
// hoist nothing per tile.
//
// One lane-interleaved layout serves both kernels. Rows sit in chunks of
// kLanes = 16 (a chunk of a V block when 16 | V); a chunk stores, slot
// after slot in the oracle's ascending (group, j) order, its 16 rows'
//   values        the fp16 value widened to float;
//   m-indices     the selected column j of the group (byte), so the
//                 wide kernel reads gathered-panel row g * sel + j;
//   offsets       column_loc(br, g, j), the dense column within the
//                 M-group the narrow kernel reads (byte: M <= 256);
// then one 16-bit mask per slot (bit i: row i holds a nonzero there).
// That is 6 bytes per slot, against 3 in the VnmMatrix.
// Every row of a block row has the same slot count, so V rows run in
// lockstep, K panel [g0, g1) is slots [g0 * n, g1 * n), and the rows of
// a register block share one base pointer. Rows past the last hold mask
// bit 0. The column-locs themselves are read from the source VnmMatrix,
// which the packed form keeps (or borrows) rather than copies.
//
// The mask is the one record of a zero-valued slot, and such a slot is
// never multiplied: the wide kernel passes over a clear bit and the
// narrow kernel's FMA is masked by it. The oracle skips those slots too,
// and a padded 0 x inf would be NaN.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "format/vnm.hpp"

namespace venom::spatha {

class PackedVnm {
 public:
  /// Rows per narrow chunk: one AVX-512 register of rows.
  static constexpr std::size_t kLanes = 16;

  /// Packs `a` and shares its ownership.
  explicit PackedVnm(std::shared_ptr<const VnmMatrix> a);
  /// Packs `a` without owning it: `a` must outlive the packed form (a
  /// plan-less call's per-call pack, a local in a test or a tuner).
  explicit PackedVnm(const VnmMatrix& a);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const VnmConfig& config() const { return cfg_; }
  std::size_t groups() const { return cols_ / cfg_.m; }
  std::size_t block_rows() const { return rows_ / cfg_.v; }
  /// Slots per row: groups() * n, zero-valued ones included.
  std::size_t slots() const { return groups() * cfg_.n; }
  std::size_t chunks() const { return (rows_ + kLanes - 1) / kLanes; }

  /// Chunk q's slot k holds its 16 rows at (q * slots() + k) * kLanes.
  const float* lane_values(std::size_t q) const {
    return lane_values_.data() + q * slots() * kLanes;
  }
  const std::uint8_t* lane_m_indices(std::size_t q) const {
    return lane_m_indices_.data() + q * slots() * kLanes;
  }
  const std::uint8_t* lane_offsets(std::size_t q) const {
    return lane_offsets_.data() + q * slots() * kLanes;
  }
  const std::uint16_t* lane_masks(std::size_t q) const {
    return lane_masks_.data() + q * slots();
  }
  /// The operand this was packed from.
  const VnmMatrix& source() const { return *source_; }
  /// Block row br's column-loc bytes (the wide path's B gather).
  const std::uint8_t* column_locs(std::size_t br) const {
    return source_->column_locs().data() +
           br * groups() * cfg_.selected_cols();
  }

 private:
  // Owning, or (the borrowing constructor) an empty owner aliasing the
  // caller's operand.
  std::shared_ptr<const VnmMatrix> source_;
  VnmConfig cfg_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> lane_values_;
  std::vector<std::uint8_t> lane_m_indices_;
  std::vector<std::uint8_t> lane_offsets_;
  std::vector<std::uint16_t> lane_masks_;
};

}  // namespace venom::spatha
