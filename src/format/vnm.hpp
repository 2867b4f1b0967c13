// The V:N:M compressed sparse format (paper Sections 3 and 4, Figs. 2-3).
//
// A dense R x K matrix is partitioned into V x M blocks. In each block the
// vector-wise stage selects 4 columns (out of M); the N:M stage then keeps
// N nonzeros per row among those 4 columns — i.e. the rows of the selected
// sub-block follow the native 2:4 pattern the Sparse Tensor Cores accept.
//
// Three structures represent the result (Fig. 3):
//   values      R x (K/M) x N     fp16 nonzeros
//   m_indices   R x (K/M) x N     2-bit position within the 4 selected cols
//   column_loc  (R/V) x (K/M) x 4 which 4 of the M columns were selected
//
// This is how arbitrary N:M ratios are executed on hardware that only
// supports 2:4: the column_loc gather converts a K-wide row of B into a
// (K/M)*4-wide one, and the remaining selection is exactly 2:4.
#pragma once

#include <cstdint>
#include <vector>

#include "format/nm.hpp"
#include "tensor/matrix.hpp"

namespace venom {

/// V:N:M parameters. `v` is the vector (block height), `n`:`m` the pattern.
/// The paper evaluates v in {1, 16, 32, 64, 128}, n = 2, m in {4..100}.
struct VnmConfig {
  std::size_t v = 64;
  std::size_t n = 2;
  std::size_t m = 8;

  /// Number of columns the vector-wise stage keeps per block. Fixed at 4
  /// by the SPTC 2:4 mapping, except m < 4 degenerates to m (plain N:M).
  std::size_t selected_cols() const { return m < 4 ? m : 4; }

  double sparsity() const {
    return 1.0 - static_cast<double>(n) / static_cast<double>(m);
  }

  /// Ordered so configurations can key plan caches and tuning tables.
  friend auto operator<=>(const VnmConfig&, const VnmConfig&) = default;
};

/// Compressed V:N:M matrix (the VENOM format).
class VnmMatrix {
 public:
  VnmMatrix() = default;

  /// Magnitude-prunes a dense matrix into the V:N:M pattern and
  /// compresses it. Column selection maximizes the per-block L1 energy of
  /// the kept columns, then each row keeps its N largest among the 4.
  static VnmMatrix from_dense_magnitude(const HalfMatrix& dense,
                                        VnmConfig cfg);

  /// Compresses a dense matrix that already conforms to the V:N:M pattern
  /// (per V x M block, nonzeros confined to <= 4 columns; per row of those
  /// columns, <= N nonzeros). Throws venom::Error otherwise.
  static VnmMatrix compress(const HalfMatrix& dense, VnmConfig cfg);

  /// Reassembles a matrix from raw compressed structures (deserialization
  /// path). Validates sizes, index ranges and that no (row, group) stores
  /// two nonzeros in one selector slot; throws venom::Error on any
  /// inconsistency.
  static VnmMatrix from_parts(VnmConfig cfg, std::size_t rows,
                              std::size_t cols, std::vector<half_t> values,
                              std::vector<std::uint8_t> m_indices,
                              std::vector<std::uint8_t> column_loc);

  /// Expands back to dense.
  HalfMatrix to_dense() const;

  /// True if `dense` conforms to the pattern under `cfg`.
  static bool conforms(const HalfMatrix& dense, VnmConfig cfg);

  VnmConfig config() const { return cfg_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t groups_per_row() const { return cols_ / cfg_.m; }
  std::size_t block_rows() const { return rows_ / cfg_.v; }
  std::size_t nnz() const { return values_.size(); }

  /// j-th nonzero value of group g in row r (j < n).
  half_t value(std::size_t r, std::size_t g, std::size_t j) const {
    return values_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  /// Its 2-bit index into the 4 selected columns.
  std::uint8_t m_index(std::size_t r, std::size_t g, std::size_t j) const {
    return m_indices_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  /// The s-th selected column (column offset within the M-group) for block
  /// row br and group g (s < selected_cols()).
  std::uint8_t column_loc(std::size_t br, std::size_t g,
                          std::size_t s) const {
    return column_loc_[(br * groups_per_row() + g) * cfg_.selected_cols() + s];
  }
  /// Absolute dense column of that nonzero.
  std::size_t dense_column(std::size_t r, std::size_t g,
                           std::size_t j) const {
    return g * cfg_.m + column_loc(r / cfg_.v, g, m_index(r, g, j));
  }

  const std::vector<half_t>& values() const { return values_; }
  const std::vector<std::uint8_t>& m_indices() const { return m_indices_; }
  const std::vector<std::uint8_t>& column_locs() const { return column_loc_; }

  /// Reinterprets the kept columns as a dense-in-2:4 matrix: R x (K/M)*4
  /// with the native 2:4 pattern. This is exactly the LHS the SPTC sees
  /// after the column_loc gather of Fig. 4, and is used by tests to show
  /// the V:N:M -> 2:4 reduction is lossless.
  HalfMatrix gathered_24_view() const;

  /// Bytes of the compressed representation (values + 2-bit m-indices +
  /// column-loc bytes), for footprint reporting vs dense.
  std::size_t compressed_bytes() const;

 private:
  VnmConfig cfg_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<half_t> values_;
  std::vector<std::uint8_t> m_indices_;
  std::vector<std::uint8_t> column_loc_;
};

namespace detail {
/// The config, shape, size and index-range half of check_vnm_parts.
void check_vnm_layout(const VnmConfig& cfg, std::size_t rows,
                      std::size_t cols, std::size_t values_size,
                      const std::vector<std::uint8_t>& m_indices,
                      const std::vector<std::uint8_t>& column_loc);
}  // namespace detail

/// Validates raw V:N:M parts, the deserialization path of VnmMatrix and
/// of the quantized containers: config, shape, sizes, index ranges, and
/// that no (row, group) stores two nonzero values in one selector slot
/// (the gathered 2:4 row has one position per slot; zero values may
/// repeat a slot, as compress() pads). `is_zero(i)` tells whether value
/// i of the row-major (row, group, j) array is zero. Throws venom::Error.
template <typename IsZero>
void check_vnm_parts(const VnmConfig& cfg, std::size_t rows,
                     std::size_t cols, std::size_t values_size,
                     const std::vector<std::uint8_t>& m_indices,
                     const std::vector<std::uint8_t>& column_loc,
                     IsZero is_zero) {
  detail::check_vnm_layout(cfg, rows, cols, values_size, m_indices,
                           column_loc);
  const std::size_t groups = cols / cfg.m;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t g = 0; g < groups; ++g) {
      unsigned used = 0;
      for (std::size_t j = 0; j < cfg.n; ++j) {
        const std::size_t i = (r * groups + g) * cfg.n + j;
        if (is_zero(i)) continue;
        const unsigned slot = 1u << m_indices[i];
        VENOM_CHECK_MSG((used & slot) == 0,
                        "row " << r << " group " << g
                               << " stores two nonzeros in selector slot "
                               << int(m_indices[i]));
        used |= slot;
      }
    }
}

}  // namespace venom
