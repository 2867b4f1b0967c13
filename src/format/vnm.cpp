#include "format/vnm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace venom {

namespace {

void check_cfg(const HalfMatrix& dense, VnmConfig cfg) {
  VENOM_CHECK_MSG(cfg.v >= 1 && cfg.n >= 1 && cfg.m >= 2 && cfg.n <= cfg.m,
                  "invalid V:N:M config " << cfg.v << ':' << cfg.n << ':'
                                          << cfg.m);
  VENOM_CHECK_MSG(cfg.n <= cfg.selected_cols(),
                  "N=" << cfg.n << " exceeds selected column count "
                       << cfg.selected_cols());
  VENOM_CHECK_MSG(dense.rows() % cfg.v == 0,
                  "rows " << dense.rows() << " not divisible by V=" << cfg.v);
  VENOM_CHECK_MSG(dense.cols() % cfg.m == 0,
                  "cols " << dense.cols() << " not divisible by M=" << cfg.m);
}

/// Picks the `keep` columns of block (rows [r0,r0+v) x cols [c0,c0+m))
/// with the largest L1 energy; returns them sorted ascending.
std::vector<std::uint8_t> select_columns(const HalfMatrix& dense,
                                         std::size_t r0, std::size_t c0,
                                         std::size_t v, std::size_t m,
                                         std::size_t keep) {
  std::vector<double> energy(m, 0.0);
  for (std::size_t dr = 0; dr < v; ++dr)
    for (std::size_t dc = 0; dc < m; ++dc)
      energy[dc] += std::fabs(double(dense(r0 + dr, c0 + dc).to_float()));

  std::vector<std::uint8_t> order(m);
  std::iota(order.begin(), order.end(), std::uint8_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint8_t a, std::uint8_t b) {
                     return energy[a] > energy[b];
                   });
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace

VnmMatrix VnmMatrix::from_dense_magnitude(const HalfMatrix& dense,
                                          VnmConfig cfg) {
  check_cfg(dense, cfg);
  VnmMatrix out;
  out.cfg_ = cfg;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  const std::size_t groups = dense.cols() / cfg.m;
  const std::size_t sel = cfg.selected_cols();
  out.values_.assign(dense.rows() * groups * cfg.n, half_t(0.0f));
  out.m_indices_.assign(dense.rows() * groups * cfg.n, 0);
  out.column_loc_.assign((dense.rows() / cfg.v) * groups * sel, 0);

  std::vector<std::size_t> row_order(sel);
  for (std::size_t br = 0; br < dense.rows() / cfg.v; ++br) {
    for (std::size_t g = 0; g < groups; ++g) {
      const auto cols = select_columns(dense, br * cfg.v, g * cfg.m, cfg.v,
                                       cfg.m, sel);
      for (std::size_t s = 0; s < sel; ++s)
        out.column_loc_[(br * groups + g) * sel + s] = cols[s];

      // Per-row N:M pruning within the selected columns (2:4 stage).
      for (std::size_t dr = 0; dr < cfg.v; ++dr) {
        const std::size_t r = br * cfg.v + dr;
        std::iota(row_order.begin(), row_order.end(), std::size_t{0});
        std::stable_sort(
            row_order.begin(), row_order.end(),
            [&](std::size_t a, std::size_t b) {
              return std::fabs(dense(r, g * cfg.m + cols[a]).to_float()) >
                     std::fabs(dense(r, g * cfg.m + cols[b]).to_float());
            });
        std::vector<std::size_t> kept(row_order.begin(),
                                      row_order.begin() + cfg.n);
        std::sort(kept.begin(), kept.end());
        for (std::size_t j = 0; j < cfg.n; ++j) {
          const std::size_t slot = (r * groups + g) * cfg.n + j;
          out.values_[slot] = dense(r, g * cfg.m + cols[kept[j]]);
          out.m_indices_[slot] = static_cast<std::uint8_t>(kept[j]);
        }
      }
    }
  }
  return out;
}

VnmMatrix VnmMatrix::compress(const HalfMatrix& dense, VnmConfig cfg) {
  check_cfg(dense, cfg);
  VnmMatrix out;
  out.cfg_ = cfg;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  const std::size_t groups = dense.cols() / cfg.m;
  const std::size_t sel = cfg.selected_cols();
  out.values_.assign(dense.rows() * groups * cfg.n, half_t(0.0f));
  out.m_indices_.assign(dense.rows() * groups * cfg.n, 0);
  out.column_loc_.assign((dense.rows() / cfg.v) * groups * sel, 0);

  for (std::size_t br = 0; br < dense.rows() / cfg.v; ++br) {
    for (std::size_t g = 0; g < groups; ++g) {
      // Find the columns occupied anywhere in the block.
      std::vector<std::uint8_t> occupied;
      for (std::size_t dc = 0; dc < cfg.m; ++dc) {
        bool any = false;
        for (std::size_t dr = 0; dr < cfg.v && !any; ++dr)
          any = !dense(br * cfg.v + dr, g * cfg.m + dc).is_zero();
        if (any) occupied.push_back(static_cast<std::uint8_t>(dc));
      }
      VENOM_CHECK_MSG(occupied.size() <= sel,
                      "block (" << br << ',' << g << ") occupies "
                                << occupied.size() << " columns > " << sel);
      // Pad the selection up to `sel` with unused columns (deterministic:
      // the lowest free offsets).
      for (std::uint8_t dc = 0; occupied.size() < sel; ++dc) {
        if (std::find(occupied.begin(), occupied.end(), dc) ==
            occupied.end())
          occupied.push_back(dc);
      }
      std::sort(occupied.begin(), occupied.end());
      for (std::size_t s = 0; s < sel; ++s)
        out.column_loc_[(br * groups + g) * sel + s] = occupied[s];

      for (std::size_t dr = 0; dr < cfg.v; ++dr) {
        const std::size_t r = br * cfg.v + dr;
        std::size_t count = 0;
        for (std::size_t s = 0; s < sel; ++s) {
          const half_t v = dense(r, g * cfg.m + occupied[s]);
          if (v.is_zero()) continue;
          VENOM_CHECK_MSG(count < cfg.n, "row " << r << " group " << g
                                                << " has more than " << cfg.n
                                                << " nonzeros");
          const std::size_t slot = (r * groups + g) * cfg.n + count;
          out.values_[slot] = v;
          out.m_indices_[slot] = static_cast<std::uint8_t>(s);
          ++count;
        }
        // Pad metadata with valid ascending selector indices.
        while (count < cfg.n) {
          const std::size_t slot = (r * groups + g) * cfg.n + count;
          out.m_indices_[slot] = static_cast<std::uint8_t>(
              std::min(count, sel - 1));
          ++count;
        }
      }
    }
  }
  return out;
}

void detail::check_vnm_layout(const VnmConfig& cfg, std::size_t rows,
                              std::size_t cols, std::size_t values_size,
                              const std::vector<std::uint8_t>& m_indices,
                              const std::vector<std::uint8_t>& column_loc) {
  VENOM_CHECK_MSG(cfg.v >= 1 && cfg.n >= 1 && cfg.m >= 2 && cfg.n <= cfg.m &&
                      cfg.n <= cfg.selected_cols(),
                  "invalid V:N:M config " << cfg.v << ':' << cfg.n << ':'
                                          << cfg.m);
  VENOM_CHECK_MSG(rows % cfg.v == 0 && cols % cfg.m == 0,
                  "shape " << rows << 'x' << cols
                           << " not divisible by V/M");
  const std::size_t groups = cols / cfg.m;
  const std::size_t sel = cfg.selected_cols();
  VENOM_CHECK_MSG(values_size == rows * groups * cfg.n,
                  "values size " << values_size);
  VENOM_CHECK_MSG(m_indices.size() == values_size,
                  "m_indices size " << m_indices.size());
  VENOM_CHECK_MSG(column_loc.size() == (rows / cfg.v) * groups * sel,
                  "column_loc size " << column_loc.size());
  for (const std::uint8_t idx : m_indices)
    VENOM_CHECK_MSG(idx < sel, "m-index " << int(idx) << " out of range");
  for (const std::uint8_t loc : column_loc)
    VENOM_CHECK_MSG(loc < cfg.m, "column-loc " << int(loc) << " out of range");
}

VnmMatrix VnmMatrix::from_parts(VnmConfig cfg, std::size_t rows,
                                std::size_t cols, std::vector<half_t> values,
                                std::vector<std::uint8_t> m_indices,
                                std::vector<std::uint8_t> column_loc) {
  check_vnm_parts(cfg, rows, cols, values.size(), m_indices, column_loc,
                  [&](std::size_t i) { return values[i].is_zero(); });

  VnmMatrix out;
  out.cfg_ = cfg;
  out.rows_ = rows;
  out.cols_ = cols;
  out.values_ = std::move(values);
  out.m_indices_ = std::move(m_indices);
  out.column_loc_ = std::move(column_loc);
  return out;
}

HalfMatrix VnmMatrix::to_dense() const {
  HalfMatrix dense(rows_, cols_);
  const std::size_t groups = groups_per_row();
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t g = 0; g < groups; ++g)
      for (std::size_t j = 0; j < cfg_.n; ++j) {
        const half_t v = value(r, g, j);
        if (v.is_zero()) continue;
        dense(r, dense_column(r, g, j)) = v;
      }
  return dense;
}

bool VnmMatrix::conforms(const HalfMatrix& dense, VnmConfig cfg) {
  if (cfg.v < 1 || cfg.n < 1 || cfg.m < 2 || cfg.n > cfg.m) return false;
  if (cfg.n > cfg.selected_cols()) return false;
  if (dense.rows() % cfg.v != 0 || dense.cols() % cfg.m != 0) return false;
  const std::size_t groups = dense.cols() / cfg.m;
  const std::size_t sel = cfg.selected_cols();
  for (std::size_t br = 0; br < dense.rows() / cfg.v; ++br) {
    for (std::size_t g = 0; g < groups; ++g) {
      std::size_t occupied = 0;
      for (std::size_t dc = 0; dc < cfg.m; ++dc) {
        bool any = false;
        for (std::size_t dr = 0; dr < cfg.v && !any; ++dr)
          any = !dense(br * cfg.v + dr, g * cfg.m + dc).is_zero();
        if (any) ++occupied;
      }
      if (occupied > sel) return false;
      for (std::size_t dr = 0; dr < cfg.v; ++dr) {
        std::size_t count = 0;
        for (std::size_t dc = 0; dc < cfg.m; ++dc)
          if (!dense(br * cfg.v + dr, g * cfg.m + dc).is_zero()) ++count;
        if (count > cfg.n) return false;
      }
    }
  }
  return true;
}

HalfMatrix VnmMatrix::gathered_24_view() const {
  const std::size_t groups = groups_per_row();
  const std::size_t sel = cfg_.selected_cols();
  HalfMatrix view(rows_, groups * sel);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t g = 0; g < groups; ++g)
      for (std::size_t j = 0; j < cfg_.n; ++j) {
        const half_t v = value(r, g, j);
        if (v.is_zero()) continue;
        view(r, g * sel + m_index(r, g, j)) = v;
      }
  return view;
}

std::size_t VnmMatrix::compressed_bytes() const {
  // values fp16; m-indices 2 bits each; column-loc ceil(log2(m)) bits per
  // selected column.
  const std::size_t cloc_bits = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(cfg_.m))));
  return values_.size() * sizeof(half_t) + (m_indices_.size() * 2 + 7) / 8 +
         (column_loc_.size() * cloc_bits + 7) / 8;
}

}  // namespace venom
