// The packed V:N:M operand and vnm-fast's kernels over it (see
// packed.hpp for the layouts, microkernel.hpp for the stages). This file
// is compiled with -ffp-contract=off: every multiply-add in it is an
// explicit lane fma.
#include "spatha/packed.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/lanes.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/microkernel.hpp"
#include "spatha/spmm.hpp"

namespace venom::spatha {

PackedVnm::PackedVnm(const VnmMatrix& a)
    : PackedVnm(std::shared_ptr<const VnmMatrix>(
          std::shared_ptr<const VnmMatrix>(), &a)) {}

PackedVnm::PackedVnm(std::shared_ptr<const VnmMatrix> a)
    : source_(std::move(a)),
      cfg_(source_->config()),
      rows_(source_->rows()),
      cols_(source_->cols()) {
  const std::size_t n_slots = slots();
  const std::size_t sel = cfg_.selected_cols();
  const std::size_t lanes = chunks() * n_slots * kLanes;
  const half_t* values = source_->values().data();
  const std::uint8_t* m_indices = source_->m_indices().data();
  lane_values_.resize(lanes);
  lane_m_indices_.resize(lanes);
  lane_offsets_.resize(lanes);
  lane_masks_.resize(chunks() * n_slots);
  // Slot k's group's first column-loc, g * sel (no division below).
  std::vector<std::uint32_t> first(n_slots);
  for (std::size_t k = 0; k < n_slots; ++k)
    first[k] = static_cast<std::uint32_t>((k / cfg_.n) * sel);
  // Chunk by chunk: a row's values widen in one bulk conversion, then
  // its lane of the chunk is written slot by slot.
  std::vector<float> widened(n_slots);
  for (std::size_t q = 0; q < chunks(); ++q) {
    float* vals = lane_values_.data() + q * n_slots * kLanes;
    std::uint8_t* midxs = lane_m_indices_.data() + q * n_slots * kLanes;
    std::uint8_t* offs = lane_offsets_.data() + q * n_slots * kLanes;
    std::uint16_t* masks = lane_masks_.data() + q * n_slots;
    std::fill(masks, masks + n_slots, 0);
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::size_t r = q * kLanes + i;
      if (r >= rows_) {
        for (std::size_t k = 0; k < n_slots; ++k) {
          vals[k * kLanes + i] = 0.0f;
          midxs[k * kLanes + i] = 0;
          offs[k * kLanes + i] = 0;
        }
        continue;
      }
      half_to_float_n(values + r * n_slots, widened.data(), n_slots);
      const std::uint8_t* cloc = column_locs(r / cfg_.v);
      const std::uint8_t* midx = m_indices + r * n_slots;
      for (std::size_t k = 0; k < n_slots; ++k) {
        const float v = widened[k];
        // A zero slot (+-0; fp16 subnormals widen to nonzero floats)
        // keeps a valid m-index and offset; its mask bit stays clear.
        vals[k * kLanes + i] = v;
        midxs[k * kLanes + i] = midx[k];
        offs[k * kLanes + i] = cloc[first[k] + midx[k]];
        masks[k] |= static_cast<std::uint16_t>((v != 0.0f) << i);
      }
    }
  }
}

namespace {

using L = lanes::Native;

/// Stage 3 hands each finished output row segment to a sink: row r,
/// columns [c0, c0 + width), as floats it may modify in place.
struct FloatSink {
  FloatMatrix& c;
  void operator()(std::size_t r, std::size_t c0, float* row,
                  std::size_t width) const {
    std::copy(row, row + width, &c(r, c0));
  }
};

struct EpilogueSink {
  HalfMatrix& c;
  const Epilogue& epilogue;
  void operator()(std::size_t r, std::size_t c0, float* row,
                  std::size_t width) const {
    apply_epilogue(epilogue, r, row, width);
    float_to_half_n(row, &c(r, c0), width);
  }
};

/// Wide path: one pool iteration per (block row, C tile), the paper's
/// thread-block decomposition (Fig. 5); scratch per chunk. Both paths
/// pass their multiply-adds, nnz x C, to the pool's inline rule.
template <class Sink>
void run_wide(const PackedVnm& p, const HalfMatrix& b, const SpmmConfig& cfg,
              ThreadPool* pool, SpmmScratchPool* scratch, const Sink& sink) {
  const VnmConfig fmt = p.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = p.groups();
  const std::size_t c_tiles = (b.cols() + cfg.block_c - 1) / cfg.block_c;
  const bool fixed = cfg.column_loc == ColumnLocMode::kFixed;
  pool->parallel_for_chunks(
      p.block_rows() * c_tiles,
      [&](std::size_t t0, std::size_t t1) {
        detail::ScratchLease lease;
        detail::SpmmScratch& s = lease.bind(scratch);
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / c_tiles;
          const std::size_t c0 = (t % c_tiles) * cfg.block_c;
          const std::size_t c1 = std::min(b.cols(), c0 + cfg.block_c);
          const std::size_t ws = detail::padded_width<L>(c1 - c0);
          const std::size_t groups_per_panel =
              detail::wide_groups_per_panel(cfg, fmt, ws);
          s.acc.assign(fmt.v * ws, 0.0f);
          s.panel.resize(groups * sel * ws);
          for (std::size_t g0 = 0; g0 < groups; g0 += groups_per_panel) {
            const std::size_t g1 = std::min(groups, g0 + groups_per_panel);
            detail::gather_panel(p, b, br, g0, g1, c0, c1, ws, fixed,
                                 s.panel.data());
            detail::wide_panel<L>(p, br, g0, g1, s.panel.data(), ws,
                                  s.acc.data());
          }
          for (std::size_t dr = 0; dr < fmt.v; ++dr)
            sink(br * fmt.v + dr, c0, &s.acc[dr * ws], c1 - c0);
        }
      },
      cfg.chunk_grain, p.rows() * p.slots() * b.cols());
}

/// Narrow path: B converted and transposed once, then pool iterations
/// over 16-row chunks, four chunks per register-blocked step.
template <class Sink>
void run_narrow(const PackedVnm& p, const HalfMatrix& b, const SpmmConfig& cfg,
                ThreadPool* pool, SpmmScratchPool* scratch, const Sink& sink) {
  VENOM_CHECK_MSG(cfg.column_loc == ColumnLocMode::kEnabled,
                  "the narrow SpMM path resolves column-locs at pack time");
  constexpr std::size_t kRows = PackedVnm::kLanes;
  const std::size_t width = b.cols();
  const std::size_t k_dim = p.cols();
  const std::size_t stride = k_dim + L::kWidth;
  detail::ScratchLease bt_lease;
  detail::SpmmScratch& bs = bt_lease.bind(scratch);
  std::vector<float>& bt = bs.panel;
  bs.acc.resize(k_dim * width);
  half_to_float_n(b.flat().data(), bs.acc.data(), k_dim * width);
  bt.assign(width * stride, 0.0f);
  for (std::size_t k = 0; k < k_dim; ++k)
    for (std::size_t n = 0; n < width; ++n)
      bt[n * stride + k] = bs.acc[k * width + n];
  pool->parallel_for_chunks(
      p.chunks(),
      [&](std::size_t q0, std::size_t q1) {
        detail::ScratchLease lease;
        detail::SpmmScratch& s = lease.bind(scratch);
        s.acc.resize(4 * kRows * width);
        for (std::size_t q = q0; q < q1; q += 4) {
          const std::size_t nq = std::min<std::size_t>(4, q1 - q);
          detail::narrow_chunks<L>(p, q, nq, bt.data(), stride,
                                   s.acc.data(), width);
          const std::size_t r0 = q * kRows;
          const std::size_t r1 = std::min(p.rows(), (q + nq) * kRows);
          for (std::size_t r = r0; r < r1; ++r)
            sink(r, 0, &s.acc[(r - r0) * width], width);
        }
      },
      detail::narrow_grain(cfg, p.chunks(), pool->size()),
      p.rows() * p.slots() * width);
}

template <class Sink>
void run_packed(const PackedVnm& p, const HalfMatrix& b, const SpmmConfig& cfg,
                detail::PackedPath path, ThreadPool* pool,
                SpmmScratchPool* scratch, const Sink& sink) {
  VENOM_CHECK_MSG(p.cols() == b.rows(), "SpMM shape mismatch");
  validate(cfg, p.config(), p.rows(), p.cols(), b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();
  if (path == detail::PackedPath::kNarrow)
    run_narrow(p, b, cfg, pool, scratch, sink);
  else
    run_wide(p, b, cfg, pool, scratch, sink);
}

}  // namespace

namespace detail {

FloatMatrix spmm_packed(const PackedVnm& a, const HalfMatrix& b,
                        const SpmmConfig& cfg, PackedPath path,
                        ThreadPool* pool, SpmmScratchPool* scratch) {
  FloatMatrix c(a.rows(), b.cols());
  run_packed(a, b, cfg, path, pool, scratch, FloatSink{c});
  return c;
}

HalfMatrix spmm_packed_fused(const PackedVnm& a, const HalfMatrix& b,
                             const Epilogue& epilogue, const SpmmConfig& cfg,
                             PackedPath path, ThreadPool* pool,
                             SpmmScratchPool* scratch) {
  VENOM_CHECK_MSG(epilogue.bias.empty() || epilogue.bias.size() == a.rows(),
                  "bias size " << epilogue.bias.size() << " != rows "
                               << a.rows());
  HalfMatrix c(a.rows(), b.cols());
  run_packed(a, b, cfg, path, pool, scratch, EpilogueSink{c, epilogue});
  return c;
}

}  // namespace detail

FloatMatrix spmm_vnm(const PackedVnm& a, const HalfMatrix& b,
                     const SpmmConfig& cfg, ThreadPool* pool,
                     SpmmScratchPool* scratch) {
  return detail::spmm_packed(a, b, cfg, detail::packed_path(b.cols(), cfg),
                             pool, scratch);
}

HalfMatrix spmm_vnm_fused(const PackedVnm& a, const HalfMatrix& b,
                          const Epilogue& epilogue, const SpmmConfig& cfg,
                          ThreadPool* pool, SpmmScratchPool* scratch) {
  return detail::spmm_packed_fused(a, b, epilogue, cfg,
                                   detail::packed_path(b.cols(), cfg), pool,
                                   scratch);
}

}  // namespace venom::spatha
