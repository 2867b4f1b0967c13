#include "spatha/epilogue.hpp"

#include <algorithm>
#include <vector>

#include "common/fmath.hpp"
#include "spatha/microkernel.hpp"

namespace venom::spatha {

float apply_activation(Activation act, float v) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Activation::kGelu:
      return fmath::gelu(v);
  }
  return v;
}

namespace {

/// Shared stage-1/2 body: accumulates the V x [c0,c1) tile of block row
/// `br` into s.acc through the packed float-panel micro-kernel.
void accumulate_block(const VnmMatrix& a, const HalfMatrix& b,
                      const SpmmConfig& cfg, std::size_t br, std::size_t c0,
                      std::size_t c1, detail::SpmmScratch& s) {
  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  const std::size_t groups_per_panel = cfg.block_k / fmt.m;
  const std::size_t width = c1 - c0;
  const bool fixed = cfg.column_loc == ColumnLocMode::kFixed;

  for (std::size_t g0 = 0; g0 < groups; g0 += groups_per_panel) {
    const std::size_t g1 = std::min(groups, g0 + groups_per_panel);
    detail::gather_b_panel_f32(a, b, br, g0, g1, c0, c1, fixed, s.panel);
    detail::accumulate_panel_f32(a, br, g0, g1, width, s, s.acc.data());
  }
}

}  // namespace

HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, const SpmmConfig& cfg,
                          ThreadPool* pool, SpmmScratchPool* scratch) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "SpMM shape mismatch");
  VENOM_CHECK_MSG(epilogue.bias.empty() || epilogue.bias.size() == a.rows(),
                  "bias size " << epilogue.bias.size() << " != rows "
                               << a.rows());
  validate(cfg, fmt, a.rows(), a.cols(), b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();

  HalfMatrix c(a.rows(), b.cols());
  const std::size_t c_tiles = (b.cols() + cfg.block_c - 1) / cfg.block_c;

  pool->parallel_for_chunks(
      a.block_rows() * c_tiles, [&](std::size_t t0, std::size_t t1) {
        detail::ScratchLease scratch_lease;
        detail::SpmmScratch& s = scratch_lease.bind(scratch);
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / c_tiles;
          const std::size_t ct = t % c_tiles;
          const std::size_t c0 = ct * cfg.block_c;
          const std::size_t c1 = std::min(b.cols(), c0 + cfg.block_c);
          const std::size_t width = c1 - c0;

          s.acc.assign(fmt.v * width, 0.0f);
          accumulate_block(a, b, cfg, br, c0, c1, s);

          // Fused stage 3: bias + activation in float, then one bulk fp16
          // conversion per output row.
          for (std::size_t dr = 0; dr < fmt.v; ++dr) {
            const std::size_t r = br * fmt.v + dr;
            const float bias = epilogue.bias.empty() ? 0.0f : epilogue.bias[r];
            float* arow = &s.acc[dr * width];
            for (std::size_t n = 0; n < width; ++n)
              arow[n] = apply_activation(epilogue.activation, arow[n] + bias);
            float_to_half_n(arow, &c(r, c0), width);
          }
        }
      },
      cfg.chunk_grain);
  return c;
}

HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, ThreadPool* pool) {
  return spmm_vnm_fused(a, b, epilogue,
                        select_config(a.config(), a.rows(), a.cols(),
                                      b.cols()),
                        pool);
}

std::vector<FloatMatrix> spmm_vnm_batched(const VnmMatrix& a,
                                          std::span<const HalfMatrix> bs,
                                          ThreadPool* pool) {
  VENOM_CHECK_MSG(!bs.empty(), "empty batch");
  const std::size_t b_rows = bs[0].rows();
  const std::size_t b_cols = bs[0].cols();
  for (const auto& b : bs)
    VENOM_CHECK_MSG(b.rows() == b_rows && b.cols() == b_cols,
                    "batch operands must share a shape");
  VENOM_CHECK(a.cols() == b_rows);
  if (pool == nullptr) pool = &ThreadPool::global();

  const VnmConfig fmt = a.config();
  const SpmmConfig cfg = select_config(fmt, a.rows(), a.cols(), b_cols);
  std::vector<FloatMatrix> cs(bs.size());
  for (auto& c : cs) c = FloatMatrix(a.rows(), b_cols);

  const std::size_t c_tiles = (b_cols + cfg.block_c - 1) / cfg.block_c;
  pool->parallel_for_chunks(
      a.block_rows() * c_tiles, [&](std::size_t t0, std::size_t t1) {
        detail::SpmmScratch s;
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / c_tiles;
          const std::size_t ct = t % c_tiles;
          const std::size_t c0 = ct * cfg.block_c;
          const std::size_t c1 = std::min(b_cols, c0 + cfg.block_c);
          const std::size_t width = c1 - c0;

          // The sparse operand's traversal order and column-loc reads
          // repeat identically for every batch element — the
          // weight-stationary reuse batched inference exploits.
          for (std::size_t batch = 0; batch < bs.size(); ++batch) {
            s.acc.assign(fmt.v * width, 0.0f);
            accumulate_block(a, bs[batch], cfg, br, c0, c1, s);
            for (std::size_t dr = 0; dr < fmt.v; ++dr)
              std::copy(&s.acc[dr * width], &s.acc[dr * width] + width,
                        &cs[batch](br * fmt.v + dr, c0));
          }
        }
      },
      cfg.chunk_grain);
  return cs;
}

}  // namespace venom::spatha
