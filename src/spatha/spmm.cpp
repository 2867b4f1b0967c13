#include "spatha/spmm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "spatha/microkernel.hpp"
#include "sptc/metadata.hpp"
#include "sptc/mma.hpp"

namespace venom::spatha {

FloatMatrix spmm_vnm(const VnmMatrix& a, const HalfMatrix& b,
                     const SpmmConfig& cfg, ThreadPool* pool,
                     SpmmScratchPool* scratch) {
  return spmm_vnm(PackedVnm(a), b, cfg, pool, scratch);
}

FloatMatrix spmm_vnm(const VnmMatrix& a, const HalfMatrix& b,
                     ThreadPool* pool) {
  return spmm_vnm(a, b,
                  select_config(a.config(), a.rows(), a.cols(), b.cols()),
                  pool);
}

FloatMatrix spmm_vnm_scalar(const VnmMatrix& a, const HalfMatrix& b,
                            const SpmmConfig& cfg, ThreadPool* pool) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "SpMM shape mismatch");
  validate(cfg, fmt, a.rows(), a.cols(), b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();

  FloatMatrix c(a.rows(), b.cols());
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = a.groups_per_row();
  const std::size_t groups_per_panel = cfg.block_k / fmt.m;
  const std::size_t c_tiles = (b.cols() + cfg.block_c - 1) / cfg.block_c;
  const std::size_t block_rows = a.block_rows();
  const bool fixed = cfg.column_loc == ColumnLocMode::kFixed;

  pool->parallel_for(block_rows * c_tiles, [&](std::size_t t) {
    const std::size_t br = t / c_tiles;
    const std::size_t ct = t % c_tiles;
    const std::size_t c0 = ct * cfg.block_c;
    const std::size_t c1 = std::min(b.cols(), c0 + cfg.block_c);
    const std::size_t width = c1 - c0;

    std::vector<half_t> panel;           // the SMEM image of gathered B
    std::vector<float> acc(fmt.v * width, 0.0f);

    for (std::size_t g0 = 0; g0 < groups; g0 += groups_per_panel) {
      const std::size_t g1 = std::min(groups, g0 + groups_per_panel);
      panel.resize((g1 - g0) * sel * width);
      for (std::size_t g = g0; g < g1; ++g) {
        for (std::size_t s = 0; s < sel; ++s) {
          const std::size_t offset =
              fixed ? s : static_cast<std::size_t>(a.column_loc(br, g, s));
          const half_t* src = &b(g * fmt.m + offset, c0);
          std::copy(src, src + width,
                    &panel[((g - g0) * sel + s) * width]);
        }
      }
      for (std::size_t dr = 0; dr < fmt.v; ++dr) {
        const std::size_t r = br * fmt.v + dr;
        float* arow = &acc[dr * width];
        for (std::size_t g = g0; g < g1; ++g) {
          for (std::size_t j = 0; j < fmt.n; ++j) {
            const half_t v = a.value(r, g, j);
            if (v.is_zero()) continue;
            const float av = v.to_float();
            const half_t* brow =
                &panel[((g - g0) * sel + a.m_index(r, g, j)) * width];
            for (std::size_t n = 0; n < width; ++n)
              arow[n] = std::fma(av, brow[n].to_float(), arow[n]);
          }
        }
      }
    }
    for (std::size_t dr = 0; dr < fmt.v; ++dr) {
      float* crow = &c(br * fmt.v + dr, c0);
      const float* arow = &acc[dr * width];
      std::copy(arow, arow + width, crow);
    }
  });
  return c;
}

FloatMatrix spmm_vnm_scalar(const VnmMatrix& a, const HalfMatrix& b,
                            ThreadPool* pool) {
  return spmm_vnm_scalar(
      a, b, select_config(a.config(), a.rows(), a.cols(), b.cols()), pool);
}

FloatMatrix spmm_vnm_mma(const VnmMatrix& a, const HalfMatrix& b,
                         ThreadPool* pool) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK(a.cols() == b.rows());
  VENOM_CHECK_MSG(fmt.n == 2 && fmt.selected_cols() == 4,
                  "mma.sp path requires the 2:4-mapped configuration");
  VENOM_CHECK_MSG(fmt.v % 16 == 0, "mma path requires 16 | V");
  const std::size_t groups = a.groups_per_row();
  VENOM_CHECK_MSG((groups * 4) % 32 == 0,
                  "mma path requires gathered K divisible by 32");
  VENOM_CHECK_MSG(b.cols() % 8 == 0, "mma path requires 8 | C");
  if (pool == nullptr) pool = &ThreadPool::global();

  // The gathered LHS is the dense-in-2:4 view of Fig. 4: R x groups*4
  // logical, R x groups*2 compressed.
  FloatMatrix c(a.rows(), b.cols());
  const std::size_t gathered_k = groups * 4;   // logical K after gather
  const std::size_t tiles_k = gathered_k / 32;
  const std::size_t tiles_n = b.cols() / 8;
  const std::size_t block_rows = a.block_rows();
  const std::size_t row_tiles_per_block = fmt.v / 16;

  pool->parallel_for_chunks(
      block_rows * row_tiles_per_block * tiles_n,
      [&](std::size_t t0, std::size_t t1) {
        // Tile staging buffers are reused across the tiles of a chunk.
        std::vector<half_t> a_tile(16 * 16);
        std::vector<std::uint8_t> idx_tile(16 * 16);
        std::vector<half_t> b_tile(32 * 8);
        std::vector<float> c_tile(16 * 8);

        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / (row_tiles_per_block * tiles_n);
          const std::size_t rt = (t / tiles_n) % row_tiles_per_block;
          const std::size_t tn = t % tiles_n;
          const std::size_t r0 = br * fmt.v + rt * 16;
          std::fill(c_tile.begin(), c_tile.end(), 0.0f);

          for (std::size_t tk = 0; tk < tiles_k; ++tk) {
            // Each instruction tile covers 8 M-groups (8 groups * 4
            // selected columns = 32 logical / 16 compressed). The
            // compressed row is contiguous in the format arrays, so the
            // staging is two flat 16-element copies per row.
            for (std::size_t i = 0; i < 16; ++i) {
              const std::size_t r = r0 + i;
              const std::size_t base = (r * groups + tk * 8) * 2;
              std::copy(a.values().data() + base,
                        a.values().data() + base + 16, &a_tile[i * 16]);
              std::copy(a.m_indices().data() + base,
                        a.m_indices().data() + base + 16, &idx_tile[i * 16]);
            }
            const auto meta = sptc::pack_metadata(idx_tile);
            // Gathered B tile: row (gg*4 + s) is dense row g*M +
            // column_loc, copied as one contiguous 8-wide strip.
            for (std::size_t gg = 0; gg < 8; ++gg) {
              const std::size_t g = tk * 8 + gg;
              for (std::size_t s = 0; s < 4; ++s) {
                const std::size_t row = g * fmt.m + a.column_loc(br, g, s);
                const half_t* src = &b(row, tn * 8);
                std::copy(src, src + 8, &b_tile[(gg * 4 + s) * 8]);
              }
            }
            sptc::mma_sp_fp16(32, a_tile, meta, b_tile, c_tile);
          }
          for (std::size_t i = 0; i < 16; ++i)
            for (std::size_t n = 0; n < 8; ++n)
              c(r0 + i, tn * 8 + n) = c_tile[i * 8 + n];
        }
      });
  return c;
}

FloatMatrix spmm_vnm_transposed(const VnmMatrix& a, const HalfMatrix& b,
                                const SpmmConfig& cfg, ThreadPool* pool) {
  VENOM_CHECK_MSG(a.rows() == b.rows(),
                  "transposed SpMM shape mismatch: A is " << a.rows() << 'x'
                      << a.cols() << ", B is " << b.rows() << 'x'
                      << b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();

  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  const std::size_t block_rows = a.block_rows();
  const std::size_t width = b.cols();
  const bool fixed = cfg.column_loc == ColumnLocMode::kFixed;

  // Convert B to float once up front: every row is re-read by each of its
  // nonzeros, so the bulk conversion amortizes across groups * N FMAs.
  const FloatMatrix bf = to_float(b);

  // Each task owns a contiguous range of block rows and scatters into a
  // private K x C accumulator; partials are reduced afterwards. Memory
  // is bounded by capping the task count (the CUDA kernel would instead
  // stage per-CTA partials in SMEM and atomically merge); a tuned chunk
  // grain lower-bounds the block rows per task, trading parallelism for
  // fewer K x C partials on small problems.
  std::size_t tasks =
      std::min<std::size_t>(block_rows, std::max<std::size_t>(
                                            1, pool->size()));
  if (cfg.chunk_grain > 0)
    tasks = std::min(tasks,
                     (block_rows + cfg.chunk_grain - 1) / cfg.chunk_grain);
  const std::size_t per_task = (block_rows + tasks - 1) / tasks;
  std::vector<FloatMatrix> partials(tasks);

  pool->parallel_for(tasks, [&](std::size_t t) {
    FloatMatrix local(a.cols(), width);
    // Flat per-row descriptor scratch: dense output row and value of each
    // nonzero, hoisted ahead of the scatter loops.
    std::vector<float> vals(groups * fmt.n);
    std::vector<std::uint32_t> rows(groups * fmt.n);
    const std::size_t br0 = t * per_task;
    const std::size_t br1 = std::min(block_rows, br0 + per_task);
    for (std::size_t br = br0; br < br1; ++br) {
      for (std::size_t dr = 0; dr < fmt.v; ++dr) {
        const std::size_t r = br * fmt.v + dr;
        const half_t* avals = a.values().data() + r * groups * fmt.n;
        const std::uint8_t* midx = a.m_indices().data() + r * groups * fmt.n;
        std::size_t cnt = 0;
        for (std::size_t k = 0; k < groups * fmt.n; ++k) {
          if (avals[k].is_zero()) continue;
          const std::size_t g = k / fmt.n;
          vals[cnt] = avals[k].to_float();
          rows[cnt] = static_cast<std::uint32_t>(
              g * fmt.m +
              (fixed ? midx[k] : a.column_loc(br, g, midx[k])));
          ++cnt;
        }
        const float* brow = &bf(r, 0);
        for (std::size_t x = 0; x < cnt; ++x) {
          const float av = vals[x];
          float* crow = &local(rows[x], 0);
          for (std::size_t n = 0; n < width; ++n) crow[n] += av * brow[n];
        }
      }
    }
    partials[t] = std::move(local);
  });

  FloatMatrix c = std::move(partials[0]);
  for (std::size_t t = 1; t < tasks; ++t)
    for (std::size_t i = 0; i < c.size(); ++i)
      c.flat()[i] += partials[t].flat()[i];
  return c;
}

FloatMatrix spmm_vnm_transposed(const VnmMatrix& a, const HalfMatrix& b,
                                ThreadPool* pool) {
  return spmm_vnm_transposed(
      a, b, select_config(a.config(), a.rows(), a.cols(), b.cols()), pool);
}

FloatMatrix spmm_vnm_transposed_scalar(const VnmMatrix& a,
                                       const HalfMatrix& b,
                                       ColumnLocMode mode) {
  VENOM_CHECK_MSG(a.rows() == b.rows(),
                  "transposed SpMM shape mismatch: A is " << a.rows() << 'x'
                      << a.cols() << ", B is " << b.rows() << 'x'
                      << b.cols());
  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  const bool fixed = mode == ColumnLocMode::kFixed;
  FloatMatrix c(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const std::size_t br = r / fmt.v;
    for (std::size_t g = 0; g < groups; ++g)
      for (std::size_t j = 0; j < fmt.n; ++j) {
        const half_t v = a.value(r, g, j);
        if (v.is_zero()) continue;
        const std::uint8_t midx = a.m_index(r, g, j);
        const std::size_t row =
            g * fmt.m + (fixed ? midx : a.column_loc(br, g, midx));
        const float av = v.to_float();
        for (std::size_t n = 0; n < b.cols(); ++n)
          c(row, n) += av * b(r, n).to_float();
      }
  }
  return c;
}

// Deliberately independent of spmm_24 despite the shared staging shape:
// spmm_24 is this kernel's bit-parity oracle (like spmm_vnm_scalar is for
// spmm_vnm) — its inner loop streams each nonzero through memory while
// this one keeps an output strip in registers across all of them — so
// folding the two into one implementation would make the parity test
// vacuous.
FloatMatrix spmm_nm(const NmMatrix& a, const HalfMatrix& b,
                    ThreadPool* pool) {
  const NmPattern p = a.pattern();
  VENOM_CHECK_MSG(a.cols() == b.rows(),
                  "N:M SpMM shape mismatch: A is " << a.rows() << 'x'
                      << a.cols() << ", B is " << b.rows() << 'x' << b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();

  FloatMatrix c(a.rows(), b.cols());
  const std::size_t groups = a.groups_per_row();
  const std::size_t width = b.cols();
  constexpr std::size_t kRowBlock = 32;
  const std::size_t row_blocks = (a.rows() + kRowBlock - 1) / kRowBlock;

  // Stage 1: one bulk fp16->float conversion of B, shared by every row
  // (each dense row is re-read by all the nonzeros that select it).
  const FloatMatrix bf = to_float(b);

  pool->parallel_for_chunks(row_blocks, [&](std::size_t rb0, std::size_t rb1) {
    std::vector<float> vals(groups * p.n);
    std::vector<std::uint32_t> rows(groups * p.n);
    for (std::size_t rb = rb0; rb < rb1; ++rb) {
      const std::size_t r0 = rb * kRowBlock;
      const std::size_t r1 = std::min(a.rows(), r0 + kRowBlock);
      for (std::size_t r = r0; r < r1; ++r) {
        // Hoist the row's nonzero descriptors (value, dense B row) out of
        // the compressed structures, in ascending (group, j) order.
        const half_t* avals = a.values().data() + r * groups * p.n;
        const std::uint8_t* aidx = a.indices().data() + r * groups * p.n;
        std::size_t cnt = 0;
        for (std::size_t k = 0; k < groups * p.n; ++k) {
          if (avals[k].is_zero()) continue;
          vals[cnt] = avals[k].to_float();
          rows[cnt] =
              static_cast<std::uint32_t>((k / p.n) * p.m + aidx[k]);
          ++cnt;
        }

        // Stage 2: register-blocked strips — the output strip stays in
        // registers across all of the row's nonzeros, so each element
        // still accumulates in ascending (group, j) order (bit-identical
        // to spmm_24's element order) while C traffic drops to one
        // read-modify-write per strip.
        float* crow = &c(r, 0);
        std::size_t n0 = 0;
        for (; n0 + detail::kStrip <= width; n0 += detail::kStrip) {
          float regs[detail::kStrip];
          for (std::size_t u = 0; u < detail::kStrip; ++u)
            regs[u] = crow[n0 + u];
          for (std::size_t t = 0; t < cnt; ++t) {
            const float av = vals[t];
            const float* brow = &bf(rows[t], n0);
            for (std::size_t u = 0; u < detail::kStrip; ++u)
              regs[u] += av * brow[u];
          }
          for (std::size_t u = 0; u < detail::kStrip; ++u)
            crow[n0 + u] = regs[u];
        }
        if (n0 < width) {
          const std::size_t rem = width - n0;
          for (std::size_t t = 0; t < cnt; ++t) {
            const float av = vals[t];
            const float* brow = &bf(rows[t], n0);
            float* cr = crow + n0;
            for (std::size_t u = 0; u < rem; ++u) cr[u] += av * brow[u];
          }
        }
      }
    }
  });
  return c;
}

FloatMatrix spmm_vnm_reference(const VnmMatrix& a, const HalfMatrix& b) {
  VENOM_CHECK(a.cols() == b.rows());
  FloatMatrix c(a.rows(), b.cols());
  const std::size_t groups = a.groups_per_row();
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t g = 0; g < groups; ++g)
      for (std::size_t j = 0; j < a.config().n; ++j) {
        const half_t v = a.value(r, g, j);
        if (v.is_zero()) continue;
        const std::size_t col = a.dense_column(r, g, j);
        for (std::size_t n = 0; n < b.cols(); ++n)
          c(r, n) = std::fma(v.to_float(), b(col, n).to_float(), c(r, n));
      }
  return c;
}

}  // namespace venom::spatha
