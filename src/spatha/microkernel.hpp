// Internal micro-kernels of vnm-fast (spatha/packed.cpp) over the packed
// operand (spatha/packed.hpp). Not part of the public API.
//
// The kernel splits by output width C:
//
//   wide    (C > kNarrowMaxWidth, or ColumnLocMode::kFixed)
//     stage 1.2  gather_panel: once per (block row, C tile, K panel), the
//                B rows the block row's column-loc selects, converted to
//                a float panel whose row stride ws is the tile width
//                rounded up to the lane width (pad columns hold +0 and
//                never reach the output). A K panel is BSk wide, capped
//                so the panel stays L1-resident (kPanelBytes).
//     stage 2    wide_panel: the V rows of the block row against the
//                panel, in register blocks of RB rows x S strips of one
//                lane register each, RB * S = 8 independent accumulators
//                (2 x 4 when the tile spans 4 strips, 4 x 2 or 8 x 1 when
//                it is narrower). The RB rows step through their slots in
//                lockstep; a slot whose mask bit is clear is passed over.
//   narrow   (C <= kNarrowMaxWidth, column-loc enabled)
//     stage 1.2  B is converted once per call to float and transposed
//                (C x K), so column n is one contiguous gather base.
//     stage 2    narrow_chunks: rows as lanes, the paper's vector-wise
//                stage turned sideways. 16 rows of a V block sit in one
//                register (two on AVX2, sixteen scalars otherwise); each
//                slot is one lookup of the rows' B entries (an
//                in-register permute of the group's B window when M fits
//                a register, a masked gather otherwise) and one masked
//                FMA with their values, four accumulator chains per call.
//
// Numerics: every multiply-add is an explicit lane fma, and packed.cpp
// is compiled with -ffp-contract=off. Per output element the products
// accumulate from +0 in the oracle's ascending (group, j) order and a
// zero-valued slot is skipped, so both paths are bit-identical to
// spmm_vnm_reference and spmm_vnm_scalar (whose multiply-adds are
// std::fma) on every lane width and compiler.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/half.hpp"
#include "common/lanes.hpp"
#include "common/thread_pool.hpp"
#include "spatha/config.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/packed.hpp"
#include "spatha/spmm.hpp"
#include "tensor/matrix.hpp"

namespace venom::spatha::detail {

/// Width of spmm_nm's scalar-coded register strip: 16 lanes = one zmm
/// register. The fp16 and fp8 datapaths run the packed kernels below.
constexpr std::size_t kStrip = 16;

/// Widest C the narrow path takes: the measured crossover. On a 4-vCPU
/// AVX-512 Xeon, the six BERT-base 64:2:8 SpMMs (4 x 768x768, 3072x768,
/// 768x3072) with both paths forced, best of 60 passes on a 4-thread
/// pool, narrow / wide time was 0.37 at C = 1, 0.52 at 4, 0.78 at 8,
/// 0.90 at 12, 0.94 at 14, 1.28 at 16 and 1.50 at 32.
///
/// The crossover rests on narrow_block's permute lookup. On the same
/// shapes and pool, narrow path only, best of 80 passes in 5 alternating
/// pairs, forcing the masked gather instead cost 1.2x at C = 1, 1.7x at
/// 2, 2.3x at 4, 2.6x at 7, 2.8x at 10 and 3.0x at 14 (permute faster in
/// every pair from C = 2), and would pull the crossover under C = 8.
constexpr std::size_t kNarrowMaxWidth = 14;

/// Which stage-2 kernel runs; `packed_path` is the production choice.
enum class PackedPath : std::uint8_t { kWide, kNarrow };

inline PackedPath packed_path(std::size_t width, const SpmmConfig& cfg) {
  return width <= kNarrowMaxWidth && cfg.column_loc == ColumnLocMode::kEnabled
             ? PackedPath::kNarrow
             : PackedPath::kWide;
}

/// Pool grain of the narrow path, in 16-row chunks. BSk and BSc do not
/// apply there; the grain is the config's (or the pool's default, a
/// quarter of an even split) rounded up to a multiple of 4, so every pool
/// task runs whole four-chunk steps of narrow_chunks.
inline std::size_t narrow_grain(const SpmmConfig& cfg, std::size_t chunks,
                                std::size_t workers) {
  const std::size_t grain =
      cfg.chunk_grain != 0
          ? cfg.chunk_grain
          : chunks / (std::max<std::size_t>(1, workers) * 4);
  return std::max<std::size_t>(4, (grain + 3) / 4 * 4);
}

/// spmm_vnm / spmm_vnm_fused on a chosen path, for tests and crossover
/// measurements that run both sides at one width.
FloatMatrix spmm_packed(const PackedVnm& a, const HalfMatrix& b,
                        const SpmmConfig& cfg, PackedPath path,
                        ThreadPool* pool = nullptr,
                        SpmmScratchPool* scratch = nullptr);
HalfMatrix spmm_packed_fused(const PackedVnm& a, const HalfMatrix& b,
                             const Epilogue& epilogue, const SpmmConfig& cfg,
                             PackedPath path, ThreadPool* pool = nullptr,
                             SpmmScratchPool* scratch = nullptr);

/// `w` rounded up to a whole number of L registers.
template <class L>
std::size_t padded_width(std::size_t w) {
  return (w + L::kWidth - 1) / L::kWidth * L::kWidth;
}

/// L1 budget of one wide K panel: the V rows re-read the panel once per
/// slot, so it must stay L1-resident next to the accumulator tile.
constexpr std::size_t kPanelBytes = 24u << 10;

/// M-groups per wide K panel: BSk's, capped at the L1 budget for a tile
/// of row stride ws. The split does not change any output bit.
inline std::size_t wide_groups_per_panel(const SpmmConfig& cfg,
                                         const VnmConfig& fmt,
                                         std::size_t ws) {
  const std::size_t fit = kPanelBytes / (fmt.selected_cols() * ws * 4);
  return std::max<std::size_t>(1, std::min(cfg.block_k / fmt.m, fit));
}

/// Stage 1.2 (wide): panel row g * sel + s, for g in [g0, g1), holds B
/// row g * M + column_loc(br, g, s) (or + s under kFixed), columns
/// [c0, c1), as float, then ws - (c1 - c0) zero pad floats. The panel
/// spans every group, so row g * sel + (a packed m-index) indexes it.
inline void gather_panel(const PackedVnm& p, const HalfMatrix& b,
                         std::size_t br, std::size_t g0, std::size_t g1,
                         std::size_t c0, std::size_t c1, std::size_t ws,
                         bool fixed, float* panel) {
  const VnmConfig fmt = p.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t width = c1 - c0;
  const std::uint8_t* cloc = p.column_locs(br);
  for (std::size_t i = g0 * sel; i < g1 * sel; ++i) {
    const std::size_t offset = fixed ? i % sel : cloc[i];
    float* dst = panel + i * ws;
    half_to_float_n(&b((i / sel) * fmt.m + offset, c0), dst, width);
    std::fill(dst + width, dst + ws, 0.0f);
  }
}

/// RB rows x S strips from column n0, over groups [g0, g1) of format
/// `fmt`. `vals` and `midxs` point at the first row's lane of its chunk
/// (row i, slot k at k * kLanes + i), `masks` at the chunk's slot masks,
/// and `lane` is the first row's lane; `acc` is that row of the tile
/// (row stride ws).
template <class L, std::size_t RB, std::size_t S>
void wide_block(const float* vals, const std::uint8_t* midxs,
                const std::uint16_t* masks, std::size_t lane,
                const VnmConfig& fmt, std::size_t g0, std::size_t g1,
                const float* panel, std::size_t ws, float* acc,
                std::size_t n0) {
  using F = typename L::F;
  constexpr std::size_t kW = L::kWidth;
  constexpr std::size_t kLanes = PackedVnm::kLanes;
  F c[RB][S];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < RB; ++i)
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s)
      c[i][s] = L::load(acc + i * ws + n0 + s * kW);
  const std::size_t sel = fmt.selected_cols();
  for (std::size_t g = g0; g < g1; ++g) {
    const float* group = panel + g * sel * ws + n0;
    for (std::size_t k = g * fmt.n; k < (g + 1) * fmt.n; ++k) {
      const unsigned live = masks[k] >> lane;
#pragma GCC unroll 8
      for (std::size_t i = 0; i < RB; ++i) {
        if (((live >> i) & 1u) == 0) continue;
        const F v = L::set(vals[k * kLanes + i]);
        const float* bp = group + midxs[k * kLanes + i] * ws;
#pragma GCC unroll 4
        for (std::size_t s = 0; s < S; ++s)
          c[i][s] = L::fma(v, L::load(bp + s * kW), c[i][s]);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t i = 0; i < RB; ++i)
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s)
      L::store(acc + i * ws + n0 + s * kW, c[i][s]);
}

/// RB rows across every strip of the tile: 4-strip blocks while RB <= 2,
/// 2-strip blocks while RB <= 4, then single strips.
template <class L, std::size_t RB>
void wide_rows(const float* vals, const std::uint8_t* midxs,
               const std::uint16_t* masks, std::size_t lane,
               const VnmConfig& fmt, std::size_t g0, std::size_t g1,
               const float* panel, std::size_t ws, float* acc) {
  constexpr std::size_t kW = L::kWidth;
  const std::size_t strips = ws / kW;
  std::size_t st = 0;
  if constexpr (RB <= 2)
    for (; st + 4 <= strips; st += 4)
      wide_block<L, RB, 4>(vals, midxs, masks, lane, fmt, g0, g1, panel, ws,
                           acc, st * kW);
  if constexpr (RB <= 4)
    for (; st + 2 <= strips; st += 2)
      wide_block<L, RB, 2>(vals, midxs, masks, lane, fmt, g0, g1, panel, ws,
                           acc, st * kW);
  for (; st < strips; ++st)
    wide_block<L, RB, 1>(vals, midxs, masks, lane, fmt, g0, g1, panel, ws,
                         acc, st * kW);
}

/// Stage 2 (wide): block row br's V rows against the panel of K panel
/// [g0, g1), accumulated into `acc` (V rows of ws floats). RB is the
/// largest power of two up to the strip count's preference that divides
/// V, so a register block never leaves its chunk.
template <class L>
void wide_panel(const PackedVnm& p, std::size_t br, std::size_t g0,
                std::size_t g1, const float* panel, std::size_t ws,
                float* acc) {
  const VnmConfig fmt = p.config();
  const std::size_t strips = ws / L::kWidth;
  std::size_t rb = strips >= 4 ? 2 : strips >= 2 ? 4 : 8;
  while (fmt.v % rb != 0) rb /= 2;
  const auto rows = [&]<std::size_t RB>() {
    for (std::size_t dr = 0; dr < fmt.v; dr += RB) {
      const std::size_t r = br * fmt.v + dr;
      const std::size_t q = r / PackedVnm::kLanes;
      const std::size_t lane = r % PackedVnm::kLanes;
      wide_rows<L, RB>(p.lane_values(q) + lane, p.lane_m_indices(q) + lane,
                       p.lane_masks(q), lane, fmt, g0, g1, panel, ws,
                       acc + dr * ws);
    }
  };
  switch (rb) {
    case 8:
      rows.template operator()<8>();
      break;
    case 4:
      rows.template operator()<4>();
      break;
    case 2:
      rows.template operator()<2>();
      break;
    default:
      rows.template operator()<1>();
  }
}

/// Stage 2 (narrow): NQ chunks from q x NC output columns from c0, into
/// `tile` (NQ * 16 rows of `width` floats). `bt` is B as float,
/// transposed (column n at bt + n * stride, with lane-width zero pad
/// past K). Each slot's B entries are bt[n][g * M + offset]: with
/// kPermute, one in-register lookup into the group's window of B, loaded
/// once per (group, column); otherwise a masked gather.
template <class L, std::size_t NQ, std::size_t NC, bool kPermute>
void narrow_block(const PackedVnm& p, std::size_t q, const float* bt,
                  std::size_t stride, std::size_t c0, float* tile,
                  std::size_t width) {
  using F = typename L::F;
  constexpr std::size_t kW = L::kWidth;
  constexpr std::size_t kLanes = PackedVnm::kLanes;
  constexpr std::size_t kRegs = kLanes / kW;
  const VnmConfig fmt = p.config();
  const float* vals[NQ];
  const std::uint8_t* offs[NQ];
  const std::uint16_t* masks[NQ];
  F acc[NQ][kRegs][NC];
#pragma GCC unroll 4
  for (std::size_t qi = 0; qi < NQ; ++qi) {
    vals[qi] = p.lane_values(q + qi);
    offs[qi] = p.lane_offsets(q + qi);
    masks[qi] = p.lane_masks(q + qi);
#pragma GCC unroll 16
    for (std::size_t h = 0; h < kRegs; ++h)
#pragma GCC unroll 4
      for (std::size_t c = 0; c < NC; ++c) acc[qi][h][c] = L::set(0.0f);
  }
  for (std::size_t g = 0; g < p.groups(); ++g) {
    const float* col[NC];
    F table[NC];
#pragma GCC unroll 4
    for (std::size_t c = 0; c < NC; ++c) {
      col[c] = bt + (c0 + c) * stride + g * fmt.m;
      if constexpr (kPermute) table[c] = L::load(col[c]);
    }
    for (std::size_t k = g * fmt.n; k < (g + 1) * fmt.n; ++k)
#pragma GCC unroll 4
      for (std::size_t qi = 0; qi < NQ; ++qi) {
        const unsigned bits = masks[qi][k];
#pragma GCC unroll 16
        for (std::size_t h = 0; h < kRegs; ++h) {
          const typename L::M m = L::mask_bits(bits >> (h * kW));
          const std::size_t at = k * kLanes + h * kW;
          const F v = L::load(vals[qi] + at);
          const typename L::I idx = L::load_i(offs[qi] + at);
#pragma GCC unroll 4
          for (std::size_t c = 0; c < NC; ++c) {
            F b;
            if constexpr (kPermute)
              b = L::permute(table[c], idx);
            else
              b = L::gather(col[c], idx, m);
            acc[qi][h][c] = L::fma_mask(m, v, b, acc[qi][h][c]);
          }
        }
      }
  }
  float lane[kLanes];
  for (std::size_t qi = 0; qi < NQ; ++qi)
    for (std::size_t c = 0; c < NC; ++c) {
#pragma GCC unroll 16
      for (std::size_t h = 0; h < kRegs; ++h)
        L::store(lane + h * kW, acc[qi][h][c]);
      for (std::size_t i = 0; i < kLanes; ++i)
        tile[(qi * kLanes + i) * width + c0 + c] = lane[i];
    }
}

/// narrow_block with the lookup chosen by the format: an in-register
/// permute when the M-group fits one register, a gather otherwise.
template <class L, std::size_t NQ, std::size_t NC>
void narrow_cols(const PackedVnm& p, std::size_t q, const float* bt,
                 std::size_t stride, std::size_t c0, float* tile,
                 std::size_t width) {
  if constexpr (L::kWidth > 1)
    if (p.config().m <= L::kWidth)
      return narrow_block<L, NQ, NC, true>(p, q, bt, stride, c0, tile, width);
  narrow_block<L, NQ, NC, false>(p, q, bt, stride, c0, tile, width);
}

/// Stage 2 (narrow) for up to four chunks from q: columns four at a time
/// per chunk, then pairs over chunk pairs, then single columns over all
/// four chunks, so each call keeps four independent accumulator chains.
template <class L>
void narrow_chunks(const PackedVnm& p, std::size_t q, std::size_t nq,
                   const float* bt, std::size_t stride, float* tile,
                   std::size_t width) {
  constexpr std::size_t kRows = PackedVnm::kLanes;
  std::size_t c = 0;
  for (; c + 4 <= width; c += 4)
    for (std::size_t i = 0; i < nq; ++i)
      narrow_cols<L, 1, 4>(p, q + i, bt, stride, c, tile + i * kRows * width,
                           width);
  for (; c + 2 <= width; c += 2) {
    std::size_t i = 0;
    for (; i + 2 <= nq; i += 2)
      narrow_cols<L, 2, 2>(p, q + i, bt, stride, c, tile + i * kRows * width,
                           width);
    for (; i < nq; ++i)
      narrow_cols<L, 1, 2>(p, q + i, bt, stride, c, tile + i * kRows * width,
                           width);
  }
  for (; c < width; ++c) {
    std::size_t i = 0;
    if (nq == 4) {
      narrow_cols<L, 4, 1>(p, q, bt, stride, c, tile, width);
      i = 4;
    }
    for (; i < nq; ++i)
      narrow_cols<L, 1, 1>(p, q + i, bt, stride, c, tile + i * kRows * width,
                           width);
  }
}

}  // namespace venom::spatha::detail
