// Spatha kernel configuration (Section 4.1).
//
// Spatha is template-based on the GPU: thread-block tile (BSr x BSk x BSc),
// warp tile (WSr x WSk x WSc), mma shape, and memory pipeline depth
// (batchSize) are compile-time parameters chosen per problem. The CPU port
// keeps them as a runtime config validated with the same divisibility
// rules; the gpumodel module uses the same struct to cost a kernel launch.
#pragma once

#include <cstddef>
#include <string>

#include "format/vnm.hpp"
#include "ops/dtype.hpp"

namespace venom::spatha {

/// Width of the SMEM stores used when writing output tiles (Fig. 8): the
/// padded conflict-free layout enables 128-bit stores; the fallback issues
/// 32-bit stores. Affects only modelled GPU time, not results.
enum class StoreWidth : std::uint8_t { k32bit, k128bit };

/// Whether the kernel fetches the column-loc structure (real V:N:M) or
/// uses fixed selectors (the "w/o column-loc" ideal of the Fig. 9
/// ablation, which skips the gather's metadata reads).
enum class ColumnLocMode : std::uint8_t { kEnabled, kFixed };

/// Tunable kernel parameters for an R x K x C SpMM.
struct SpmmConfig {
  // Thread-block tile. BSr is implicitly V (the paper sets BSr = V so one
  // block reuses one column-loc row); BSk/BSc are dense K/C tile extents.
  std::size_t block_k = 512;
  std::size_t block_c = 64;

  // Warp tile within the block tile.
  std::size_t warp_r = 32;
  std::size_t warp_k = 64;
  std::size_t warp_c = 64;

  // mma.sp instruction shape (fixed m16n8k32 for fp16).
  std::size_t mma_r = 16;
  std::size_t mma_k = 32;
  std::size_t mma_c = 8;

  // Depth of the GMEM->SMEM async-copy pipeline (stage 1.2/1.3 overlap).
  std::size_t batch_size = 2;

  // CPU execution knob: output tiles handed to a pool runner per claimed
  // chunk (ThreadPool::parallel_for_chunks grain). 0 lets the pool pick a
  // few chunks per worker; small grains balance ragged work, large grains
  // keep a chunk's scratch hot. Does not affect results or modelled time.
  // At C <= detail::kNarrowMaxWidth the fp16 kernel runs its narrow path:
  // there BSk/BSc are unused and the grain counts 16-row chunks, rounded
  // up to a multiple of 4 (detail::narrow_grain).
  std::size_t chunk_grain = 0;

  StoreWidth store_width = StoreWidth::k128bit;
  ColumnLocMode column_loc = ColumnLocMode::kEnabled;

  std::string describe() const;

  friend bool operator==(const SpmmConfig&, const SpmmConfig&) = default;
};

/// Validates `cfg` against a concrete problem; throws venom::Error with a
/// precise message if any divisibility rule is violated.
void validate(const SpmmConfig& cfg, const VnmConfig& fmt, std::size_t rows,
              std::size_t cols, std::size_t b_cols);

/// Kernel-config selection is keyed by datapath. Which tuning-cache
/// entry and which fallback heuristic a dtype uses is one table, written
/// as two switches side by side in spatha/config.cpp:
///
///   dtype        tuning-cache tag   heuristic fallback
///   kF16         ""                 fp16 tiling
///   kI8          "+i8"              int8 quad-kernel tiling
///   kF8E5M2      "+fp8"             fp16 tiling
///   kF8E4M3      "+fp8"             fp16 tiling
///
/// The tag suffixes the CPU feature string of the TuningKey
/// (make_tuning_key), so one cache file holds every datapath's entries
/// without one shadowing another. The fp8 datapath runs vnm-fast's
/// kernels over its weight's packed decode, so both fp8 flavours share
/// one tag (kept apart from fp16's: it is on disk) and the fp16 tiling;
/// the int8 quad micro-kernel's optimum differs structurally, so it has
/// its own tag and tiling.

/// Configuration choice from problem shape. Consults the process-wide
/// empirical tuning cache (spatha/tuning_cache.hpp) first — an entry for
/// (shape, V:N:M, this build's CPU features, the dtype's tag) wins — and
/// falls back to select_config_heuristic when none exists. Every
/// dispatch path that defaults its config (spmm_vnm, the fused
/// variant, sddmm_vnm, transformer::Linear, the quantized kernels)
/// therefore picks up tuned configs transparently.
SpmmConfig select_config(const VnmConfig& fmt, std::size_t rows,
                         std::size_t cols, std::size_t b_cols,
                         ops::Dtype dtype = ops::Dtype::kF16);

class TuningCache;

/// Same selection policy against an explicit tuning cache (a tuned entry
/// that no longer validates degrades to the heuristic). The overload
/// above and ops::ExecContext both route through this, so the
/// hand-editable-cache degradation rules live in exactly one place.
SpmmConfig select_config(const TuningCache& cache, const VnmConfig& fmt,
                         std::size_t rows, std::size_t cols,
                         std::size_t b_cols,
                         ops::Dtype dtype = ops::Dtype::kF16);

/// The fixed shape-driven heuristic (the pre-tuning behaviour): picks
/// tile sizes that divide the problem and balance panel footprint against
/// parallelism. Also the baseline autotune_measured compares against.
/// For kI8 it is the quad-kernel tiling: tiny K panels (a handful of
/// M-groups — the quad-interleaved panel re-streams once per column
/// strip, so it must stay L1-resident) and C tiles twice the fp16 width
/// (the per-panel pack and per-row slot-scatter costs amortize over
/// columns).
SpmmConfig select_config_heuristic(const VnmConfig& fmt, std::size_t rows,
                                   std::size_t cols, std::size_t b_cols,
                                   ops::Dtype dtype = ops::Dtype::kF16);

}  // namespace venom::spatha
