// Autotuning of the Spatha kernel configuration: analytical and measured.
//
// Spatha on the GPU is a template library: tile sizes and pipeline depth
// are compile-time parameters chosen per problem from a tuning table.
// This module reproduces building that table two ways:
//
//   enumerate_configs / autotune   the offline analytical half — every
//       valid configuration costed by the device model and ranked by
//       modeled time (the paper's table built without hardware).
//
//   autotune_measured   the empirical half — real spmm_vnm executions
//       benchmarked on this machine over the tile candidates, seeded and
//       pruned by the analytical ranking so only the top tiles (crossed
//       with the CPU-side chunk-grain axis) are timed. The result carries
//       a ready-to-persist tuning-cache entry; once inserted into
//       spatha::TuningCache, select_config dispatches it transparently.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "gpumodel/kernel_models.hpp"
#include "ops/dtype.hpp"
#include "spatha/config.hpp"
#include "spatha/tuning_cache.hpp"
#include "tensor/matrix.hpp"

namespace venom::gpumodel {

/// One scored candidate from the analytical search.
struct TunedConfig {
  spatha::SpmmConfig config;
  KernelCost cost;
  double total_s() const { return cost.total(); }
};

/// Search-space bounds. The tile axes cover the sizes the paper's
/// templates instantiate; the chunk-grain axis exists only on the CPU
/// executor and is exercised by the measured search (the analytical
/// model ignores it).
struct TuneSpace {
  std::vector<std::size_t> block_c = {16, 32, 64, 128};
  std::vector<std::size_t> block_k_groups = {16, 32, 64, 128, 256};
  std::vector<std::size_t> batch_sizes = {1, 2, 3, 4};

  /// parallel_for_chunks grains (output tiles per claimed chunk); 0 is
  /// the pool's own choice of a few chunks per worker.
  std::vector<std::size_t> chunk_grains = {0, 1, 2, 4};
};

/// Exhaustively scores every valid configuration for the problem and
/// returns them sorted by modeled time (best first). Never empty —
/// throws venom::Error only if no candidate validates.
std::vector<TunedConfig> enumerate_configs(const DeviceSpec& dev,
                                           GemmShape shape, VnmConfig fmt,
                                           const TuneSpace& space = {});

/// The best configuration for the problem under the analytical model.
TunedConfig autotune(const DeviceSpec& dev, GemmShape shape, VnmConfig fmt,
                     const TuneSpace& space = {});

/// Knobs of the measured search.
struct MeasureOptions {
  /// Distinct (block_k, block_c) tiles measured in total, INCLUDING the
  /// heuristic baseline tile that always occupies the first slot.
  std::size_t max_tiles = 8;
  double min_sample_s = 0.02;   ///< per-candidate timing budget (seconds)
  std::size_t warmup = 1;       ///< untimed calls per candidate
  /// Bit-compare the winner against the dtype's own scalar oracle
  /// (spmm_vnm_reference / spmm_vnm_i8_scalar / spmm_vnm_fp8_scalar).
  bool verify = true;
  ThreadPool* pool = nullptr;   ///< measuring pool; nullptr = global()
  const DeviceSpec* dev = nullptr;  ///< seeding model; nullptr = rtx3090()
  /// Datapath to tune: measurement runs the matching kernel over an
  /// image of `a` built once (spmm_vnm over its packed form or over the
  /// packed decode of its fp8 image, spmm_vnm_i8 over its int8 image),
  /// the baseline comes from the matching heuristic, and the result key
  /// carries the matching feature tag ("+i8" / "+fp8") so the entry is
  /// exactly what select_config looks up for the same dtype.
  ops::Dtype dtype = ops::Dtype::kF16;
};

/// One empirically timed candidate.
struct MeasuredConfig {
  spatha::SpmmConfig config;
  double seconds = 0.0;  ///< wall-clock per spmm_vnm call
  double gflops = 0.0;   ///< useful (sparse) FLOPs / seconds
};

/// Outcome of the measured search. `best.gflops >= heuristic.gflops` by
/// construction: the fixed heuristic is always in the measured set.
struct MeasuredResult {
  MeasuredConfig best;
  MeasuredConfig heuristic;
  std::vector<MeasuredConfig> ranked;  ///< all measured, best first

  /// Cache entry for the winner, keyed by this problem and this build's
  /// CPU features — pass straight to TuningCache::put / io persistence.
  spatha::TuningKey key;
  spatha::TuningEntry entry;
};

/// Benchmarks real kernel executions of `a * b` — on the datapath
/// `opts.dtype` selects — over at most `opts.max_tiles` distinct tiles
/// (the fixed heuristic first, then the analytically best tiles of
/// `space`), crossed with `space.chunk_grains`, and returns the measured
/// ranking. With `opts.verify`, the winner's output is checked
/// bit-identical to the dtype's scalar oracle (throws venom::Error
/// otherwise).
MeasuredResult autotune_measured(const VnmMatrix& a, const HalfMatrix& b,
                                 const TuneSpace& space = {},
                                 const MeasureOptions& opts = {});

}  // namespace venom::gpumodel
