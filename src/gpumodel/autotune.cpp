#include "gpumodel/autotune.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timing.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/microkernel.hpp"
#include "spatha/spmm.hpp"

namespace venom::gpumodel {

std::vector<TunedConfig> enumerate_configs(const DeviceSpec& dev,
                                           GemmShape shape, VnmConfig fmt,
                                           const TuneSpace& space) {
  std::vector<TunedConfig> results;
  std::set<std::size_t> seen_bk;  // clamping can alias K-tile candidates
  for (const std::size_t groups : space.block_k_groups) {
    const std::size_t bk = std::min(groups * fmt.m, shape.k - shape.k % fmt.m);
    if (bk == 0 || !seen_bk.insert(bk).second) continue;
    for (const std::size_t bc : space.block_c) {
      if (bc > shape.c) continue;
      for (const std::size_t depth : space.batch_sizes) {
        spatha::SpmmConfig cfg;
        cfg.block_k = bk;
        cfg.block_c = bc;
        cfg.warp_r = std::min<std::size_t>(32, fmt.v);
        cfg.warp_k = std::min<std::size_t>(64, bk);
        cfg.warp_c = bc;
        cfg.batch_size = depth;
        try {
          spatha::validate(cfg, fmt, shape.r, shape.k, shape.c);
        } catch (const Error&) {
          continue;
        }
        results.push_back({cfg, spatha_spmm(dev, shape, fmt, cfg)});
      }
    }
  }
  VENOM_CHECK_MSG(!results.empty(),
                  "no valid Spatha configuration for the problem");
  std::sort(results.begin(), results.end(),
            [](const TunedConfig& a, const TunedConfig& b) {
              return a.total_s() < b.total_s();
            });
  // Deduplicate identical times with identical configs is unnecessary;
  // callers take the front or inspect the ranking.
  return results;
}

TunedConfig autotune(const DeviceSpec& dev, GemmShape shape, VnmConfig fmt,
                     const TuneSpace& space) {
  return enumerate_configs(dev, shape, fmt, space).front();
}

MeasuredResult autotune_measured(const VnmMatrix& a, const HalfMatrix& b,
                                 const TuneSpace& space,
                                 const MeasureOptions& opts) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "SpMM shape mismatch");
  const GemmShape shape{a.rows(), a.cols(), b.cols()};
  ThreadPool* pool = opts.pool != nullptr ? opts.pool : &ThreadPool::global();
  const DeviceSpec& dev = opts.dev != nullptr ? *opts.dev : rtx3090();
  const ops::Dtype dtype = opts.dtype;

  // The datapath's image of A, built once up front: every candidate then
  // measures exactly the operand dispatch-time execution of that datapath
  // consumes (packing and quantization are per-weight one-offs at serving
  // time, so they do not belong inside the timer). The fp8 datapath's
  // image is the packed decode its fp16 kernels run over.
  std::optional<spatha::PackedVnm> pa;
  quant::QuantizedVnmMatrix qa;
  quant::Fp8VnmMatrix fa;
  if (dtype == ops::Dtype::kF16) {
    pa.emplace(a);
  } else if (dtype == ops::Dtype::kI8) {
    qa = quant::QuantizedVnmMatrix::quantize(a);
  } else {
    fa = quant::Fp8VnmMatrix::quantize(a, dtype == ops::Dtype::kF8E5M2
                                              ? Fp8Format::kE5M2
                                              : Fp8Format::kE4M3);
    pa.emplace(quant::pack_decoded(fa));
  }

  // One call on the datapath under tune. Used for timing and for the
  // winner's verification, so what is verified is what was measured.
  const auto run_once = [&](const spatha::SpmmConfig& cfg,
                            ThreadPool* p) -> FloatMatrix {
    if (dtype == ops::Dtype::kI8) return quant::spmm_vnm_i8(qa, b, cfg, p);
    return spatha::spmm_vnm(*pa, b, cfg, p);
  };
  const auto measure = [&](const spatha::SpmmConfig& cfg, ThreadPool* p) {
    volatile float sink = 0.0f;  // keep the product from being elided
    return seconds_per_call(
        [&] {
          const FloatMatrix c = run_once(cfg, p);
          sink = sink + c.flat()[0];
        },
        opts.warmup, opts.min_sample_s);
  };

  // Tile candidates: the datapath's fixed heuristic occupies the first
  // of the max_tiles slots, then the analytically best distinct
  // (block_k, block_c) tiles fill the rest — the model prunes the search
  // so only configurations it considers competitive are ever timed.
  const spatha::SpmmConfig heuristic_cfg =
      spatha::select_config_heuristic(fmt, shape.r, shape.k, shape.c, dtype);
  std::vector<spatha::SpmmConfig> tiles = {heuristic_cfg};
  std::set<std::pair<std::size_t, std::size_t>> seen = {
      {heuristic_cfg.block_k, heuristic_cfg.block_c}};
  // The packed kernels' narrow path (fp16 and fp8) reads no tile
  // extents, so at its widths only the grain axis is swept. Below the
  // pool's inline rule (nnz x C < kInlineWork) every grain runs the same
  // serial fn(0, n), so only the heuristic's grain is timed there.
  const bool grains_apply = a.nnz() * shape.c >= ThreadPool::kInlineWork;
  const bool tiles_apply =
      dtype == ops::Dtype::kI8 ||
      spatha::detail::packed_path(shape.c, heuristic_cfg) ==
          spatha::detail::PackedPath::kWide;
  try {
    for (const TunedConfig& tc : enumerate_configs(dev, shape, fmt, space)) {
      if (!tiles_apply) break;
      if (tiles.size() >= opts.max_tiles) break;
      if (!seen.insert({tc.config.block_k, tc.config.block_c}).second)
        continue;
      tiles.push_back(tc.config);
    }
  } catch (const Error&) {
    // No analytical candidate validated (degenerate shape); the
    // heuristic tile alone is still measurable.
  }

  const std::vector<std::size_t> grains =
      space.chunk_grains.empty() || !grains_apply
          ? std::vector<std::size_t>{heuristic_cfg.chunk_grain}
          : space.chunk_grains;
  const double flops = spatha::spmm_flops(a, shape.c);

  MeasuredResult result;
  // The heuristic baseline — the untouched heuristic choice for this
  // datapath — is always measured, so best.gflops >= heuristic.gflops
  // holds by construction.
  result.heuristic.config = heuristic_cfg;
  result.heuristic.seconds = measure(heuristic_cfg, pool);
  result.heuristic.gflops = flops / result.heuristic.seconds * 1e-9;
  result.ranked.push_back(result.heuristic);

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    for (const std::size_t grain : grains) {
      spatha::SpmmConfig cfg = tiles[t];
      cfg.chunk_grain = grain;
      // The heuristic's exact config was already timed as the baseline;
      // its other grain variants are distinct candidates and stay in the
      // search (the grain axis is part of what the measured pass tunes).
      if (cfg == heuristic_cfg) continue;
      MeasuredConfig mc;
      mc.config = cfg;
      mc.seconds = measure(cfg, pool);
      mc.gflops = flops / mc.seconds * 1e-9;
      result.ranked.push_back(std::move(mc));
    }
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const MeasuredConfig& x, const MeasuredConfig& y) {
              return x.seconds < y.seconds;
            });
  result.best = result.ranked.front();

  if (opts.verify) {
    // Each datapath checks against its own scalar oracle: the int8 and
    // fp8 kernels are bit-contracted to their scalar traversals, not to
    // the fp16 reference (whose arithmetic they do not perform).
    const FloatMatrix got = run_once(result.best.config, pool);
    FloatMatrix want;
    switch (dtype) {
      case ops::Dtype::kI8:
        want = quant::spmm_vnm_i8_scalar(qa, b, result.best.config.column_loc);
        break;
      case ops::Dtype::kF8E5M2:
      case ops::Dtype::kF8E4M3:
        want =
            quant::spmm_vnm_fp8_scalar(fa, b, result.best.config.column_loc);
        break;
      case ops::Dtype::kF16:
        want = spatha::spmm_vnm_reference(a, b);
        break;
    }
    VENOM_CHECK_MSG(
        got.size() == want.size() &&
            std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)) == 0,
        "tuned config " << result.best.config.describe()
                        << " is not bit-identical to the "
                        << ops::to_string(dtype) << " oracle");
  }

  // The key carries the datapath's feature tag, so the entry lands where
  // select_config on the same dtype will find it.
  result.key = spatha::make_tuning_key(fmt, shape.r, shape.k, shape.c, dtype);
  result.entry.config = result.best.config;
  result.entry.gflops = result.best.gflops;
  result.entry.heuristic_gflops = result.heuristic.gflops;
  return result;
}

}  // namespace venom::gpumodel
