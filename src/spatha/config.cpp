#include "spatha/config.hpp"

#include <algorithm>
#include <sstream>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "spatha/tuning_cache.hpp"

namespace venom::spatha {

std::string SpmmConfig::describe() const {
  std::ostringstream os;
  os << "BS(k=" << block_k << ",c=" << block_c << ") WS(r=" << warp_r
     << ",k=" << warp_k << ",c=" << warp_c << ") mma m" << mma_r << "n"
     << mma_c << "k" << mma_k << " pipe=" << batch_size << " grain="
     << chunk_grain << " store="
     << (store_width == StoreWidth::k128bit ? "128b" : "32b") << " cloc="
     << (column_loc == ColumnLocMode::kEnabled ? "on" : "fixed");
  return os.str();
}

void validate(const SpmmConfig& cfg, const VnmConfig& fmt, std::size_t rows,
              std::size_t cols, std::size_t b_cols) {
  VENOM_CHECK_MSG(cfg.mma_r == 16 && cfg.mma_c == 8 &&
                      (cfg.mma_k == 32 || cfg.mma_k == 16),
                  "unsupported mma shape m" << cfg.mma_r << "n" << cfg.mma_c
                                            << "k" << cfg.mma_k);
  VENOM_CHECK_MSG(rows % fmt.v == 0, "rows must be a multiple of V");
  VENOM_CHECK_MSG(cols % fmt.m == 0, "cols must be a multiple of M");
  VENOM_CHECK_MSG(cfg.block_k % fmt.m == 0,
                  "BSk=" << cfg.block_k << " must be a multiple of M="
                         << fmt.m);
  VENOM_CHECK_MSG(cfg.block_c >= 1 && cfg.block_c <= b_cols,
                  "BSc=" << cfg.block_c << " out of range for C=" << b_cols);
  VENOM_CHECK_MSG(cfg.batch_size >= 1 && cfg.batch_size <= 8,
                  "pipeline depth " << cfg.batch_size << " out of [1,8]");
  VENOM_CHECK_MSG(cfg.warp_r >= 1 && cfg.warp_k >= 1 && cfg.warp_c >= 1,
                  "warp tile must be non-degenerate");
}

SpmmConfig select_config(const VnmConfig& fmt, std::size_t rows,
                         std::size_t cols, std::size_t b_cols,
                         ops::Dtype dtype) {
  return select_config(TuningCache::global(), fmt, rows, cols, b_cols, dtype);
}

SpmmConfig select_config(const TuningCache& cache, const VnmConfig& fmt,
                         std::size_t rows, std::size_t cols,
                         std::size_t b_cols, ops::Dtype dtype) {
  const auto tuned = cache.lookup(fmt, rows, cols, b_cols, dtype);
  if (tuned.has_value()) {
    // The cache file is hand-editable: an entry that no longer validates
    // (wrong divisibility, out-of-range pipeline depth) degrades to the
    // heuristic instead of poisoning every dispatch at this shape.
    try {
      validate(*tuned, fmt, rows, cols, b_cols);
      return *tuned;
    } catch (const Error&) {
    }
  }
  return select_config_heuristic(fmt, rows, cols, b_cols, dtype);
}

// ------------------------------------------------------ datapath table
// The two per-dtype decisions, side by side; everything else calls them.

TuningKey make_tuning_key(const VnmConfig& fmt, std::size_t rows,
                          std::size_t cols, std::size_t b_cols,
                          ops::Dtype dtype) {
  TuningKey key;
  key.rows = rows;
  key.cols = cols;
  key.b_cols = b_cols;
  key.v = fmt.v;
  key.n = fmt.n;
  key.m = fmt.m;
  key.features = cpu_feature_string();
  // The tags are on disk in every cache file: never respell them.
  switch (dtype) {
    case ops::Dtype::kF16:
      break;
    case ops::Dtype::kI8:
      key.features += "+i8";
      break;
    case ops::Dtype::kF8E5M2:
    case ops::Dtype::kF8E4M3:
      key.features += "+fp8";
      break;
  }
  return key;
}

SpmmConfig select_config_heuristic(const VnmConfig& fmt, std::size_t rows,
                                   std::size_t cols, std::size_t b_cols,
                                   ops::Dtype dtype) {
  (void)rows;
  SpmmConfig cfg;
  // K panel: cover many M-groups per staging step, but cap the gathered-B
  // footprint near an SMEM-sized budget (the gathered panel holds
  // (BSk/M)*4 x BSc halves).
  const std::size_t groups_budget = 128;  // 128 groups * 4 rows * 64 cols * 2B = 64 KiB
  std::size_t bk = std::min<std::size_t>(cols, groups_budget * fmt.m);
  bk = std::max<std::size_t>(fmt.m, bk - bk % fmt.m);
  cfg.block_k = bk;

  // C tile: 64 unless the activation is narrower.
  cfg.block_c = std::min<std::size_t>(64, b_cols);

  // Warp tile: rows per warp bounded by V.
  cfg.warp_r = std::min<std::size_t>(32, fmt.v);
  cfg.warp_k = std::min<std::size_t>(64, cfg.block_k);
  cfg.warp_c = cfg.block_c;

  // Deeper pipeline pays off once the K loop is long enough to fill it.
  cfg.batch_size = cols / cfg.block_k >= 4 ? 3 : 2;

  switch (dtype) {
    case ops::Dtype::kF16:
      return cfg;
    case ops::Dtype::kF8E5M2:
    case ops::Dtype::kF8E4M3:
      // The fp8 kernel upconverts its operands and runs the same
      // float-panel pipeline, so it shares the fp16 tiling.
      return cfg;
    case ops::Dtype::kI8:
      break;
  }
  // int8 quad kernel, on every target (VNNI, AVX2 and the scalar
  // stored-nonzero loop all read the same quad panel). Wide C tiles: the
  // per-panel fixed costs (the byte-interleave gather, the VNNI bias
  // correction) amortize over columns, and the int32 accumulator tile
  // stays cache-resident up to V x 128.
  cfg.block_c = std::min<std::size_t>(128, b_cols);
  cfg.warp_c = cfg.block_c;
  // K panel: every row re-streams the quad panel once per column strip,
  // so cap it at an L1-sized budget — each group packs to exactly
  // 4 * BSc bytes regardless of sel, so 32 groups at BSc=128 is 16 KiB.
  // A sweep over the Table-1 shape is flat from a few groups up to this
  // cap and falls off beyond it.
  const std::size_t i8_groups_budget =
      std::max<std::size_t>(1, (16u << 10) / (4 * cfg.block_c));
  cfg.block_k = std::min(cols, std::max(fmt.m, i8_groups_budget * fmt.m));
  cfg.warp_k = std::min<std::size_t>(64, cfg.block_k);
  cfg.batch_size = cols / cfg.block_k >= 4 ? 3 : 2;
  return cfg;
}

}  // namespace venom::spatha
