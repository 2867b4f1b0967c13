#include "ops/context.hpp"

namespace venom::ops {

ExecContext::ExecContext(ExecContextOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(opts_.threads);
    pool_ = owned_pool_.get();
  } else {
    pool_ = &ThreadPool::global();
  }
}

const spatha::TuningCache& ExecContext::tuning_cache() const {
  if (opts_.tuning_cache_path.empty()) return spatha::TuningCache::global();
  std::call_once(tuning_once_,
                 [this] { own_tuning_.try_load(opts_.tuning_cache_path); });
  return own_tuning_;
}

spatha::SpmmConfig ExecContext::select_config(const VnmConfig& fmt,
                                              std::size_t rows,
                                              std::size_t cols,
                                              std::size_t b_cols,
                                              Dtype dtype) const {
  // One shared policy with spatha::select_config (lookup -> validate ->
  // degrade to heuristic), differing only in which cache is consulted.
  return spatha::select_config(tuning_cache(), fmt, rows, cols, b_cols,
                               dtype);
}

std::optional<spatha::SpmmConfig> ExecContext::tuned_config(
    const VnmConfig& fmt, std::size_t rows, std::size_t cols,
    std::size_t b_cols, Dtype dtype) const {
  return tuning_cache().lookup(fmt, rows, cols, b_cols, dtype);
}

ExecContext& ExecContext::global() {
  static ExecContext ctx;
  return ctx;
}

}  // namespace venom::ops
