// Execution context for the venom::ops operator layer.
//
// Before this layer existed every call site threaded ThreadPool::global(),
// a plan cache, the $VENOM_TUNE_CACHE tuning cache, and SpmmScratchPools
// by hand through optional pointer parameters. An ExecContext bundles
// those four concerns into one object that a caller owns for the lifetime
// of a workload:
//
//   * the thread pool the kernels parallelize on (shared process-wide
//     pool by default, or a private pool when `threads` is set),
//   * a PlanCache (ops/plan_cache.hpp) keeping each fingerprinted
//     weight's prepared operands (packed form, int8 image, packed fp8
//     decode) across calls at every batch width,
//   * the empirical tuning cache consulted for kernel configurations
//     (the process-wide $VENOM_TUNE_CACHE cache by default, or a private
//     cache loaded from `tuning_cache_path`) — one cache for every
//     datapath, keyed by dtype (select_config), consulted per call,
//   * a scratch pool recycling the kernels' packed fp16->float B panels
//     and accumulator tiles across every dispatch on the context.
//
// ExecContext::global() is the process default used when a caller does
// not supply one (tools, examples, tests); the serving engine owns a
// private context per engine so its cache statistics are isolated from
// unrelated work.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "ops/dtype.hpp"
#include "ops/plan_cache.hpp"
#include "spatha/config.hpp"
#include "spatha/spmm.hpp"
#include "spatha/tuning_cache.hpp"

namespace venom::ops {

/// Construction knobs for an ExecContext.
struct ExecContextOptions {
  /// Worker threads of a private pool; 0 shares the process-wide pool
  /// (the right default — private pools are for isolating workloads).
  std::size_t threads = 0;
  /// JSON tuning cache for kernel-config selection. Empty uses the
  /// process-wide cache (lazily loaded from $VENOM_TUNE_CACHE); a path
  /// loads a private cache (missing/corrupt files degrade to the
  /// heuristic, matching TuningCache::try_load).
  std::string tuning_cache_path;
};

/// Owns the execution resources one workload's operator dispatches share.
/// Thread-safe for concurrent run() calls: the plan cache, tuning cache,
/// and scratch pool are internally synchronized, and the pool is shared
/// by design.
class ExecContext {
 public:
  ExecContext() : ExecContext(ExecContextOptions{}) {}
  explicit ExecContext(ExecContextOptions opts);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  ThreadPool& pool() const { return *pool_; }
  PlanCache& plan_cache() const { return plan_cache_; }
  spatha::SpmmScratchPool& scratch() const { return scratch_; }
  /// Arenas for the transformer attention core's float panels and score
  /// rows. Pooled so a steady-state decode step reuses an arena already
  /// at its high-water size and performs no heap allocation.
  ObjectPool<ScratchArena>& attn_scratch() const { return attn_scratch_; }
  const ExecContextOptions& options() const { return opts_; }

  /// Kernel configuration for a V:N:M problem on the `dtype` datapath:
  /// the context's tuning-cache entry under the dtype's tag when one
  /// exists for this build's CPU features, else the dtype's shape
  /// heuristic (the table in spatha/config.hpp). With default options
  /// this is exactly spatha::select_config, so dispatch through a context
  /// is bit- and config-identical to the pre-ops direct kernel calls.
  spatha::SpmmConfig select_config(const VnmConfig& fmt, std::size_t rows,
                                   std::size_t cols, std::size_t b_cols,
                                   Dtype dtype = Dtype::kF16) const;

  /// The tuned entry alone (no heuristic fallback) — lets tooling report
  /// what the tuning cache contributes vs the heuristic.
  std::optional<spatha::SpmmConfig> tuned_config(
      const VnmConfig& fmt, std::size_t rows, std::size_t cols,
      std::size_t b_cols, Dtype dtype = Dtype::kF16) const;

  /// The context's tuning cache: the private one when a path was given
  /// (loaded on first use), else TuningCache::global(). Exposed so
  /// callers that bypass the registry but honour a context's tuning —
  /// e.g. the quant::spmm_vnm_* convenience overloads — consult the same
  /// entries dispatch would.
  const spatha::TuningCache& tuning_cache() const;

  /// Process-wide default context (lazily constructed; default options).
  static ExecContext& global();

 private:
  ExecContextOptions opts_;
  std::unique_ptr<ThreadPool> owned_pool_;  // only when opts_.threads > 0
  ThreadPool* pool_ = nullptr;
  mutable PlanCache plan_cache_;
  mutable spatha::SpmmScratchPool scratch_;
  mutable ObjectPool<ScratchArena> attn_scratch_;
  // Lazy one-shot load of the private tuning cache. std::call_once (not a
  // venom::Mutex) on purpose: the guarded action runs exactly once and
  // own_tuning_ is immutable afterwards — readers need no lock, which a
  // GUARDED_BY contract could not express. TuningCache's own mutex covers
  // the map accesses inside try_load/lookup.
  mutable std::once_flag tuning_once_;
  mutable spatha::TuningCache own_tuning_;
};

/// Context-resolution rule for layers whose weights can be shared
/// (read-only) across several execution contexts: the per-call override
/// wins, then the context attached to the layer, then the process-wide
/// default. Replicated serving passes a replica-private context per
/// forward call over one const encoder, so N replicas never contend on
/// one plan cache while sharing every weight byte.
inline ExecContext& resolve(ExecContext* preferred,
                            ExecContext* fallback = nullptr) {
  if (preferred != nullptr) return *preferred;
  if (fallback != nullptr) return *fallback;
  return ExecContext::global();
}

}  // namespace venom::ops
