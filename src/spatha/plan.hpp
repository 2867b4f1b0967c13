// Plan-based execution API, mirroring the cuSparseLt workflow Spatha is
// positioned as an open-source alternative to:
//
//   cusparseLtMatmulDescriptorInit  ->  SpmmProblem
//   cusparseLtMatmulPlanInit        ->  SpmmPlan (compress + pick config)
//   cusparseLtMatmul                ->  SpmmPlan::execute(B)
//
// A plan owns the compressed operand and the kernel configuration chosen
// for the problem shape, so repeated executions (inference serving) pay
// the pruning/compression/tuning cost once. The PlanCache keys plans by
// problem descriptor for frameworks that create layers dynamically.
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <memory>

#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/spmm.hpp"
#include "tensor/matrix.hpp"

namespace venom::spatha {

/// Problem descriptor: what cusparseLt calls the matmul descriptor.
struct SpmmProblem {
  std::size_t rows = 0;    ///< sparse operand rows (R)
  std::size_t cols = 0;    ///< sparse operand cols (K)
  std::size_t b_cols = 0;  ///< dense operand cols (C)
  VnmConfig format;

  friend auto operator<=>(const SpmmProblem&, const SpmmProblem&) = default;
};

/// An executable sparse-matmul plan. Besides the compressed operand and
/// the (tuning-cache-aware) kernel configuration, a plan holds the
/// operand's packed form (PackedVnm, built once per weight) and a
/// SpmmScratchPool, so the fp16->float B panels and accumulator tiles the
/// kernels stage through are recycled across execute() calls —
/// steady-state repeated execution (inference serving) allocates only the
/// output matrix.
class SpmmPlan {
 public:
  /// Builds a plan by magnitude-pruning `dense_weight` into the problem's
  /// V:N:M format and selecting a kernel configuration for the shape.
  static SpmmPlan build(const SpmmProblem& problem,
                        const HalfMatrix& dense_weight);

  /// Builds from an already-compressed operand.
  static SpmmPlan from_compressed(const SpmmProblem& problem,
                                  VnmMatrix compressed);

  /// Shares an already-compressed operand instead of copying it: plans
  /// for the same weight at different batch widths (the serving case —
  /// one plan per packed-batch token total) all alias the owner's one
  /// copy. The operand must stay immutable while any plan references it.
  /// `scratch`, when supplied, replaces the plan's own pool — the
  /// SpmmScratch buffers are width-agnostic capacity, so plans for the
  /// same weight can share one pool and stay warm across widths.
  /// `config`, when non-null, pins the kernel configuration instead of
  /// consulting the process-wide select_config — an ops::ExecContext
  /// with a private tuning cache passes its own choice through here.
  /// `packed`, when supplied, must be a PackedVnm of *compressed: plans for
  /// the same weight share it instead of packing again; when null the
  /// plan packs its own.
  static SpmmPlan from_compressed(
      const SpmmProblem& problem,
      std::shared_ptr<const VnmMatrix> compressed,
      std::shared_ptr<SpmmScratchPool> scratch = nullptr,
      const SpmmConfig* config = nullptr,
      std::shared_ptr<const PackedVnm> packed = nullptr);

  /// C = A * B. B must be cols x b_cols as declared in the problem.
  FloatMatrix execute(const HalfMatrix& b, ThreadPool* pool = nullptr) const;

  /// Fused-epilogue execution (bias / activation folded into stage 3).
  HalfMatrix execute_fused(const HalfMatrix& b, const Epilogue& epilogue,
                           ThreadPool* pool = nullptr) const;

  const SpmmProblem& problem() const { return problem_; }
  const VnmMatrix& compressed() const { return *weight_; }
  /// The packed operand the kernels run over (shared per weight).
  const std::shared_ptr<const PackedVnm>& packed() const { return packed_; }
  const SpmmConfig& config() const { return config_; }

  /// The plan's reusable kernel scratch (shared across concurrent
  /// executors; exposed for pooling diagnostics).
  SpmmScratchPool& scratch() const { return *scratch_; }

 private:
  // Plans are only made through the named builders above: a
  // default-constructed plan would hold null weight/scratch pointers, so
  // the blank state never escapes this class.
  SpmmPlan() = default;

  SpmmProblem problem_;
  // Shared, not owned exclusively: see the sharing from_compressed.
  std::shared_ptr<const VnmMatrix> weight_;
  std::shared_ptr<const PackedVnm> packed_;
  SpmmConfig config_;
  // shared_ptr so plans stay copyable and the deleter is bound where
  // detail::SpmmScratch is complete (plan.cpp).
  std::shared_ptr<SpmmScratchPool> scratch_;
};

/// LRU cache of plans keyed by problem descriptor + a weight fingerprint.
/// Thread-safe: serving workers share one cache, so lookups, insertions,
/// and the LRU bookkeeping run under a mutex (plan construction itself
/// happens outside the lock; concurrent misses on the same key build
/// twice and the first insert wins).
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 16);

  /// Returns the cached plan for (problem, weight) or builds and caches
  /// one. The weight fingerprint is a cheap content hash, so re-pruning
  /// is skipped only when the weights are byte-identical.
  std::shared_ptr<const SpmmPlan> get_or_build(const SpmmProblem& problem,
                                               const HalfMatrix& weight)
      VENOM_EXCLUDES(mutex_);

  /// Same, for an operand that is already V:N:M-compressed (the serving
  /// path: transformer weights are pruned once at load time, so a cache
  /// hit must not re-prune). Fingerprints the compressed structures.
  std::shared_ptr<const SpmmPlan> get_or_build(const SpmmProblem& problem,
                                               const VnmMatrix& compressed)
      VENOM_EXCLUDES(mutex_);

  /// As above with a caller-supplied fingerprint and shared ownership:
  /// a holder of an immutable operand (transformer::Linear) hashes it
  /// once instead of once per forward, and every cached plan for it —
  /// one per batch width under dynamic batching — aliases the same copy
  /// instead of duplicating O(nnz) storage. The fingerprint must be
  /// weight_fingerprint(*compressed) — a stale one silently aliases
  /// cache entries. `config` as in SpmmPlan::from_compressed: non-null
  /// pins the built plan's kernel configuration (cache hits keep the
  /// config they were built with — a PlanCache is owned by one
  /// ExecContext, so a key never sees two different selections).
  /// `packed`, when non-null, must be a PackedVnm of *compressed (a
  /// holder that already packed its weight): the weight's first plan
  /// adopts it instead of packing again.
  std::shared_ptr<const SpmmPlan> get_or_build(
      const SpmmProblem& problem,
      std::shared_ptr<const VnmMatrix> compressed,
      std::uint64_t fingerprint, const SpmmConfig* config = nullptr,
      std::shared_ptr<const PackedVnm> packed = nullptr)
      VENOM_EXCLUDES(mutex_);

  /// Probe without building: LRU-touches and counts a hit when the plan
  /// is cached; nullptr (and no miss counted — the get_or_build that
  /// typically follows counts it) otherwise. Lets the serving hot path
  /// defer config selection to actual plan builds.
  std::shared_ptr<const SpmmPlan> find(const SpmmProblem& problem,
                                       std::uint64_t fingerprint)
      VENOM_EXCLUDES(mutex_);

  std::size_t size() const VENOM_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  std::size_t hits() const VENOM_EXCLUDES(mutex_);
  std::size_t misses() const VENOM_EXCLUDES(mutex_);

 private:
  using Key = std::pair<SpmmProblem, std::uint64_t>;

  /// Weight identity (fingerprint + shape) independent of b_cols: plans
  /// for the same weight at different batch widths share one packed
  /// operand and one scratch pool, so a new batch width neither packs
  /// again nor starts with cold panels.
  using WeightKey = std::pair<std::uint64_t, std::pair<std::size_t,
                                                       std::size_t>>;
  struct WeightState {
    std::shared_ptr<const PackedVnm> packed;
    std::shared_ptr<SpmmScratchPool> scratch;
  };

  /// Lookup + LRU touch, no counter updates.
  std::shared_ptr<const SpmmPlan> touch_locked(const Key& key)
      VENOM_REQUIRES(mutex_);
  /// touch_locked plus hit/miss accounting; nullptr on miss.
  std::shared_ptr<const SpmmPlan> find_locked(const Key& key)
      VENOM_REQUIRES(mutex_);
  /// Inserts `plan` (first insert wins on a racing key) and evicts LRU.
  std::shared_ptr<const SpmmPlan> insert_locked(
      const Key& key, std::shared_ptr<const SpmmPlan> plan)
      VENOM_REQUIRES(mutex_);
  /// The weight's shared state, created on first use around `packed`
  /// or, when that is null, a fresh pack (which runs outside the lock; a
  /// racing first use keeps the first insert). Takes the lock itself —
  /// call it between locked scopes, never inside one.
  WeightState weight_state_for(
      const WeightKey& key, const std::shared_ptr<const VnmMatrix>& compressed,
      std::shared_ptr<const PackedVnm> packed)
      VENOM_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::size_t capacity_;
  std::list<Key> lru_ VENOM_GUARDED_BY(mutex_);  // front = most recent
  std::map<Key, std::pair<std::shared_ptr<const SpmmPlan>,
                          std::list<Key>::iterator>>
      entries_ VENOM_GUARDED_BY(mutex_);
  // One entry per distinct weight (bounded by the model's layer count in
  // serving use, not by batch-width diversity), dropped with the weight's
  // last cached plan.
  std::map<WeightKey, WeightState> weights_ VENOM_GUARDED_BY(mutex_);
  std::size_t hits_ VENOM_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ VENOM_GUARDED_BY(mutex_) = 0;
};

/// FNV-1a content hash of a half matrix (the cache fingerprint).
std::uint64_t weight_fingerprint(const HalfMatrix& m);

/// FNV-1a hash over the compressed V:N:M structures (values, m-indices,
/// column-locs) plus shape/format — the fingerprint for pre-compressed
/// operands.
std::uint64_t weight_fingerprint(const VnmMatrix& m);

}  // namespace venom::spatha
