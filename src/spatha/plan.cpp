#include "spatha/plan.hpp"

#include "common/fnv.hpp"

#include "common/error.hpp"
#include "spatha/spmm.hpp"

namespace venom::spatha {

SpmmPlan SpmmPlan::build(const SpmmProblem& problem,
                         const HalfMatrix& dense_weight) {
  VENOM_CHECK_MSG(dense_weight.rows() == problem.rows &&
                      dense_weight.cols() == problem.cols,
                  "weight shape " << dense_weight.rows() << 'x'
                                  << dense_weight.cols()
                                  << " does not match the problem");
  return from_compressed(
      problem, VnmMatrix::from_dense_magnitude(dense_weight, problem.format));
}

SpmmPlan SpmmPlan::from_compressed(const SpmmProblem& problem,
                                   VnmMatrix compressed) {
  return from_compressed(
      problem, std::make_shared<const VnmMatrix>(std::move(compressed)));
}

SpmmPlan SpmmPlan::from_compressed(
    const SpmmProblem& problem,
    std::shared_ptr<const VnmMatrix> compressed,
    std::shared_ptr<SpmmScratchPool> scratch, const SpmmConfig* config,
    std::shared_ptr<const PackedVnm> packed) {
  VENOM_CHECK_MSG(compressed != nullptr, "null compressed operand");
  VENOM_CHECK_MSG(compressed->rows() == problem.rows &&
                      compressed->cols() == problem.cols &&
                      compressed->config() == problem.format,
                  "compressed operand does not match the problem");
  SpmmPlan plan;
  plan.problem_ = problem;
  plan.config_ = config != nullptr
                     ? *config
                     : select_config(problem.format, problem.rows,
                                     problem.cols, problem.b_cols);
  VENOM_CHECK_MSG(packed == nullptr ||
                      (packed->rows() == problem.rows &&
                       packed->cols() == problem.cols &&
                       packed->config() == problem.format),
                  "packed operand does not match the problem");
  plan.packed_ = packed != nullptr ? std::move(packed)
                                   : std::make_shared<const PackedVnm>(
                                         compressed);
  plan.weight_ = std::move(compressed);
  plan.scratch_ = scratch != nullptr ? std::move(scratch)
                                     : std::make_shared<SpmmScratchPool>();
  return plan;
}

FloatMatrix SpmmPlan::execute(const HalfMatrix& b, ThreadPool* pool) const {
  VENOM_CHECK_MSG(b.rows() == problem_.cols && b.cols() == problem_.b_cols,
                  "operand B is " << b.rows() << 'x' << b.cols()
                                  << ", plan expects " << problem_.cols << 'x'
                                  << problem_.b_cols);
  return spmm_vnm(*packed_, b, config_, pool, scratch_.get());
}

HalfMatrix SpmmPlan::execute_fused(const HalfMatrix& b,
                                   const Epilogue& epilogue,
                                   ThreadPool* pool) const {
  VENOM_CHECK_MSG(b.rows() == problem_.cols && b.cols() == problem_.b_cols,
                  "operand B is " << b.rows() << 'x' << b.cols()
                                  << ", plan expects " << problem_.cols << 'x'
                                  << problem_.b_cols);
  return spmm_vnm_fused(*packed_, b, epilogue, config_, pool,
                        scratch_.get());
}

std::uint64_t weight_fingerprint(const HalfMatrix& m) {
  Fnv1a f;
  f.mix(m.rows());
  f.mix(m.cols());
  for (const half_t v : m.flat()) f.mix(v.bits());
  return f.h;
}

std::uint64_t weight_fingerprint(const VnmMatrix& m) {
  Fnv1a f;
  f.mix(m.rows());
  f.mix(m.cols());
  f.mix(m.config().v);
  f.mix(m.config().n);
  f.mix(m.config().m);
  for (const half_t v : m.values()) f.mix(v.bits());
  for (const std::uint8_t i : m.m_indices()) f.mix(i);
  for (const std::uint8_t c : m.column_locs()) f.mix(c);
  return f.h;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  VENOM_CHECK_MSG(capacity_ >= 1, "cache capacity must be positive");
}

std::shared_ptr<const SpmmPlan> PlanCache::touch_locked(const Key& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.erase(it->second.second);
  lru_.push_front(key);
  it->second.second = lru_.begin();
  return it->second.first;
}

std::shared_ptr<const SpmmPlan> PlanCache::find_locked(const Key& key) {
  auto plan = touch_locked(key);
  if (plan == nullptr)
    ++misses_;
  else
    ++hits_;
  return plan;
}

std::shared_ptr<const SpmmPlan> PlanCache::find(const SpmmProblem& problem,
                                                std::uint64_t fingerprint) {
  MutexLock lock(mutex_);
  auto plan = touch_locked({problem, fingerprint});
  if (plan != nullptr) ++hits_;
  return plan;
}

std::shared_ptr<const SpmmPlan> PlanCache::insert_locked(
    const Key& key, std::shared_ptr<const SpmmPlan> plan) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) return it->second.first;  // racing build lost
  lru_.push_front(key);
  entries_.emplace(key, std::make_pair(plan, lru_.begin()));
  if (entries_.size() > capacity_) {
    const Key evicted = lru_.back();
    entries_.erase(evicted);
    lru_.pop_back();
    // Drop the weight's shared state once its last plan is gone, so
    // weight churn (re-sparsifying training loops, model swaps) cannot
    // grow the registry past what entries_ references, and the packed
    // operand is freed with the last plan that runs on it.
    const WeightKey wkey{evicted.second, {evicted.first.rows,
                                          evicted.first.cols}};
    bool still_referenced = false;
    for (const auto& [k, v] : entries_) {
      if (k.second == wkey.first && k.first.rows == wkey.second.first &&
          k.first.cols == wkey.second.second) {
        still_referenced = true;
        break;
      }
    }
    if (!still_referenced) weights_.erase(wkey);
  }
  return plan;
}

std::shared_ptr<const SpmmPlan> PlanCache::get_or_build(
    const SpmmProblem& problem, const HalfMatrix& weight) {
  const Key key{problem, weight_fingerprint(weight)};
  {
    MutexLock lock(mutex_);
    if (auto plan = find_locked(key)) return plan;
  }
  auto plan = std::make_shared<const SpmmPlan>(SpmmPlan::build(problem,
                                                               weight));
  MutexLock lock(mutex_);
  return insert_locked(key, std::move(plan));
}

std::shared_ptr<const SpmmPlan> PlanCache::get_or_build(
    const SpmmProblem& problem, const VnmMatrix& compressed) {
  // Copying caller: one O(nnz) copy on a miss (the plan needs owned or
  // shared storage), none on a hit. Callers that can share ownership
  // should use the shared_ptr overload instead.
  const Key key{problem, weight_fingerprint(compressed)};
  {
    MutexLock lock(mutex_);
    if (auto plan = find_locked(key)) return plan;
  }
  auto plan = std::make_shared<const SpmmPlan>(SpmmPlan::from_compressed(
      problem, std::make_shared<const VnmMatrix>(compressed)));
  MutexLock lock(mutex_);
  return insert_locked(key, std::move(plan));
}

PlanCache::WeightState PlanCache::weight_state_for(
    const WeightKey& key, const std::shared_ptr<const VnmMatrix>& compressed,
    std::shared_ptr<const PackedVnm> packed) {
  {
    MutexLock lock(mutex_);
    const auto it = weights_.find(key);
    if (it != weights_.end()) return it->second;
  }
  WeightState fresh{packed != nullptr
                        ? std::move(packed)
                        : std::make_shared<const PackedVnm>(compressed),
                    std::make_shared<SpmmScratchPool>()};
  MutexLock lock(mutex_);
  return weights_.emplace(key, std::move(fresh)).first->second;
}

std::shared_ptr<const SpmmPlan> PlanCache::get_or_build(
    const SpmmProblem& problem, std::shared_ptr<const VnmMatrix> compressed,
    std::uint64_t fingerprint, const SpmmConfig* config,
    std::shared_ptr<const PackedVnm> packed) {
  const Key key{problem, fingerprint};
  {
    MutexLock lock(mutex_);
    if (auto plan = find_locked(key)) return plan;
  }
  // Plans for this weight share one packed operand and one scratch pool
  // regardless of b_cols: both are width-agnostic, so a new batch width
  // neither packs again nor starts a cold pool.
  WeightState state = weight_state_for(
      {fingerprint, {problem.rows, problem.cols}}, compressed,
      std::move(packed));
  auto plan = std::make_shared<const SpmmPlan>(SpmmPlan::from_compressed(
      problem, std::move(compressed), std::move(state.scratch), config,
      std::move(state.packed)));
  MutexLock lock(mutex_);
  return insert_locked(key, std::move(plan));
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::size_t PlanCache::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

std::size_t PlanCache::misses() const {
  MutexLock lock(mutex_);
  return misses_;
}

}  // namespace venom::spatha
