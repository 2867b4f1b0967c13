#include "ops/plan_cache.hpp"

#include <utility>

#include "common/error.hpp"

namespace venom::ops {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  VENOM_CHECK_MSG(capacity_ >= 1, "cache capacity must be positive");
}

PlanCache::Entry& PlanCache::entry_locked(
    const Key& key, const std::shared_ptr<const VnmMatrix>& weight) {
  if (const auto it = index_.find(key); it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front();
  }
  ++misses_;
  lru_.push_front(Entry{key, weight, nullptr});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return lru_.front();
}

std::shared_ptr<const spatha::PackedVnm> PlanCache::packed(
    const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp,
    std::shared_ptr<const spatha::PackedVnm> adopt) {
  VENOM_CHECK_MSG(weight != nullptr, "null weight");
  const Key key{fp, weight->rows(), weight->cols()};
  {
    MutexLock lock(mutex_);
    auto& slot = entry_locked(key, weight).packed;
    if (adopt != nullptr) {
      if (slot == nullptr) slot = adopt;
      return adopt;
    }
    if (slot != nullptr) return slot;
  }
  auto fresh = std::make_shared<const spatha::PackedVnm>(weight);
  MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return fresh;  // evicted meanwhile: serve uncached
  auto& slot = it->second->packed;
  if (slot == nullptr) slot = std::move(fresh);
  return slot;
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t PlanCache::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

std::size_t PlanCache::misses() const {
  MutexLock lock(mutex_);
  return misses_;
}

}  // namespace venom::ops
