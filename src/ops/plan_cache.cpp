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
  lru_.push_front(Entry{key, weight, nullptr, nullptr, nullptr});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return lru_.front();
}

template <class T, class Build>
std::shared_ptr<const T> PlanCache::prepared(
    const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp,
    std::shared_ptr<const T> Entry::*slot, const Build& build) {
  VENOM_CHECK_MSG(weight != nullptr, "null weight");
  const Key key{fp, weight->rows(), weight->cols()};
  {
    MutexLock lock(mutex_);
    if (auto cached = entry_locked(key, weight).*slot) return cached;
  }
  std::shared_ptr<const T> fresh = build();
  MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return fresh;  // evicted meanwhile: serve uncached
  std::shared_ptr<const T>& cached = (*it->second).*slot;
  if (cached == nullptr) cached = std::move(fresh);
  return cached;
}

std::shared_ptr<const spatha::PackedVnm> PlanCache::packed(
    const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp,
    std::shared_ptr<const spatha::PackedVnm> adopt) {
  auto cached = prepared(weight, fp, &Entry::packed, [&] {
    return adopt != nullptr ? adopt
                            : std::make_shared<const spatha::PackedVnm>(weight);
  });
  return adopt != nullptr ? adopt : cached;
}

std::shared_ptr<const quant::QuantizedVnmMatrix> PlanCache::int8(
    const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp) {
  return prepared(weight, fp, &Entry::i8, [&] {
    return std::make_shared<const quant::QuantizedVnmMatrix>(
        quant::QuantizedVnmMatrix::quantize(*weight));
  });
}

std::shared_ptr<const spatha::PackedVnm> PlanCache::fp8(
    const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp) {
  return prepared(weight, fp, &Entry::f8, [&] {
    return std::make_shared<const spatha::PackedVnm>(quant::pack_decoded(
        quant::Fp8VnmMatrix::quantize(*weight, Fp8Format::kE4M3)));
  });
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
