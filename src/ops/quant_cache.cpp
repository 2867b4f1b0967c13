#include "ops/quant_cache.hpp"

#include <utility>

namespace venom::ops {

QuantCache::Entry* QuantCache::find_locked(const Key& key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return &entries_.front();
    }
  }
  return nullptr;
}

QuantCache::Entry& QuantCache::insert_locked(Entry entry) {
  entries_.push_front(std::move(entry));
  while (entries_.size() > capacity_) entries_.pop_back();
  return entries_.front();
}

std::shared_ptr<const quant::QuantizedVnmMatrix> QuantCache::get_i8(
    const VnmMatrix& a, std::uint64_t fp) {
  const Key key{fp, a.rows(), a.cols(), Dtype::kI8};
  MutexLock lock(mutex_);
  if (Entry* hit = find_locked(key)) {
    ++stats_.hits;
    return hit->i8;
  }
  ++stats_.misses;
  auto image = std::make_shared<const quant::QuantizedVnmMatrix>(
      quant::QuantizedVnmMatrix::quantize(a));
  if (capacity_ == 0) return image;
  return insert_locked(Entry{key, image, nullptr}).i8;
}

std::shared_ptr<const quant::Fp8VnmMatrix> QuantCache::get_fp8(
    const VnmMatrix& a, std::uint64_t fp, Fp8Format format) {
  const Key key{fp, a.rows(), a.cols(),
                format == Fp8Format::kE5M2 ? Dtype::kF8E5M2 : Dtype::kF8E4M3};
  MutexLock lock(mutex_);
  if (Entry* hit = find_locked(key)) {
    ++stats_.hits;
    return hit->f8;
  }
  ++stats_.misses;
  auto image = std::make_shared<const quant::Fp8VnmMatrix>(
      quant::Fp8VnmMatrix::quantize(a, format));
  if (capacity_ == 0) return image;
  return insert_locked(Entry{key, nullptr, image}).f8;
}

QuantCache::Stats QuantCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::size_t QuantCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void QuantCache::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
}

}  // namespace venom::ops
