#include "spatha/tuning_cache.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "io/serialize.hpp"

namespace venom::spatha {

// make_tuning_key lives in spatha/config.cpp, next to the dtype's
// heuristic: the two halves of the datapath table stay side by side.

TuningCache::TuningCache(TuningCache&& other) noexcept {
  MutexLock lock(other.mutex_);
  map_ = std::move(other.map_);
}

TuningCache& TuningCache::operator=(TuningCache&& other) noexcept {
  if (this != &other) {
    // Sequential locking instead of a two-lock scope: the maps hand off
    // through a local, so no thread ever holds both mutexes — there is
    // no ordering to get wrong (and nothing the analysis cannot model).
    std::map<TuningKey, TuningEntry> moved;
    {
      MutexLock lock(other.mutex_);
      moved = std::move(other.map_);
    }
    MutexLock lock(mutex_);
    map_ = std::move(moved);
  }
  return *this;
}

std::optional<TuningEntry> TuningCache::find(const TuningKey& key) const {
  MutexLock lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::optional<SpmmConfig> TuningCache::lookup(const VnmConfig& fmt,
                                              std::size_t rows,
                                              std::size_t cols,
                                              std::size_t b_cols,
                                              ops::Dtype dtype) const {
  // Fast path for the common untuned process: skip building the key (its
  // feature string allocates) when there is nothing to find.
  if (empty()) return std::nullopt;
  const auto entry = find(make_tuning_key(fmt, rows, cols, b_cols, dtype));
  if (!entry.has_value()) return std::nullopt;
  return entry->config;
}

void TuningCache::put(const TuningKey& key, const TuningEntry& entry) {
  MutexLock lock(mutex_);
  map_[key] = entry;
}

void TuningCache::erase(const TuningKey& key) {
  MutexLock lock(mutex_);
  map_.erase(key);
}

void TuningCache::clear() {
  MutexLock lock(mutex_);
  map_.clear();
}

std::size_t TuningCache::size() const {
  MutexLock lock(mutex_);
  return map_.size();
}

std::vector<std::pair<TuningKey, TuningEntry>> TuningCache::entries() const {
  MutexLock lock(mutex_);
  return {map_.begin(), map_.end()};
}

bool TuningCache::try_load(const std::string& path) {
  TuningCache loaded;
  try {
    loaded = io::load_tuning_cache(path);
  } catch (const Error&) {
    return false;
  }
  for (const auto& [key, entry] : loaded.entries()) put(key, entry);
  return true;
}

TuningCache& TuningCache::global() {
  static TuningCache cache;
  static const bool loaded = [] {
    const char* path = std::getenv("VENOM_TUNE_CACHE");
    if (path != nullptr && *path != '\0') cache.try_load(path);
    return true;
  }();
  (void)loaded;
  return cache;
}

}  // namespace venom::spatha
