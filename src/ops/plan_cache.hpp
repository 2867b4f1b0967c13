// ExecContext-owned cache of prepared weights.
//
// VENOM compresses and lays out a weight once (paper Section 4); of
// everything a V:N:M dispatch needs, only the kernel configuration
// depends on the batch width, and ExecContext::select_config makes that
// choice per call. So the cache is keyed by the weight alone: the
// caller-supplied fingerprint (MatmulArgs::vnm_fingerprint, from
// spatha::weight_fingerprint) plus shape. One entry holds the shared
// VnmMatrix and its fp16 PackedVnm, adopted from a holder that packed it
// already (transformer::Linear) or packed on first use. A quantized
// weight is quantized and packed once by its holder, in its final
// format (transformer::Linear::set_weight_dtype), so it has no entry.
//
// A ragged batch width therefore never misses. Callers without a
// fingerprint (one-shot args) bypass the cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>

#include "common/mutex.hpp"
#include "format/vnm.hpp"
#include "spatha/packed.hpp"

namespace venom::ops {

/// LRU cache of prepared weights, `capacity` weights deep. Thread-safe:
/// serving workers share one context. Every lookup counts one hit or one
/// miss (a miss creates the weight's entry). A weight is packed outside
/// the lock; racing first uses of one weight each pack it, and the first
/// insert wins.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64);

  /// The fp16 packed form of `weight`, whose fingerprint is `fp`.
  /// `adopt`, when non-null, must be a PackedVnm of *weight: it fills an
  /// entry that has no packed form yet, and is returned as is.
  std::shared_ptr<const spatha::PackedVnm> packed(
      const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp,
      std::shared_ptr<const spatha::PackedVnm> adopt = nullptr)
      VENOM_EXCLUDES(mutex_);

  /// Cached weights.
  std::size_t size() const VENOM_EXCLUDES(mutex_);
  std::size_t hits() const VENOM_EXCLUDES(mutex_);
  std::size_t misses() const VENOM_EXCLUDES(mutex_);

 private:
  struct Key {
    std::uint64_t fingerprint = 0;
    std::size_t rows = 0;
    std::size_t cols = 0;

    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    Key key;
    // Keeps the source of an adopted PackedVnm alive: one built with the
    // borrowing constructor does not own it.
    std::shared_ptr<const VnmMatrix> weight;
    std::shared_ptr<const spatha::PackedVnm> packed;
  };

  /// The entry for `key`, created on a miss (evicting the least recently
  /// used one) and moved to the LRU front; counts the lookup.
  Entry& entry_locked(const Key& key,
                      const std::shared_ptr<const VnmMatrix>& weight)
      VENOM_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_ VENOM_GUARDED_BY(mutex_);  // front = most recent
  std::map<Key, std::list<Entry>::iterator> index_ VENOM_GUARDED_BY(mutex_);
  std::size_t hits_ VENOM_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ VENOM_GUARDED_BY(mutex_) = 0;
};

}  // namespace venom::ops
