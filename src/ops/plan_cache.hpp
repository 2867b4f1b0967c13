// ExecContext-owned cache of prepared weights.
//
// VENOM compresses and lays out a weight once (paper Section 4); of
// everything a V:N:M dispatch needs, only the kernel configuration
// depends on the batch width, and ExecContext::select_config makes that
// choice per call. So the cache is keyed by the weight alone: the
// caller-supplied fingerprint (MatmulArgs::vnm_fingerprint, from
// spatha::weight_fingerprint) plus shape. One entry holds one weight's
// prepared operands:
//
//   * the shared VnmMatrix;
//   * its fp16 PackedVnm, adopted from a holder that packed it already
//     (transformer::Linear) or packed on first fp16 use;
//   * its int8 image and the packed decode of its fp8-E4M3 image (what
//     vnm-fp8 runs vnm-fast's kernels over), built on the first quantized
//     dispatch over the fp16 args (the `VENOM_BACKEND=vnm-int8` reroute).
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
#include "quant/quantized_vnm.hpp"
#include "spatha/packed.hpp"

namespace venom::ops {

/// LRU cache of prepared weights, `capacity` weights deep. Thread-safe:
/// serving workers share one context. Every lookup counts one hit or one
/// miss (a miss creates the weight's entry). An image is built outside
/// the lock; racing first uses of one image each build it, and the first
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

  /// The int8 image of `weight` (QuantizedVnmMatrix::quantize).
  std::shared_ptr<const quant::QuantizedVnmMatrix> int8(
      const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp)
      VENOM_EXCLUDES(mutex_);

  /// The packed decode (quant::pack_decoded) of `weight`'s fp8-E4M3
  /// image (Fp8VnmMatrix::quantize), the format fp16 args quantize to.
  std::shared_ptr<const spatha::PackedVnm> fp8(
      const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp)
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
    std::shared_ptr<const quant::QuantizedVnmMatrix> i8;
    std::shared_ptr<const spatha::PackedVnm> f8;
  };

  /// The `slot` image of the weight's entry, creating the entry (and
  /// evicting the least recently used one) on a miss and calling `build`
  /// outside the lock when the slot is empty.
  template <class T, class Build>
  std::shared_ptr<const T> prepared(
      const std::shared_ptr<const VnmMatrix>& weight, std::uint64_t fp,
      std::shared_ptr<const T> Entry::*slot, const Build& build)
      VENOM_EXCLUDES(mutex_);

  /// The entry for `key`, moved to the LRU front; counts the lookup.
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
