// ExecContext-owned cache of quantized weight images.
//
// The quantized backends accept plain fp16 V:N:M args (that is what
// `VENOM_BACKEND=vnm-int8` produces: the caller built fp16 args, the
// override rerouted them) and quantize the left operand on the fly.
// Re-quantizing O(nnz) values per call would defeat the point, so a
// QuantCache memoizes the int8/fp8 image per weight — keyed by the
// caller-supplied weight fingerprint (MatmulArgs::vnm_fingerprint, the
// same pre-hashed handle the PlanCache keys on) plus shape and dtype —
// with the PlanCache's lifecycle: LRU-bounded, owned by the context,
// dropped with it. Callers without a fingerprint (one-shot args) bypass
// the cache and quantize fresh.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>

#include "common/fp8.hpp"
#include "common/mutex.hpp"
#include "format/vnm.hpp"
#include "ops/dtype.hpp"
#include "quant/quantized_vnm.hpp"

namespace venom::ops {

/// LRU cache of immutable quantized weight images. Thread-safe; a miss
/// quantizes under the lock (quantization is per-weight, not per-call,
/// so contention on a miss is the rare path).
class QuantCache {
 public:
  explicit QuantCache(std::size_t capacity = 16) : capacity_(capacity) {}

  /// The int8 image of `a` (fingerprint `fp`), quantizing on miss.
  std::shared_ptr<const quant::QuantizedVnmMatrix> get_i8(
      const VnmMatrix& a, std::uint64_t fp) VENOM_EXCLUDES(mutex_);

  /// The fp8 image of `a` in `format`, quantizing on miss.
  std::shared_ptr<const quant::Fp8VnmMatrix> get_fp8(
      const VnmMatrix& a, std::uint64_t fp, Fp8Format format)
      VENOM_EXCLUDES(mutex_);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const VENOM_EXCLUDES(mutex_);

  std::size_t size() const VENOM_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  void clear() VENOM_EXCLUDES(mutex_);

 private:
  struct Key {
    std::uint64_t fingerprint = 0;
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    Dtype dtype = Dtype::kI8;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const quant::QuantizedVnmMatrix> i8;
    std::shared_ptr<const quant::Fp8VnmMatrix> f8;
  };

  /// Returns the entry for `key`, moving it to the LRU front; nullptr on
  /// miss.
  Entry* find_locked(const Key& key) VENOM_REQUIRES(mutex_);
  /// Inserts at the LRU front, evicting the back past capacity.
  Entry& insert_locked(Entry entry) VENOM_REQUIRES(mutex_);

  std::size_t capacity_;
  mutable Mutex mutex_;
  // front = most recently used
  std::list<Entry> entries_ VENOM_GUARDED_BY(mutex_);
  Stats stats_ VENOM_GUARDED_BY(mutex_);
};

}  // namespace venom::ops
