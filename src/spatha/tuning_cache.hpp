// Persistent cache of empirically tuned kernel configurations.
//
// The paper selects Spatha template parameters per problem shape from a
// tuning table built offline; this is the CPU analogue. An entry maps
// (R, K, C, V:N:M, CPU feature fingerprint) to the SpmmConfig that
// measured fastest on this machine (gpumodel::autotune_measured builds
// entries; `venomtool tune` persists them as JSON via io::serialize).
//
// Dispatch integration: spatha::select_config consults the process-wide
// cache before falling back to the fixed heuristic, so spmm_vnm, the
// fused variant, sddmm_vnm, transformer::Linear, and the int8 /
// fp8 kernels all pick up tuned configurations transparently. One cache
// serves every datapath: the key's feature string carries the dtype's
// tag (make_tuning_key; the table is in spatha/config.hpp). The global
// cache starts empty and lazily loads the file named by
// $VENOM_TUNE_CACHE on first consultation; a missing or corrupt file
// degrades silently to the heuristic.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"

namespace venom::spatha {

/// Identity of one tuned problem. `features` pins the entry to the
/// instruction-set the measuring binary was compiled for (see
/// common/cpu_features.hpp); entries from other builds never match.
struct TuningKey {
  std::size_t rows = 0;    ///< R
  std::size_t cols = 0;    ///< K
  std::size_t b_cols = 0;  ///< C
  std::size_t v = 0;
  std::size_t n = 0;
  std::size_t m = 0;
  std::string features;

  friend auto operator<=>(const TuningKey&, const TuningKey&) = default;
};

/// Key for a problem on the `dtype` datapath as this binary would look
/// it up: features = this build's cpu_feature_string() plus the dtype's
/// tag ("" / "+i8" / "+fp8", see the table in spatha/config.hpp).
TuningKey make_tuning_key(const VnmConfig& fmt, std::size_t rows,
                          std::size_t cols, std::size_t b_cols,
                          ops::Dtype dtype = ops::Dtype::kF16);

/// One measured result. The heuristic throughput is stored alongside so
/// tooling can report the tuning gain without re-measuring.
struct TuningEntry {
  SpmmConfig config;
  double gflops = 0.0;            ///< measured with `config`
  double heuristic_gflops = 0.0;  ///< same problem, fixed heuristic config
};

/// Thread-safe map of tuned configurations.
class TuningCache {
 public:
  TuningCache() = default;
  // Movable (the mutex itself is not moved) so loaders can return caches
  // by value; not copyable.
  TuningCache(TuningCache&& other) noexcept;
  TuningCache& operator=(TuningCache&& other) noexcept;

  /// The entry for `key`, if present.
  std::optional<TuningEntry> find(const TuningKey& key) const
      VENOM_EXCLUDES(mutex_);

  /// The tuned config for a problem on the `dtype` datapath under this
  /// build's feature set (the entry at make_tuning_key).
  std::optional<SpmmConfig> lookup(const VnmConfig& fmt, std::size_t rows,
                                   std::size_t cols, std::size_t b_cols,
                                   ops::Dtype dtype = ops::Dtype::kF16) const;

  /// Inserts or replaces the entry for `key`.
  void put(const TuningKey& key, const TuningEntry& entry)
      VENOM_EXCLUDES(mutex_);

  /// Removes the entry for `key`, if present.
  void erase(const TuningKey& key) VENOM_EXCLUDES(mutex_);

  void clear() VENOM_EXCLUDES(mutex_);
  std::size_t size() const VENOM_EXCLUDES(mutex_);
  bool empty() const { return size() == 0; }

  /// Snapshot of all entries in key order (serialization, reporting).
  std::vector<std::pair<TuningKey, TuningEntry>> entries() const
      VENOM_EXCLUDES(mutex_);

  /// Merges the entries of the JSON cache at `path` into this cache.
  /// Returns false — leaving the cache unchanged — on a missing,
  /// unreadable, or corrupt file instead of throwing.
  bool try_load(const std::string& path);

  /// Process-wide cache consulted by select_config. The first call loads
  /// $VENOM_TUNE_CACHE (when set) via try_load.
  static TuningCache& global();

 private:
  mutable Mutex mutex_;
  std::map<TuningKey, TuningEntry> map_ VENOM_GUARDED_BY(mutex_);
};

}  // namespace venom::spatha
