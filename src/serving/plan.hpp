// Persisted engine-level tuning: the serving analogue of the kernel
// tuning cache.
//
// The kernel tier tunes one SpMM shape; this tier tunes the knobs above
// the kernels — the batcher's token budget, the worker split, and which
// datapath (fp16 / int8 / fp8) each encoder layer's weights run on. A
// `venomtool tune-engine` sweep measures real serving throughput over
// those axes and persists the winner as an EnginePlan: a small versioned
// JSON artefact fingerprinted with the measuring build's CPU feature
// string, exactly like a TuningKey. Point serving::Options::plan_path at
// the file (or pass --plan= to venomtool serve-bench / route-bench) and
// the engine folds the measured knobs back in at construction.
//
// Lifecycle rules mirror the tuning cache where the artefacts agree and
// diverge where they must:
//   * a plan whose `features` fingerprint does not match this build is
//     ignored gracefully (entries from other machines never apply);
//   * a missing or corrupt plan file THROWS venom::Error — unlike the
//     env-var tuning cache, plan_path is an explicit per-run request,
//     and silently serving untuned would defeat the point of asking.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ops/matmul.hpp"
#include "serving/options.hpp"
#include "transformer/encoder.hpp"

namespace venom::serving {

/// Measured per-layer datapath choice. `backend` records the registry
/// backend the sweep's dispatch selected for this layer's dtype (pure
/// provenance — application sets the dtype and lets the registry
/// re-select, so a VENOM_BACKEND override still wins); `dtype` is what
/// apply() actually sets on the layer's weights.
struct EnginePlanLayer {
  std::string backend;
  ops::Dtype dtype = ops::Dtype::kF16;
};

/// One measured serving configuration for one model on one machine.
struct EnginePlan {
  static constexpr std::size_t kVersion = 1;

  std::string model;     ///< ModelConfig::name the sweep ran over
  std::string features;  ///< cpu_feature_string() of the measuring build
  /// Batcher token budget the sweep measured fastest (0 = not tuned,
  /// apply() leaves Options::batching untouched).
  std::size_t max_batch_tokens = 0;
  /// Batch-execution workers per engine (0 = not tuned).
  std::size_t workers = 0;
  /// Serving throughput of the winning configuration during the sweep —
  /// provenance for tooling; reloading the plan should reproduce it
  /// within measurement tolerance.
  double measured_rps = 0.0;
  /// Per-layer datapath, index-aligned with Encoder::layer(i). Empty =
  /// the sweep did not tune dtypes.
  std::vector<EnginePlanLayer> layers;

  /// Whether the plan was measured by a build with this CPU fingerprint
  /// (plans from other builds never apply, like tuning-cache entries).
  bool compatible() const;

  /// Folds the measured serving knobs (token budget, worker split) into
  /// `opts`. Returns false — leaving opts untouched — when the
  /// fingerprint does not match this build.
  bool apply(Options& opts) const;

  /// Applies the per-layer dtype choice to a mutable encoder (possible
  /// only before the encoder is shared const — the owning
  /// InferenceEngine / EngineGroup constructors). Plan entries beyond
  /// encoder.layer_count() are ignored. Returns false (encoder
  /// untouched) on a fingerprint mismatch.
  bool apply(transformer::Encoder& encoder) const;
};

/// Writes the plan as a JSON document:
///
///   {"format": "venom-engine-plan", "version": 1, "model": "…",
///    "features": "…", "max_batch_tokens": …, "workers": …,
///    "measured_rps": …,
///    "layers": [{"backend": "…", "dtype": "int8"}, …]}
///
/// Throws venom::Error, before opening `path`, on a non-finite
/// measured_rps.
void save_engine_plan(const EnginePlan& plan, const std::string& path);

/// Parses an engine plan. Throws venom::Error on a missing file,
/// malformed JSON, a foreign "format" tag, an unsupported version, or an
/// unknown dtype name.
EnginePlan load_engine_plan(const std::string& path);

/// Returns `opts` with its plan (when Options::plan_path is set) folded
/// in via EnginePlan::apply. The engine/group constructors call this at
/// member-init time, before any member derived from the options exists —
/// the batcher copies opts_.batching, so the fold must happen first.
Options options_with_plan(Options opts);

/// Applies the plan's per-layer dtypes (when `plan_path` is non-empty)
/// to the still-mutable encoder, then freezes it as shared const. Only
/// the owning (by-value) engine/group constructors can use this — once
/// the encoder is shared, its weights are immutable by contract.
std::shared_ptr<const transformer::Encoder> encoder_with_plan(
    transformer::Encoder encoder, const std::string& plan_path);

}  // namespace venom::serving
