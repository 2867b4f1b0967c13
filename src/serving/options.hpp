// One coherent configuration surface for the serving layer.
//
// Before PR 7 the knobs were scattered: BatchPolicy (batcher), a
// separate ServingConfig (engine), and nothing for the router. Options
// folds all of them — batching, per-replica engine knobs, replica count,
// admission policy — into one struct with *validated* construction:
// validate() rejects zero budgets, zero replicas, and rate limits with
// no burst capacity by throwing venom::Error at construction time,
// instead of letting a zero budget hang a worker loop forever.
#pragma once

#include <cstddef>
#include <string>

#include "common/error.hpp"
#include "serving/admission.hpp"
#include "serving/batcher.hpp"

namespace venom::serving {

/// Every serving knob: batch formation, per-replica engine resources,
/// horizontal scale, and admission control. InferenceEngine reads the
/// first three groups; EngineGroup reads all four.
struct Options {
  /// Batch formation (token budget, request cap, flush timer).
  BatchPolicy batching;
  /// Batch-execution workers per engine. One worker already parallelizes
  /// inside the kernels via the shared ThreadPool; extra workers overlap
  /// batch assembly/split with compute at the cost of pool contention.
  std::size_t workers = 1;
  /// Latency samples retained for the p50/p99 estimate (ring buffer).
  std::size_t latency_window = 4096;
  /// Engine replicas an EngineGroup routes across (shared const weights,
  /// private ExecContexts). Ignored by a bare InferenceEngine.
  std::size_t replicas = 1;
  /// Per-tenant rate limits and the global in-flight bound. Ignored by a
  /// bare InferenceEngine (admission is the router's job).
  AdmissionPolicy admission{};
  /// KV ring capacity per generation session (slots of float K and V
  /// per layer — kv_cache.hpp has the memory math). When the encoder has
  /// an attention window this must equal it; otherwise each session's
  /// prompt + max_new_tokens must fit within it (checked at submit).
  std::size_t kv_capacity = 512;
  /// Upper bound on Request::max_new_tokens (rejected at submit) — also
  /// what bounds the work a generation session can hold across shutdown
  /// (in-flight sessions drain to completion).
  std::size_t max_new_tokens = 256;
  /// Prompt tokens per prefill pass of a generation request. 0 sizes
  /// chunks to batching.max_batch_tokens. Smaller chunks interleave
  /// decode steps of live sessions between prompt chunks of new ones.
  std::size_t prefill_chunk_tokens = 0;
  /// Path of a persisted EnginePlan (serving/plan.hpp) produced by
  /// `venomtool tune-engine`. When set, the engine / group constructors
  /// load it and fold the measured knobs (batcher token budget, worker
  /// split, per-layer weight dtype where the encoder is still mutable)
  /// into this Options before validation. A missing or corrupt file
  /// throws venom::Error; a plan measured by a build with a different
  /// CPU fingerprint is ignored gracefully.
  std::string plan_path{};

  /// Throws venom::Error on configurations that could never serve a
  /// request or would hang instead of failing fast.
  void validate() const {
    VENOM_CHECK_MSG(batching.max_batch_tokens >= 1,
                    "Options: max_batch_tokens must be positive");
    VENOM_CHECK_MSG(batching.max_batch_requests >= 1,
                    "Options: max_batch_requests must be positive");
    VENOM_CHECK_MSG(workers >= 1, "Options: engine needs at least one worker");
    VENOM_CHECK_MSG(latency_window >= 1,
                    "Options: latency_window must be positive");
    VENOM_CHECK_MSG(replicas >= 1, "Options: at least one replica");
    const auto check_limit = [](const TenantPolicy& limit, const char* who) {
      VENOM_CHECK_MSG(limit.tokens_per_s >= 0.0 && limit.burst_tokens >= 0.0,
                      "Options: negative admission budget for " << who);
      // A positive rate with a zero burst admits nothing, ever — reject
      // the configuration instead of rejecting every request.
      VENOM_CHECK_MSG(limit.tokens_per_s == 0.0 || limit.burst_tokens >= 1.0,
                      "Options: tenant rate limit for "
                          << who << " has zero burst capacity");
    };
    check_limit(admission.default_limit, "the default tenant");
    for (const auto& [tenant, limit] : admission.tenants)
      check_limit(limit, tenant.c_str());
    VENOM_CHECK_MSG(kv_capacity >= 1,
                    "Options: kv_capacity must be positive (a generation "
                    "session needs at least one KV slot)");
  }
};

}  // namespace venom::serving
