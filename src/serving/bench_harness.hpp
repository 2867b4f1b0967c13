// Shared harnesses for the serving measurements behind venomtool's
// serve-bench / route-bench / tune-engine commands and bench_decode. The
// acceptance bars live in those front ends; the harnesses measure and
// check bit-identity.
//
// Four harnesses over one setup shape (BenchSetup):
//   * run_serving_comparison — one deterministic request trace, one
//     pruned encoder per path built from the same seed, a timed
//     sequential forward() loop vs the dynamic-batching engine, and an
//     element-wise bit-identity check of every request's outputs.
//   * run_engine_sweep / measure_engine_rps — the same trace through an
//     engine per combination of the engine-level knobs.
//   * run_serving_load — the scaled-serving overload experiment: an
//     EngineGroup of N replicas under an open-loop Poisson arrival
//     process offered at a multiple of the group's calibrated capacity,
//     with Zipf-skewed request lengths and a bounded admission queue.
//     Reports goodput and client latency percentiles of the admitted
//     requests, the explicit AdmissionError shed counts, and a
//     bit-identity check of every admitted output against a direct
//     forward() on a reference encoder.
//   * run_decode_bench — mixed prefill/decode generation, bit-checked
//     against a direct prefill + decode_step loop.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "format/vnm.hpp"
#include "ops/matmul.hpp"
#include "serving/engine.hpp"
#include "serving/plan.hpp"
#include "serving/router.hpp"
#include "transformer/config.hpp"

namespace venom::serving {

/// What every harness measures: the model and its pruning format, the
/// trace size, and the batching knobs. Every run_* validates its setup
/// before building anything.
struct BenchSetup {
  transformer::ModelConfig model;
  VnmConfig format{64, 2, 8};
  std::size_t requests = 64;  ///< trace length (sessions, for decode)
  /// Tokens per request (prompt tokens, for decode; the shortest request
  /// length, for the load harness).
  std::size_t tokens = 4;
  std::size_t max_batch_tokens = 256;
  std::size_t max_batch_requests = 64;
  std::chrono::microseconds max_wait{500};
  /// Optional EnginePlan path. Applied to the engine (Options::plan_path)
  /// and to the reference encoder alike, so the bit-identity check keeps
  /// comparing like with like when the plan switches layer dtypes.
  std::string plan_path;

  /// The batching knobs and plan path as engine Options.
  Options options() const;
  /// Throws venom::Error naming the field when the trace would be empty.
  void validate() const;
};

/// Measured outcome of one comparison run.
struct BenchComparison {
  std::size_t requests = 0;
  double sequential_s = 0.0;  ///< wall seconds for the whole trace
  double batched_s = 0.0;     ///< same trace through the engine
  double sequential_p50_ms = 0.0;  ///< true per-request forward percentiles
  double sequential_p99_ms = 0.0;
  bool bit_identical = false;  ///< every request, every element
  /// Engine-side counters and latencies, from the timed pass only (the
  /// warmup/correctness pass is excluded, so p50/p99 are steady-state
  /// with a warm plan cache).
  ServingStats stats;

  double speedup() const { return sequential_s / batched_s; }
  double sequential_rps() const {
    return static_cast<double>(requests) / sequential_s;
  }
  double batched_rps() const {
    return static_cast<double>(requests) / batched_s;
  }
};

/// Runs the canonical comparison: deterministic trace (request i is seeded
/// "serving-trace"/i), encoder weights seeded "serving-model" and
/// magnitude-pruned to setup.format for both paths, a correctness pass
/// asserting per-request bit-identity (doubling as warmup), then timed
/// sequential and batched passes over the full trace.
BenchComparison run_serving_comparison(const BenchSetup& setup);

/// Axes of the `venomtool tune-engine` sweep: the engine-level knobs the
/// kernel tuning cache cannot see — batcher token budget, worker split,
/// and the uniform weight dtype the encoder's layers run on. The sweep
/// measures raw knobs, so it ignores plan_path.
struct EngineSweepSetup : BenchSetup {
  std::vector<std::size_t> token_budgets = {128, 256, 512};
  std::vector<std::size_t> worker_counts = {1, 2};
  std::vector<ops::Dtype> dtypes = {ops::Dtype::kF16, ops::Dtype::kI8};
};

/// One measured point of the sweep.
struct EngineSweepPoint {
  std::size_t max_batch_tokens = 0;
  std::size_t workers = 0;
  ops::Dtype dtype = ops::Dtype::kF16;
  double rps = 0.0;  ///< batched trace throughput for this combination
};

/// Every measured point (fastest first) plus the winner packaged as a
/// ready-to-save EnginePlan (fingerprinted for this build, per-layer
/// backend provenance recorded from dispatch).
struct EngineSweepResult {
  std::vector<EngineSweepPoint> ranked;
  EnginePlan plan;
};

/// Measures every combination of the setup's axes over the canonical
/// deterministic trace (same "serving-trace" stream as
/// run_serving_comparison): each combination gets a fresh pruned
/// "serving-model" encoder at the combination's dtype and a fresh engine,
/// one warmup pass, then one timed pass.
EngineSweepResult run_engine_sweep(const EngineSweepSetup& setup);

/// Batched throughput of the canonical trace through an engine built
/// with setup.options() — `venomtool tune-engine` uses this to confirm a
/// reloaded plan (setup.plan_path) reproduces the sweep's measured_rps
/// within tolerance.
double measure_engine_rps(const BenchSetup& setup);

/// The overload experiment's knobs. Request lengths are Zipf-skewed over
/// [tokens, max_tokens]: mostly short, a heavy tail of long ones
/// (exponent length_skew).
struct LoadSetup : BenchSetup {
  std::size_t replicas = 4;
  std::size_t workers = 1;  ///< batch workers per replica
  /// Offered arrival rate as a multiple of the calibrated closed-loop
  /// capacity — 2.0 is the canonical "2x overload" burst.
  double overload = 2.0;
  std::size_t max_tokens = 64;
  double length_skew = 1.1;
  /// Global admission bound (tokens admitted but not completed). The
  /// shedding path under overload: beyond this, submit() throws
  /// AdmissionError(kQueueFull) instead of queueing unboundedly. Sized
  /// to the latency target: an admitted request waits at most roughly
  /// max_queued_tokens / token-throughput, so this bound IS the p99 cap.
  std::size_t max_queued_tokens = 512;
  std::size_t calibration_requests = 64;  ///< closed-loop warmup+capacity
  std::uint64_t seed = 0;  ///< trace stream index (same seed, same trace)

  /// BenchSetup::validate plus an empty length range.
  void validate() const;
};

/// Measured outcome of one overload run.
struct LoadReport {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t rejected_queue = 0;  ///< AdmissionError(kQueueFull) at submit
  std::size_t rejected_rate = 0;   ///< AdmissionError(kRateLimited)
  std::size_t failed = 0;  ///< admitted but failed (should stay 0)
  double capacity_rps = 0.0;  ///< closed-loop calibration estimate
  double offered_rps = 0.0;   ///< the Poisson arrival rate actually used
  double wall_s = 0.0;        ///< first submit -> last completion
  double goodput_rps = 0.0;   ///< admitted completions / wall_s
  double p50_ms = 0.0;  ///< client latency (queue+exec) of admitted reqs
  double p99_ms = 0.0;
  bool bit_identical = false;  ///< every admitted output vs direct forward
  GroupStats stats;
};

/// Runs the overload experiment: calibrate capacity closed-loop over the
/// group (doubling as warmup), then offer setup.requests Poisson arrivals
/// at overload x capacity. Deterministic trace; the wall-clock arrival
/// jitter is the only nondeterminism, which is why the report separates
/// counters (exact) from rates (measured).
LoadReport run_serving_load(const LoadSetup& setup);

/// The autoregressive-decode experiment's knobs: `requests` sessions, each
/// a prompt of `tokens` and new_tokens decode steps with identity feedback
/// (each step's input is the previous output). The harness forces the
/// model causal with attention window == `window` (the KV ring capacity).
struct DecodeBenchSetup : BenchSetup {
  std::size_t new_tokens = 32;
  /// Attention window == KV ring capacity. prompt + new_tokens beyond it
  /// exercises ring wraparound under the benchmark clock.
  std::size_t window = 48;
  /// Prompt tokens per prefill pass — smaller chunks give decode steps
  /// of live sessions more seams to slot into.
  std::size_t prefill_chunk_tokens = 32;
};

/// Measured outcome of one decode run.
struct DecodeBenchReport {
  /// Prefill-only phase: the same prompts as plain encode traffic.
  double solo_prefill_s = 0.0;        ///< wall seconds, all prompts
  double solo_prefill_tok_s = 0.0;    ///< prompt tokens / wall
  /// p50 forward time of one token-budget prefill batch — the latency a
  /// decode step would pay if it had to wait out bulk prefill work. The
  /// mixed run's decode p99 must come in under this.
  double solo_prefill_batch_p50_ms = 0.0;
  /// Mixed phase: every session generating concurrently, prefill chunks
  /// and decode steps sharing the batch queue.
  double mixed_wall_s = 0.0;
  double decode_tok_s = 0.0;  ///< generated tokens / mixed wall
  bool bit_identical = false;  ///< every session vs the direct decode loop
  ServingStats stats;  ///< mixed phase (decode_p50_ms / decode_p99_ms)
};

/// Runs the decode benchmark: a correctness pass checking every session's
/// generated columns bit-match a direct prefill + decode_step loop on an
/// independently built reference encoder (doubles as warmup), then a
/// timed prefill-only phase and a timed mixed generation phase.
DecodeBenchReport run_decode_bench(const DecodeBenchSetup& setup);

}  // namespace venom::serving
