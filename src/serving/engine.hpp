// Batched sparse-transformer inference engine — one replica of the
// serving layer (EngineGroup in router.hpp scales it horizontally).
//
// An InferenceEngine serves concurrent submit() calls over one (typically
// V:N:M-pruned) encoder through a dynamic batcher: queued sequences are
// packed along the token axis into one forward_batched() pass per batch,
// so every sparse weight is streamed once per batch instead of once per
// request (the weight-stationary reuse that makes batching pay), while
// attention stays confined to each request's span — per-request outputs
// are bit-identical to unbatched forward() calls.
//
// The encoder is held as shared_ptr<const>: an EngineGroup builds N
// engines over ONE encoder, so replicating the serving capacity does not
// replicate a single weight byte. Each engine owns a private
// ops::ExecContext (thread pool handle, PlanCache of per-weight prepared
// operands, tuning cache, warm kernel scratch) passed per forward call —
// the const-shared forward path — so replicas never contend on one plan
// cache.
//
// Steady-state hot path: each worker owns a ScratchArena (segment
// tables) and a reusable staging matrix whose buffers settle at their
// high-water size, so after warmup the batching layer performs no
// allocation beyond the per-request output matrices it hands back.
//
// Generation (Request::max_new_tokens > 0): the engine owns a GenSession
// per live request — a KV ring (kv_cache.hpp) plus the feedback buffer —
// and cycles the request through the shared queue one phase step at a
// time: prompt chunks (throughput work), then 1-token decode steps that
// the batcher ranks ahead of prefill and flushes without waiting on the
// timer (latency work). Both phases run Encoder::forward_cached, so a
// generation batch mixes prefill chunks and decode steps of different
// sessions in one pass, and the outputs stay bit-identical to a full
// causal forward over each accumulated sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/mutex.hpp"
#include "ops/context.hpp"
#include "serving/batcher.hpp"
#include "serving/options.hpp"
#include "serving/request.hpp"
#include "tensor/matrix.hpp"
#include "transformer/encoder.hpp"

namespace venom::serving {

/// Monotonic serving counters plus latency percentiles over the window.
struct ServingStats {
  std::size_t requests = 0;  ///< completed requests
  std::size_t batches = 0;   ///< executed forward passes
  std::size_t tokens = 0;    ///< tokens pushed through the encoder
  std::size_t shed = 0;      ///< requests shed for a lapsed deadline
  double avg_batch_tokens = 0.0;
  double p50_ms = 0.0;  ///< submit-to-completion, over the window
  double p99_ms = 0.0;
  std::size_t plan_cache_hits = 0;
  std::size_t plan_cache_misses = 0;
  std::size_t peak_arena_bytes = 0;  ///< largest per-batch arena cycle
  transformer::TimingBreakdown timing;  ///< aggregated over all batches
  // Generation traffic (zero on encode-only workloads).
  std::size_t prefill_tokens = 0;  ///< prompt tokens run through prefill
  std::size_t decode_steps = 0;    ///< single-token decode passes
  double decode_p50_ms = 0.0;  ///< per-step queue+exec, over the window
  double decode_p99_ms = 0.0;
};

/// Engine-owned per-sequence generation state. Lives on the replica that
/// admitted the request (sessions are sticky — the KV ring is here), and
/// travels through the queue inside the request's PendingRequest.
struct GenSession {
  transformer::KvCache cache;
  /// (hidden x 1) feedback buffer: the newest output column, which the
  /// on_token hook may rewrite into the next decode input.
  HalfMatrix next_input;
  /// (hidden x max_new_tokens) decode outputs, filled left to right.
  HalfMatrix generated;
  std::size_t tokens_generated = 0;
  std::size_t prompt_tokens = 0;
  double prefill_ms = 0.0;  ///< forward time over the prompt chunks
  double decode_ms = 0.0;   ///< forward time over the decode steps
  Clock::time_point submitted{};
  double queue_ms = 0.0;  ///< submit -> first forward (set once)
  bool started = false;
};

/// Thread-safe batched inference front end over one pruned encoder.
class InferenceEngine {
 public:
  /// Takes ownership of the encoder (prune/sparsify it before handing it
  /// over). Workers start immediately. Throws venom::Error on invalid
  /// options (Options::validate).
  explicit InferenceEngine(transformer::Encoder encoder, Options opts = {});

  /// Shares a read-only encoder — the replicated-serving constructor. N
  /// engines over one shared_ptr serve from the same weights while each
  /// dispatches through its private ExecContext. `replica_id` is echoed
  /// in every Response this engine delivers.
  InferenceEngine(std::shared_ptr<const transformer::Encoder> encoder,
                  Options opts = {}, std::uint32_t replica_id = 0);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Queues one request and returns the future of its Response. Throws
  /// venom::Error on a shape mismatch and AdmissionError(kShutdown) once
  /// shut down. `on_done` (optional — the router's hook) fires exactly
  /// once when the request leaves the system: delivered, failed, or
  /// shed. Safe from any thread.
  std::future<Response> submit(Request req,
                               std::function<void()> on_done = {});

  /// Stops accepting requests, lets the workers drain everything already
  /// queued — including in-flight generation sessions, which run to
  /// completion (bounded by max_new_tokens) — and joins them.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServingStats stats() const VENOM_EXCLUDES(stats_mutex_);

  /// Zeroes the serving counters, latency window, and timing aggregate —
  /// e.g. after a warmup phase, so percentiles reflect steady state. The
  /// plan cache (and its cumulative hit/miss counters) is deliberately
  /// kept: discarding it would un-warm exactly what warmup warmed.
  void reset_stats() VENOM_EXCLUDES(stats_mutex_);

  /// Tokens admitted but not yet completed — the router's routing key
  /// (least-queued-tokens). Lock-free.
  std::size_t load_tokens() const {
    return load_tokens_.load(std::memory_order_relaxed);
  }
  std::uint32_t replica_id() const { return replica_id_; }

  const transformer::Encoder& encoder() const { return *encoder_; }
  const Options& options() const { return opts_; }

  /// The engine's execution context (pool, plan cache, tuning cache,
  /// kernel scratch) — every forward dispatches through it. Exposed for
  /// diagnostics; safe to share with other dispatch work.
  ops::ExecContext& context() { return ctx_; }
  const ops::ExecContext& context() const { return ctx_; }

 private:
  /// Per-worker reusable buffers (never shared, so unsynchronized).
  struct WorkerState {
    ScratchArena arena;
    HalfMatrix staging;      ///< packed encode batch, capacity retained
    HalfMatrix gen_staging;  ///< packed prefill/decode batch
  };

  // The worker paths run with no engine lock held: they take
  // stats_mutex_ only for the bounded stats update, and touch the
  // batcher only through its own-locked public surface — so "forward
  // passes never run under a lock" is a checked contract, not a comment.
  void worker_loop() VENOM_EXCLUDES(stats_mutex_);
  void process_batch(std::vector<PendingRequest>& batch, WorkerState& ws)
      VENOM_EXCLUDES(stats_mutex_);
  /// The classic single-shot path: one forward_batched over the span.
  void process_encode(std::span<PendingRequest> batch, WorkerState& ws)
      VENOM_EXCLUDES(stats_mutex_);
  /// The generation path: one forward_cached over the span's prefill
  /// chunks and decode steps, then per-item advance (requeue the next
  /// step, or deliver the finished session).
  void process_generation(std::span<PendingRequest> batch, WorkerState& ws)
      VENOM_EXCLUDES(stats_mutex_);
  void record_batch(std::span<const PendingRequest> batch,
                    std::size_t batch_tokens,
                    const transformer::TimingBreakdown& timing,
                    Clock::time_point done, const WorkerState& ws)
      VENOM_EXCLUDES(stats_mutex_);

  std::shared_ptr<const transformer::Encoder> encoder_;
  Options opts_;
  std::uint32_t replica_id_ = 0;
  ops::ExecContext ctx_;
  DynamicBatcher batcher_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> load_tokens_{0};
  std::atomic<bool> shut_down_{false};

  // stats_mutex_ orders AFTER the batcher's lock is released: stats
  // updates never touch the batcher and the batcher never calls back
  // into the engine, so the two locks are never held together (each
  // surface EXCLUDES the other's lock by construction).
  mutable Mutex stats_mutex_;
  std::size_t requests_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t batches_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t tokens_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t prefill_tokens_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t decode_steps_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t peak_arena_bytes_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  transformer::TimingBreakdown timing_ VENOM_GUARDED_BY(stats_mutex_);
  /// Ring buffer of latency_window samples.
  std::vector<double> latency_ms_ VENOM_GUARDED_BY(stats_mutex_);
  std::size_t latency_next_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t latency_count_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  /// Per-decode-step latency ring.
  std::vector<double> decode_ms_ VENOM_GUARDED_BY(stats_mutex_);
  std::size_t decode_next_ VENOM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t decode_count_ VENOM_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace venom::serving
