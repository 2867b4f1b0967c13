#include "serving/engine.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "serving/plan.hpp"

namespace venom::serving {

// `opts` is deliberately passed on (not moved) to the delegated
// constructor: encoder_with_plan reads opts.plan_path, and the two
// argument evaluations are indeterminately sequenced — a move here could
// hand the delegate an empty path before the encoder-side apply ran.
InferenceEngine::InferenceEngine(transformer::Encoder encoder, Options opts)
    : InferenceEngine(encoder_with_plan(std::move(encoder), opts.plan_path),
                      opts) {}

InferenceEngine::InferenceEngine(
    std::shared_ptr<const transformer::Encoder> encoder, Options opts,
    std::uint32_t replica_id)
    : encoder_(std::move(encoder)), opts_(options_with_plan(std::move(opts))),
      replica_id_(replica_id),
      batcher_(opts_.batching),
      latency_ms_(std::max<std::size_t>(1, opts_.latency_window), 0.0),
      decode_ms_(std::max<std::size_t>(1, opts_.latency_window), 0.0) {
  VENOM_CHECK_MSG(encoder_ != nullptr, "engine needs an encoder");
  opts_.validate();
  // The encoder is never mutated: every forward below passes the
  // engine's private context per call (ops::resolve), so one const
  // encoder can back any number of replicas. This context's plan cache
  // keeps each weight's packed form for every batch width, and its
  // scratch pool keeps the packed B panels warm across batches.
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::future<Response> InferenceEngine::submit(Request req,
                                              std::function<void()> on_done) {
  VENOM_CHECK_MSG(req.input.rows() == encoder_->config().hidden,
                  "request has " << req.input.rows() << " features, encoder "
                                 << encoder_->config().hidden);
  VENOM_CHECK_MSG(req.input.cols() >= 1, "request has no tokens");
  // Reject what the forward would reject, here, where the error can be
  // confined to the offending caller — inside a batch it would fail
  // every co-batched request's future.
  for (std::size_t i = 0; i < encoder_->layer_count(); ++i) {
    const auto pattern =
        encoder_->layer(i).attention().dynamic_score_sparsity();
    if (pattern.has_value()) {
      VENOM_CHECK_MSG(req.max_new_tokens == 0,
                      "generation is incompatible with dynamic N:M "
                      "attention (forward_cached has no pruned-score path)");
      VENOM_CHECK_MSG(req.input.cols() % pattern->m == 0,
                      "request length " << req.input.cols()
                          << " not divisible by the dynamic attention M="
                          << pattern->m);
    }
  }
  if (req.max_new_tokens > 0) {
    VENOM_CHECK_MSG(req.max_new_tokens <= opts_.max_new_tokens,
                    "request wants " << req.max_new_tokens
                                     << " tokens, options cap is "
                                     << opts_.max_new_tokens);
    VENOM_CHECK_MSG(encoder_->config().causal,
                    "generation requires a causal encoder");
    const std::size_t window = encoder_->attention_window();
    if (window != 0) {
      VENOM_CHECK_MSG(opts_.kv_capacity == window,
                      "kv_capacity " << opts_.kv_capacity
                                     << " != the encoder's attention window "
                                     << window
                                     << " (the ring must hold exactly the "
                                        "window)");
    } else {
      VENOM_CHECK_MSG(req.total_tokens() <= opts_.kv_capacity,
                      "prompt + max_new_tokens = "
                          << req.total_tokens() << " overflows kv_capacity "
                          << opts_.kv_capacity
                          << " (set an attention window for unbounded "
                             "sequences)");
    }
  }
  PendingRequest pending;
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending.request = std::move(req);
  pending.enqueued = Clock::now();
  pending.replica = replica_id_;
  if (pending.request.max_new_tokens > 0) {
    const std::size_t hidden = encoder_->config().hidden;
    auto session = std::make_shared<GenSession>();
    session->cache = encoder_->make_cache(opts_.kv_capacity);
    session->next_input = HalfMatrix(hidden, 1);
    session->generated = HalfMatrix(hidden, pending.request.max_new_tokens);
    session->prompt_tokens = pending.request.input.cols();
    session->submitted = pending.enqueued;
    pending.session = std::move(session);
    pending.phase = PendingRequest::Phase::kPrefill;
    const std::size_t chunk = opts_.prefill_chunk_tokens != 0
                                  ? opts_.prefill_chunk_tokens
                                  : opts_.batching.max_batch_tokens;
    pending.chunk_begin = 0;
    pending.chunk_end = std::min(chunk, pending.request.input.cols());
  }
  // Generation requests charge their whole budget (prompt + every token
  // they may generate) to the load gauge up front — the router's
  // least-loaded routing then accounts for the decode work a session
  // will pin to this replica.
  const std::size_t toks = pending.request.total_tokens();
  load_tokens_.fetch_add(toks, std::memory_order_relaxed);
  // The load gauge and the caller's hook both ride the one-shot on_done
  // (request.hpp): delivery, batch failure, and deadline sheds all
  // settle them exactly once.
  pending.on_done = [this, toks, hook = std::move(on_done)] {
    load_tokens_.fetch_sub(toks, std::memory_order_relaxed);
    if (hook) hook();
  };
  std::future<Response> fut = pending.result.get_future();
  if (!batcher_.submit(pending)) {
    // Refused: the request came back intact; unwind the gauge (the
    // caller's hook never armed — submit() throws instead).
    load_tokens_.fetch_sub(toks, std::memory_order_relaxed);
    throw AdmissionError(AdmissionReason::kShutdown, "engine is shut down");
  }
  return fut;
}

void InferenceEngine::shutdown() {
  if (shut_down_.exchange(true)) return;
  batcher_.close();
  for (auto& w : workers_) w.join();
}

void InferenceEngine::worker_loop() {
  WorkerState ws;
  std::vector<PendingRequest> batch;
  while (batcher_.next_batch(batch)) process_batch(batch, ws);
}

void InferenceEngine::process_batch(std::vector<PendingRequest>& batch,
                                    WorkerState& ws) {
  ws.arena.reset();
  // One formed batch, up to two forward passes: generation steps
  // (prefill chunks + decode steps, via forward_cached) and classic
  // encode requests (forward_batched) share the token budget but take
  // different code paths through the encoder. stable_partition keeps
  // each class in queue order.
  const auto mid = std::stable_partition(
      batch.begin(), batch.end(), [](const PendingRequest& r) {
        return r.phase != PendingRequest::Phase::kEncode;
      });
  const std::size_t gen_count = std::size_t(mid - batch.begin());
  if (gen_count > 0)
    process_generation(std::span<PendingRequest>(batch.data(), gen_count),
                       ws);
  if (gen_count < batch.size())
    process_encode(std::span<PendingRequest>(batch.data() + gen_count,
                                             batch.size() - gen_count),
                   ws);
}

void InferenceEngine::process_encode(std::span<PendingRequest> batch,
                                     WorkerState& ws) {
  // Everything from staging to delivery runs under one guard: any
  // failure (a malformed request the encoder rejects, allocation
  // pressure while packing or splitting) fails this batch's remaining
  // futures and leaves the engine serving — a worker thread must never
  // let an exception escape (that would std::terminate the process).
  std::size_t delivered = 0;
  try {
    const std::size_t hidden = encoder_->config().hidden;
    const std::size_t count = batch.size();

    // Segment table: exclusive end column of each request in the packed
    // batch (arena-backed — reused storage after the first batch).
    std::size_t* seq_ends = ws.arena.alloc<std::size_t>(count);
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      total += batch[i].tokens();
      seq_ends[i] = total;
    }

    // Pack the requests along the token axis. The staging matrix retains
    // its capacity, so steady-state assembly is copy-only.
    ws.staging.resize(hidden, total);
    for (std::size_t r = 0; r < hidden; ++r) {
      half_t* dst = &ws.staging(r, 0);
      std::size_t off = 0;
      for (const PendingRequest& req : batch) {
        std::memcpy(dst + off, &req.request.input(r, 0),
                    req.tokens() * sizeof(half_t));
        off += req.tokens();
      }
    }

    const auto exec_start = Clock::now();
    transformer::TimingBreakdown timing;
    const HalfMatrix y = encoder_->forward_batched(
        ws.staging, std::span<const std::size_t>(seq_ends, count), &timing,
        &ctx_);
    const auto exec_end = Clock::now();
    const double exec_ms =
        std::chrono::duration<double, std::milli>(exec_end - exec_start)
            .count();

    // Split the packed output into per-request responses (these
    // allocations are the deliverables — callers own them). Built before
    // the stats are recorded, so an allocation failure here fails the
    // batch without counting any of its requests as completed.
    std::vector<Response> outs;
    outs.reserve(count);
    std::size_t off = 0;
    for (const PendingRequest& req : batch) {
      Response resp;
      resp.output = HalfMatrix(hidden, req.tokens());
      for (std::size_t r = 0; r < hidden; ++r)
        std::memcpy(&resp.output(r, 0), &y(r, off),
                    req.tokens() * sizeof(half_t));
      off += req.tokens();
      resp.id = req.id;
      resp.replica = req.replica;
      resp.queue_ms = std::chrono::duration<double, std::milli>(
                          exec_start - req.enqueued)
                          .count();
      resp.exec_ms = exec_ms;
      resp.batch_tokens = total;
      outs.push_back(std::move(resp));
    }

    // Stats before delivery: a caller that has awaited its future must
    // already see the request counted.
    record_batch(batch, total, timing, exec_end, ws);

    for (PendingRequest& req : batch) {
      deliver(req, std::move(outs[delivered]));
      ++delivered;
    }
  } catch (...) {
    const auto err = std::current_exception();
    for (std::size_t i = delivered; i < batch.size(); ++i)
      fail(batch[i], err);
  }
}

void InferenceEngine::process_generation(std::span<PendingRequest> batch,
                                         WorkerState& ws) {
  // Each item is one phase step of a live session: a prompt chunk or a
  // single decode token. One forward_cached covers them all; afterwards
  // every item either re-enters the queue (next chunk / next token) or
  // delivers its finished Response. Outcomes are decided first, stats
  // recorded second, and the queue/promise actions executed last — the
  // stats-before-delivery invariant the encode path keeps.
  enum class Act { kRequeue, kDeliver, kFail };
  struct Outcome {
    Act act = Act::kFail;
    Response resp;
    std::exception_ptr err;
  };
  std::vector<Outcome> outcomes(batch.size());
  try {
    const std::size_t hidden = encoder_->config().hidden;
    const std::size_t count = batch.size();
    const std::size_t chunk = opts_.prefill_chunk_tokens != 0
                                  ? opts_.prefill_chunk_tokens
                                  : opts_.batching.max_batch_tokens;

    std::size_t* seq_ends = ws.arena.alloc<std::size_t>(count);
    transformer::KvCache** caches =
        ws.arena.alloc<transformer::KvCache*>(count);
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      total += batch[i].tokens();
      seq_ends[i] = total;
      caches[i] = &batch[i].session->cache;
    }

    // Pack: prefill items contribute their prompt chunk's columns,
    // decode items the session's (hook-transformed) feedback column.
    ws.gen_staging.resize(hidden, total);
    for (std::size_t r = 0; r < hidden; ++r) {
      half_t* dst = &ws.gen_staging(r, 0);
      std::size_t off = 0;
      for (const PendingRequest& item : batch) {
        if (item.phase == PendingRequest::Phase::kPrefill)
          std::memcpy(dst + off, &item.request.input(r, item.chunk_begin),
                      item.tokens() * sizeof(half_t));
        else
          dst[off] = item.session->next_input(r, 0);
        off += item.tokens();
      }
    }

    const auto exec_start = Clock::now();
    transformer::TimingBreakdown timing;
    const HalfMatrix y = encoder_->forward_cached(
        ws.gen_staging, std::span<const std::size_t>(seq_ends, count),
        std::span<transformer::KvCache* const>(caches, count), &timing,
        &ctx_);
    const auto exec_end = Clock::now();
    const double exec_ms =
        std::chrono::duration<double, std::milli>(exec_end - exec_start)
            .count();

    // Advance every session. A throwing on_token hook fails only its own
    // request; the other sessions in the batch proceed.
    std::size_t prefill_tokens = 0;
    std::size_t decode_items = 0;
    double* decode_lat = ws.arena.alloc<double>(count);
    std::size_t off = 0;
    for (std::size_t i = 0; i < count; ++i) {
      PendingRequest& item = batch[i];
      GenSession& s = *item.session;
      const std::size_t w = item.tokens();
      const std::size_t last = off + w - 1;
      off += w;
      if (!s.started) {
        s.started = true;
        s.queue_ms = std::chrono::duration<double, std::milli>(
                         exec_start - s.submitted)
                         .count();
      }
      // The newest token's output column is both the per-step deliverable
      // and (post-hook) the next decode input.
      const auto feed_hook = [&]() -> bool {
        for (std::size_t r = 0; r < hidden; ++r)
          s.next_input(r, 0) = y(r, last);
        if (!item.request.on_token) return true;
        return item.request.on_token(
            std::span<half_t>(&s.next_input(0, 0), hidden));
      };
      const auto finish = [&]() {
        Response resp;
        resp.output = HalfMatrix(hidden, s.tokens_generated);
        // A session can end before its first token (EOS in the prompt):
        // its output has no columns, and element (r, 0) does not exist.
        if (s.tokens_generated > 0)
          for (std::size_t r = 0; r < hidden; ++r)
            std::memcpy(&resp.output(r, 0), &s.generated(r, 0),
                        s.tokens_generated * sizeof(half_t));
        resp.id = item.id;
        resp.replica = item.replica;
        resp.queue_ms = s.queue_ms;
        resp.exec_ms = s.prefill_ms + s.decode_ms;
        resp.batch_tokens = total;
        resp.prefill_ms = s.prefill_ms;
        resp.decode_ms = s.decode_ms;
        resp.tokens_generated = s.tokens_generated;
        outcomes[i].resp = std::move(resp);
        outcomes[i].act = Act::kDeliver;
      };
      try {
        if (item.phase == PendingRequest::Phase::kPrefill) {
          s.prefill_ms += exec_ms;
          prefill_tokens += w;
          if (item.chunk_end < item.request.input.cols()) {
            item.chunk_begin = item.chunk_end;
            item.chunk_end = std::min(item.chunk_end + chunk,
                                      item.request.input.cols());
            outcomes[i].act = Act::kRequeue;
          } else if (feed_hook()) {
            // Prompt cached; the hook seeded the first decode input.
            item.phase = PendingRequest::Phase::kDecode;
            outcomes[i].act = Act::kRequeue;
          } else {
            finish();  // eos in the prompt: zero tokens generated
          }
        } else {
          s.decode_ms += exec_ms;
          decode_lat[decode_items++] =
              std::chrono::duration<double, std::milli>(exec_end -
                                                        item.enqueued)
                  .count();
          for (std::size_t r = 0; r < hidden; ++r)
            s.generated(r, s.tokens_generated) = y(r, last);
          ++s.tokens_generated;
          const bool more = feed_hook() &&
                            s.tokens_generated < item.request.max_new_tokens;
          if (more)
            outcomes[i].act = Act::kRequeue;
          else
            finish();
        }
      } catch (...) {
        outcomes[i].act = Act::kFail;
        outcomes[i].err = std::current_exception();
      }
    }

    // Stats before delivery/requeue, in one locked update.
    {
      MutexLock lock(stats_mutex_);
      batches_ += 1;
      tokens_ += total;
      timing_ += timing;
      prefill_tokens_ += prefill_tokens;
      decode_steps_ += decode_items;
      peak_arena_bytes_ = std::max(peak_arena_bytes_, ws.arena.high_water());
      for (std::size_t i = 0; i < decode_items; ++i) {
        decode_ms_[decode_next_] = decode_lat[i];
        decode_next_ = (decode_next_ + 1) % decode_ms_.size();
        decode_count_ = std::min(decode_count_ + 1, decode_ms_.size());
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (outcomes[i].act != Act::kDeliver) continue;
        requests_ += 1;
        const double ms = std::chrono::duration<double, std::milli>(
                              exec_end - batch[i].session->submitted)
                              .count();
        latency_ms_[latency_next_] = ms;
        latency_next_ = (latency_next_ + 1) % latency_ms_.size();
        latency_count_ = std::min(latency_count_ + 1, latency_ms_.size());
      }
    }
  } catch (...) {
    // Staging or the forward failed: every session in this pass is dead
    // (a mid-stack failure leaves caches out of sync). Fail them all.
    const auto err = std::current_exception();
    for (PendingRequest& item : batch) fail(item, err);
    return;
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& item = batch[i];
    switch (outcomes[i].act) {
      case Act::kRequeue:
        // resubmit (not submit): generation continues through shutdown,
        // so close()d engines still drain live sessions to completion.
        item.enqueued = Clock::now();
        batcher_.resubmit(item);
        break;
      case Act::kDeliver:
        deliver(item, std::move(outcomes[i].resp));
        break;
      case Act::kFail:
        fail(item, outcomes[i].err != nullptr
                       ? outcomes[i].err
                       : std::make_exception_ptr(
                             Error("generation step failed")));
        break;
    }
  }
}

void InferenceEngine::record_batch(
    std::span<const PendingRequest> batch, std::size_t batch_tokens,
    const transformer::TimingBreakdown& timing, Clock::time_point done,
    const WorkerState& ws) {
  MutexLock lock(stats_mutex_);
  requests_ += batch.size();
  batches_ += 1;
  tokens_ += batch_tokens;
  timing_ += timing;
  peak_arena_bytes_ = std::max(peak_arena_bytes_, ws.arena.high_water());
  for (const PendingRequest& req : batch) {
    const double ms =
        std::chrono::duration<double, std::milli>(done - req.enqueued)
            .count();
    latency_ms_[latency_next_] = ms;
    latency_next_ = (latency_next_ + 1) % latency_ms_.size();
    latency_count_ = std::min(latency_count_ + 1, latency_ms_.size());
  }
}

void InferenceEngine::reset_stats() {
  MutexLock lock(stats_mutex_);
  requests_ = 0;
  batches_ = 0;
  tokens_ = 0;
  prefill_tokens_ = 0;
  decode_steps_ = 0;
  peak_arena_bytes_ = 0;
  timing_ = transformer::TimingBreakdown{};
  latency_next_ = 0;
  latency_count_ = 0;
  decode_next_ = 0;
  decode_count_ = 0;
}

ServingStats InferenceEngine::stats() const {
  ServingStats s;
  std::vector<double> window;
  std::vector<double> decode_window;
  {
    MutexLock lock(stats_mutex_);
    s.requests = requests_;
    s.batches = batches_;
    s.tokens = tokens_;
    s.prefill_tokens = prefill_tokens_;
    s.decode_steps = decode_steps_;
    s.timing = timing_;
    s.peak_arena_bytes = peak_arena_bytes_;
    s.avg_batch_tokens =
        batches_ == 0 ? 0.0 : double(tokens_) / double(batches_);
    window.assign(latency_ms_.begin(), latency_ms_.begin() + latency_count_);
    decode_window.assign(decode_ms_.begin(),
                         decode_ms_.begin() + decode_count_);
  }
  s.shed = batcher_.shed();
  s.plan_cache_hits = ctx_.plan_cache().hits();
  s.plan_cache_misses = ctx_.plan_cache().misses();
  std::sort(window.begin(), window.end());
  s.p50_ms = percentile_sorted(window, 0.50);
  s.p99_ms = percentile_sorted(window, 0.99);
  std::sort(decode_window.begin(), decode_window.end());
  s.decode_p50_ms = percentile_sorted(decode_window, 0.50);
  s.decode_p99_ms = percentile_sorted(decode_window, 0.99);
  return s;
}

}  // namespace venom::serving
