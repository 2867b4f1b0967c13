// The two workloads that go through the serving layer: encode_ragged and
// generate_sessions. Both run one EngineGroup replica with one batch
// worker on the default global thread pool, loaded from one thread.
//
// Why one replica: with 4 replicas on a 4-core box, 8+ runnable threads
// share 4 cores and encode p50 ranged 18-34 ms across identical runs; one
// replica repeated within +-4%.
#pragma once

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "serving/router.hpp"
#include "setup.hpp"
#include "transformer/kv_cache.hpp"

namespace venom::e2e {

/// Serving-layer metrics of a driven phase, measured from outside:
/// wait = due -> execution start (generator lateness + Response::queue_ms),
/// exec = Response::exec_ms, submit = wall time inside submit().
inline void report_serving(const std::vector<Sent>& sent, Report& report) {
  Samples wait, exec, submit;
  for (const Sent& s : sent) {
    if (!s.response) continue;
    wait.add(s.late_ms() + s.response->queue_ms);
    exec.add(s.response->exec_ms);
    submit.add(s.submit_us);
  }
  report.layer("serving.wait_ms_p50", wait.median(), "ms", wait.size());
  report.layer("serving.wait_ms_p99", wait.quantile(0.99), "ms", wait.size());
  report.layer("serving.exec_ms_p50", exec.median(), "ms", exec.size());
  report.layer("serving.submit_us_p50", submit.median(), "us", submit.size());
}

/// One async track per request: due -> done, with the submit() call as
/// measured and the queue / exec intervals placed from the Response
/// fields, which the engine reports (marked so in the span args).
inline void trace_requests(const std::vector<Sent>& sent, const char* name,
                           std::size_t id0, Trace& trace) {
  const auto after = [](Clock::time_point t, double ms) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
  };
  for (const Sent& s : sent) {
    const std::size_t id = id0 + s.item;
    trace.span(name, "request", id, s.due, s.done,
               s.error.empty() ? "" : "\"error\": " + json_quote(s.error));
    trace.span("serving.submit", "request", id, s.sent,
               after(s.sent, s.submit_us / 1e3));
    if (!s.response) continue;
    const auto start = after(s.sent, s.response->queue_ms);
    const std::string reported = "\"program_reported\": true";
    trace.span("serving.queue", "request", id, s.sent, start, reported);
    trace.span("serving.exec", "request", id, start,
               after(start, s.response->exec_ms),
               reported + ", \"batch_tokens\": " +
                   std::to_string(s.response->batch_tokens));
  }
}

inline void report_phase_counters(serving::EngineGroup& group,
                                  std::size_t batches0, std::size_t tokens0,
                                  Report& report) {
  const serving::GroupStats st = group.stats();
  const std::size_t batches = st.batches - batches0;
  report.layer("serving.batch_tokens_mean",
               batches == 0 ? 0.0 : double(st.tokens - tokens0) / batches,
               "tokens", batches);
  report.layer("serving.batches", double(batches), "count", 1);
}

// ------------------------------------------------------------ encode_ragged
//
// Open loop, Poisson arrivals at a fixed 30 req/s, Zipf(1.1) lengths over
// 4-64 tokens (the latency phase: p50_ms / p90_ms from due time), then a
// closed loop of 16 outstanding requests (the throughput phase: tok_s).
// 30 req/s keeps the engine about a quarter busy, so a host running 1.5x
// slower raises latency without tipping the queue over. The throughput
// phase replaces an overload phase because a shed request is a failed
// operation, and every operation of a workload must succeed; 16 requests
// of at most 64 tokens stay under the 2048-token admission bound, so the
// saturated engine is measured without shedding.

inline constexpr double kEncodeRate = 30.0;           // req/s, latency phase
inline constexpr double kEncodeLatencyShare = 0.7;    // of --seconds
inline constexpr std::size_t kEncodeWindow = 16;      // throughput phase
inline constexpr std::size_t kMinTokens = 4, kMaxTokens = 64;
inline constexpr std::size_t kInputVariants = 2;      // per length

inline serving::Options encode_options() {
  serving::Options opts;
  opts.replicas = 1;
  opts.workers = 1;
  opts.batching.max_batch_tokens = 256;
  opts.batching.max_wait = std::chrono::microseconds(500);
  opts.admission.max_queued_tokens = 2048;
  return opts;
}

inline void run_encode(const RunArgs& args, Report& report, Trace& trace) {
  const transformer::ModelConfig cfg = bert_tiny();
  Gen warm(0, "warmup");
  auto group = build_timed(5, report, [&] {
    auto g = std::make_unique<serving::EngineGroup>(pruned_encoder(cfg),
                                                    encode_options());
    std::vector<std::future<serving::Response>> futs;
    for (const std::size_t len : {4, 8, 16, 32, 64}) {
      serving::Request req;
      req.input = synth_input(cfg.hidden, len, warm);
      futs.push_back(g->submit(std::move(req)));
    }
    for (auto& f : futs) f.get();
    return g;
  });

  // Inputs: kInputVariants per length, so each distinct input is checked
  // against the reference once.
  Gen gen(args.seed, "encode_ragged");
  std::vector<std::vector<HalfMatrix>> inputs(kMaxTokens + 1);
  for (std::size_t len = kMinTokens; len <= kMaxTokens; ++len)
    for (std::size_t v = 0; v < kInputVariants; ++v)
      inputs[len].push_back(synth_input(cfg.hidden, len, gen));
  const Zipf zipf(kMinTokens, kMaxTokens, 1.1);
  struct Item {
    std::size_t len, variant;
  };
  const auto draw = [&](std::size_t n) {
    std::vector<Item> items;
    for (const double u : stratified(n, gen))
      items.push_back({zipf.at(u), gen.below(kInputVariants)});
    return items;
  };
  const double latency_s = kEncodeLatencyShare * args.seconds;
  const std::vector<Item> latency_items =
      draw(std::size_t(kEncodeRate * latency_s));
  const std::vector<double> offsets =
      poisson_offsets(latency_items.size(), kEncodeRate, gen);
  const std::vector<Item> throughput_items = draw(512);  // cycled

  const auto submitter = [&](const std::vector<Item>& items) {
    return [&items, &inputs, &group](std::size_t i) {
      const Item& it = items[i % items.size()];
      serving::Request req;
      req.input = inputs[it.len][it.variant];
      return group->submit(std::move(req));
    };
  };
  const ops::ExecContext& ctx = group->replica(0).context();
  const std::size_t hits0 = ctx.plan_cache().hits();
  const std::size_t misses0 = ctx.plan_cache().misses();

  const std::vector<Sent> latency = drive(submitter(latency_items), offsets, 0, 0);
  const serving::GroupStats before = group->stats();
  const std::vector<Sent> throughput = drive(
      submitter(throughput_items), {}, kEncodeWindow, args.seconds - latency_s);

  // ---- clock stopped: metrics, then correctness
  Samples late, latency_ms;
  account(latency, report.phase("latency"), late);
  account(throughput, report.phase("throughput"), late);
  for (const Sent& s : latency)
    if (s.response) latency_ms.add(s.latency_ms());
  report_latency(latency_ms, late, report);
  std::size_t tokens = 0;
  Clock::time_point last = throughput.front().due;
  for (const Sent& s : throughput) {
    if (!s.response) continue;
    tokens += throughput_items[s.item % throughput_items.size()].len;
    last = std::max(last, s.done);
  }
  report.end_to_end("tok_s", tokens / (ms_between(throughput.front().due, last) / 1e3),
                    "tok/s", throughput.size());
  report_serving(latency, report);
  report_phase_counters(*group, before.batches, before.tokens, report);
  report_plan_cache(ctx, hits0, misses0, report);
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB", 1);

  // Every response against a direct Encoder::forward on an independently
  // built encoder, once per distinct input: bits must not depend on batch
  // composition.
  transformer::Encoder ref = pruned_encoder(cfg);
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> expected;
  const auto check = [&](const std::vector<Sent>& sent,
                         const std::vector<Item>& items) {
    for (const Sent& s : sent) {
      if (!s.response) continue;
      const Item& it = items[s.item % items.size()];
      auto [pos, fresh] = expected.try_emplace({it.len, it.variant});
      if (fresh) pos->second = bits_hash(ref.forward(inputs[it.len][it.variant]));
      if (s.output_hash != pos->second)
        report.mismatch("encode request of " + std::to_string(it.len) +
                        " tokens differs from the direct forward");
    }
  };
  check(latency, latency_items);
  check(throughput, throughput_items);
  if (!args.traced) return;

  trace_requests(latency, "encode", 0, trace);
  trace_requests(throughput, "encode", latency.size(), trace);
  // Replay the median batch of the throughput phase. Members of one batch
  // share its exec_ms and batch_tokens, which recovers the composition.
  std::map<std::pair<double, std::size_t>, std::vector<const Item*>> batches;
  for (const Sent& s : throughput)
    if (s.response)
      batches[{s.response->exec_ms, s.response->batch_tokens}].push_back(
          &throughput_items[s.item % throughput_items.size()]);
  std::vector<std::pair<std::size_t, const std::vector<const Item*>*>> whole;
  for (const auto& [key, members] : batches) {
    std::size_t sum = 0;
    for (const Item* it : members) sum += it->len;
    if (sum == key.second) whole.emplace_back(sum, &members);
  }
  const auto mid = whole.begin() + std::ptrdiff_t(whole.size() / 2);
  std::nth_element(whole.begin(), mid, whole.end());
  std::vector<const HalfMatrix*> seqs;
  for (const Item* it : *mid->second)
    seqs.push_back(&inputs[it->len][it->variant]);
  std::vector<std::size_t> ends;
  const HalfMatrix x = pack(seqs, ends);
  ops::ExecContext replay_ctx;
  replay_batched(ref, x, ends, replay_ctx, report, trace);
  replay_kernels(ref.layer(0), x.cols(), replay_ctx, report, trace);
}

// -------------------------------------------------------- generate_sessions
//
// Open loop, Poisson session arrivals at a fixed 8/s: each session is a
// 32-token prompt plus 32 decode steps on a causal model whose attention
// window and KV ring are 48 (so the ring wraps). An on_token hook only
// timestamps, so feedback is the identity. p50_ms / p90_ms are per output
// token: the first from the session's due time, each later one from the
// token before it. Then the throughput phase: bursts of 128 sessions
// submitted together, repeated for the rest of the run (tok_s = generated
// tokens / time from each burst's submission to its last token).

// 8 sessions/s keeps the engine about a third busy (12/s tipped it over
// when the host ran 1.5x slower).
inline constexpr double kSessionRate = 8.0;  // sessions/s
inline constexpr double kSessionShare = 0.6;  // of --seconds; bursts follow
inline constexpr std::size_t kBurstSessions = 128;
inline constexpr std::size_t kPromptTokens = 32, kNewTokens = 32;
inline constexpr std::size_t kWindow = 48;
inline constexpr std::size_t kPrompts = 16;  // distinct prompts per seed

inline transformer::ModelConfig causal_tiny() {
  transformer::ModelConfig cfg = bert_tiny();
  cfg.causal = true;
  cfg.attn_window = kWindow;
  return cfg;
}

inline serving::Options generate_options() {
  serving::Options opts = encode_options();
  opts.batching.max_batch_requests = 2 * kBurstSessions;
  opts.kv_capacity = kWindow;
  opts.max_new_tokens = kNewTokens;
  opts.prefill_chunk_tokens = kPromptTokens;
  // A burst admits all its sessions: a shed is a failed operation.
  opts.admission.max_queued_tokens = 0;
  opts.admission.max_queued_requests = 0;
  return opts;
}

/// The engine's generation contract run directly on the encoder: prefill,
/// first decode input = last prompt output, identity feedback.
inline HalfMatrix direct_generate(const transformer::Encoder& enc,
                                  const HalfMatrix& prompt) {
  transformer::KvCache cache = enc.make_cache(kWindow);
  const HalfMatrix pre = enc.prefill(prompt, cache);
  HalfMatrix gen(prompt.rows(), kNewTokens);
  HalfMatrix x(prompt.rows(), 1);
  for (std::size_t r = 0; r < prompt.rows(); ++r)
    x(r, 0) = pre(r, prompt.cols() - 1);
  for (std::size_t t = 0; t < kNewTokens; ++t) {
    x = enc.decode_step(x, cache);
    for (std::size_t r = 0; r < prompt.rows(); ++r) gen(r, t) = x(r, 0);
  }
  return gen;
}

inline void run_generate(const RunArgs& args, Report& report, Trace& trace) {
  const transformer::ModelConfig cfg = causal_tiny();
  Gen warm(0, "warmup");
  auto group = build_timed(5, report, [&] {
    auto g = std::make_unique<serving::EngineGroup>(pruned_encoder(cfg),
                                                    generate_options());
    serving::Request req;
    req.input = synth_input(cfg.hidden, kPromptTokens, warm);
    req.max_new_tokens = kNewTokens;
    g->submit(std::move(req)).get();
    return g;
  });

  Gen gen(args.seed, "generate_sessions");
  std::vector<HalfMatrix> prompts;
  for (std::size_t p = 0; p < kPrompts; ++p)
    prompts.push_back(synth_input(cfg.hidden, kPromptTokens, gen));
  // One driven set of sessions: which prompt each sends, the token
  // timestamps the worker thread's hook writes (read once the session's
  // future is ready), and the submissions.
  struct Sessions {
    std::vector<std::size_t> prompt_of;
    std::vector<std::vector<Clock::time_point>> tokens;
    std::vector<Sent> sent;
  };
  const auto sessions_of = [&](std::size_t n) {
    Sessions s{std::vector<std::size_t>(n), {}, {}};
    for (std::size_t& p : s.prompt_of) p = gen.below(kPrompts);
    s.tokens.resize(n);
    for (auto& t : s.tokens) t.reserve(kNewTokens + 1);
    return s;
  };
  const auto submitter = [&](Sessions& s) {
    return [&prompts, &group, &s](std::size_t i) {
      serving::Request req;
      req.input = prompts[s.prompt_of[i]];
      req.max_new_tokens = kNewTokens;
      req.on_token = [stamps = &s.tokens[i]](std::span<half_t>) {
        stamps->push_back(Clock::now());
        return true;
      };
      return group->submit(std::move(req));
    };
  };
  const ops::ExecContext& ctx = group->replica(0).context();
  const std::size_t hits0 = ctx.plan_cache().hits();
  const std::size_t misses0 = ctx.plan_cache().misses();

  const auto n_sessions =
      std::size_t(kSessionRate * kSessionShare * args.seconds);
  const std::vector<double> offsets =
      poisson_offsets(n_sessions, kSessionRate, gen);
  Sessions sessions = sessions_of(n_sessions);
  sessions.sent = drive(submitter(sessions), offsets, 0, 0);
  const serving::GroupStats mid = group->stats();
  std::vector<Sessions> bursts;
  const auto bursts_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             (1.0 - kSessionShare) * args.seconds));
  do {
    Sessions& b = bursts.emplace_back(sessions_of(kBurstSessions));
    b.sent = drive(submitter(b), std::vector<double>(kBurstSessions, 0.0), 0, 0);
  } while (Clock::now() < bursts_end);

  // ---- clock stopped
  // Lateness is run health for the paced phase; a burst's sessions are
  // all due at once and wait for the submit() calls ahead of them.
  Samples late, burst_late, token_ms;
  account(sessions.sent, report.phase("sessions"), late);
  Phase& burst_phase = report.phase("bursts");
  for (const Sessions& b : bursts) account(b.sent, burst_phase, burst_late);
  for (const Sent& s : sessions.sent) {
    if (!s.response) continue;
    Clock::time_point prev = s.due;
    for (const Clock::time_point t : sessions.tokens[s.item]) {
      token_ms.add(ms_between(prev, t));
      prev = t;
    }
  }
  report_latency(token_ms, late, report);
  std::size_t generated = 0;
  double burst_ms = 0.0;
  for (const Sessions& b : bursts) {
    Clock::time_point last = b.sent.front().due;
    for (const Sent& s : b.sent) {
      if (!s.response) continue;
      generated += s.response->tokens_generated;
      last = std::max(last, b.tokens[s.item].back());
    }
    burst_ms += ms_between(b.sent.front().due, last);
  }
  report.end_to_end("tok_s", generated / (burst_ms / 1e3), "tok/s",
                    bursts.size());
  report_serving(sessions.sent, report);
  report_phase_counters(*group, mid.batches, mid.tokens, report);
  report_plan_cache(ctx, hits0, misses0, report);
  report.layer("serving.decode_step_ms_p99", mid.replicas[0].decode_p99_ms,
               "ms", mid.decode_steps);
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB", 1);

  // Each session against a direct prefill + decode_step loop on an
  // independently built encoder, once per distinct prompt.
  transformer::Encoder ref = pruned_encoder(cfg);
  std::vector<const Sessions*> all = {&sessions};
  for (const Sessions& b : bursts) all.push_back(&b);
  std::map<std::size_t, std::uint64_t> expected;
  for (const Sessions* d : all)
    for (const Sent& s : d->sent) {
      if (!s.response) continue;
      const std::size_t p = d->prompt_of[s.item];
      auto [pos, fresh] = expected.try_emplace(p);
      if (fresh) pos->second = bits_hash(direct_generate(ref, prompts[p]));
      if (s.output_hash != pos->second)
        report.mismatch("generated session differs from the direct decode loop");
    }
  if (!args.traced) return;

  std::size_t id0 = 0;
  for (const Sessions* d : all) {
    trace_requests(d->sent, "session", id0, trace);
    for (const Sent& s : d->sent)
      for (const Clock::time_point t : d->tokens[s.item])
        trace.instant("token", "request", id0 + s.item, t);
    id0 += d->sent.size();
  }
  // Replay one decode step at the observed decode width: the median, at
  // each session's first and last token, of how many sessions were live.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> live;
  for (const auto& t : sessions.tokens)
    if (!t.empty()) live.emplace_back(t.front(), t.back());
  Samples width;
  for (const auto& [first, final] : live)
    for (const Clock::time_point t : {first, final}) {
      std::size_t n = 0;
      for (const auto& [a, b] : live) n += a <= t && t <= b;
      width.add(double(n));
    }
  const auto w = std::max<std::size_t>(1, std::size_t(width.median()));
  ops::ExecContext replay_ctx;
  std::vector<transformer::KvCache> caches;
  for (std::size_t i = 0; i < w; ++i) {
    caches.push_back(ref.make_cache(kWindow));
    ref.prefill(synth_input(cfg.hidden, kWindow, gen), caches.back(), nullptr,
                &replay_ctx);
  }
  std::vector<transformer::KvCache> snapshot;
  const auto ptrs = [](std::vector<transformer::KvCache>& cs) {
    std::vector<transformer::KvCache*> p;
    for (auto& c : cs) p.push_back(&c);
    return p;
  };
  std::vector<std::size_t> ends(w);
  for (std::size_t i = 0; i < w; ++i) ends[i] = i + 1;
  const HalfMatrix x = synth_input(cfg.hidden, w, gen);
  LayerTimes t = replay_layers(
      ref, x, replay_ctx, trace,
      [&](std::size_t l, const HalfMatrix& h, transformer::TimingBreakdown& tb) {
        return ref.layer(l).attention().forward_cached(h, ends, ptrs(caches), l,
                                                       &tb, &replay_ctx);
      },
      [&](std::size_t l, const HalfMatrix& h) {
        return ref.layer(l).forward_cached(h, ends, ptrs(snapshot), l, nullptr,
                                           &replay_ctx);
      },
      [&](std::size_t) { snapshot = caches; });
  t.report(report, w);
  replay_kernels(ref.layer(0), w, replay_ctx, report, trace);
  replay_select(ref.layer(0), w, report);
}

}  // namespace venom::e2e
