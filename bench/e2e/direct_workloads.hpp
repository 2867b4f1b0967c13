// The two workloads that call the model or the kernels directly from one
// closed-loop caller: long_context and spmm_f16 / spmm_i8. In a closed
// loop each call is due the moment the caller is ready to send it, so
// p50_ms / p90_ms are call times and the serving-layer wait is the
// caller's own turnaround.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ops/matmul.hpp"
#include "setup.hpp"

namespace venom::e2e {

/// Closed-loop call records: serving-layer metrics for a direct caller.
inline void report_direct(Samples& wait_ms, Samples& exec_ms,
                          std::size_t tokens_per_call, Report& report) {
  report.layer("serving.wait_ms_p50", wait_ms.median(), "ms", wait_ms.size());
  report.layer("serving.wait_ms_p99", wait_ms.quantile(0.99), "ms",
               wait_ms.size());
  report.layer("serving.exec_ms_p50", exec_ms.median(), "ms", exec_ms.size());
  report.layer("serving.batch_tokens_mean", double(tokens_per_call), "tokens",
               exec_ms.size());
}

// ------------------------------------------------------------- long_context
//
// Offline closed loop from one caller: Encoder::forward_batched on batches
// of 2 sequences. Eight sequences per seed take stratified uniform lengths
// over 128-256 tokens and pair longest with shortest, so every batch holds
// about 384 tokens and every seed offers the same work. Attention core
// dominates (~85% of a layer, SpMM ~2%): an attention optimisation shows
// here and an SpMM-only change must not move it.

inline constexpr std::size_t kLongSeqs = 8;
inline constexpr std::size_t kLongMin = 128, kLongMax = 256;

inline void run_long(const RunArgs& args, Report& report, Trace& trace) {
  const transformer::ModelConfig cfg = bert_tiny();
  struct Stack {
    transformer::Encoder enc;
    ops::ExecContext ctx;
  };
  Gen warm(0, "warmup");
  auto stack = build_timed(5, report, [&] {
    auto s = std::unique_ptr<Stack>(new Stack{pruned_encoder(cfg), {}});
    const std::size_t ends[] = {32, 64};
    s->enc.forward_batched(synth_input(cfg.hidden, 64, warm), ends, nullptr,
                           &s->ctx);
    return s;
  });
  transformer::Encoder& enc = stack->enc;
  ops::ExecContext& ctx = stack->ctx;

  Gen gen(args.seed, "long_context");
  std::vector<std::size_t> lengths;
  for (const double u : stratified(kLongSeqs, gen))
    lengths.push_back(kLongMin + std::size_t(u * double(kLongMax - kLongMin + 1)));
  std::sort(lengths.begin(), lengths.end());
  std::vector<HalfMatrix> seqs;
  for (const std::size_t len : lengths)
    seqs.push_back(synth_input(cfg.hidden, len, gen));
  struct Batch {
    std::size_t a, b;  // sequence indices
    HalfMatrix x;
    std::vector<std::size_t> ends;
  };
  std::vector<Batch> batches;
  for (std::size_t i = 0; i < kLongSeqs / 2; ++i) {
    Batch batch{i, kLongSeqs - 1 - i, {}, {}};
    batch.x = pack({&seqs[batch.a], &seqs[batch.b]}, batch.ends);
    batches.push_back(std::move(batch));
  }
  for (std::size_t i = batches.size(); i > 1; --i)
    std::swap(batches[i - 1], batches[gen.below(i)]);

  const std::size_t hits0 = ctx.plan_cache().hits();
  const std::size_t misses0 = ctx.plan_cache().misses();
  Samples late, latency_ms, exec_ms;
  std::vector<std::pair<std::size_t, std::uint64_t>> outputs;  // batch, hash
  std::size_t tokens = 0;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(args.seconds));
  auto due = start;
  while (due < end) {
    const std::size_t k = outputs.size() % batches.size();
    const Batch& batch = batches[k];
    const auto sent = Clock::now();
    const HalfMatrix y = enc.forward_batched(batch.x, batch.ends, nullptr, &ctx);
    const auto done = Clock::now();
    late.add(ms_between(due, sent));
    latency_ms.add(ms_between(due, done));
    exec_ms.add(ms_between(sent, done));
    trace.call("Encoder::forward_batched", "call", sent, done);
    tokens += batch.x.cols();
    outputs.emplace_back(k, bits_hash(y));
    due = Clock::now();
  }
  const double elapsed_s = ms_between(start, due) / 1e3;

  // ---- clock stopped
  Phase& phase = report.phase("closed_loop");
  phase.attempted = phase.succeeded = outputs.size();
  report_latency(latency_ms, late, report);
  report.end_to_end("tok_s", double(tokens) / elapsed_s, "tok/s",
                    outputs.size());
  report_direct(late, exec_ms, batches.front().x.cols(), report);
  report_plan_cache(ctx, hits0, misses0, report);
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB", 1);

  // forward_batched against per-sequence forward, once per sequence: the
  // batch output must be the two sequences' own outputs side by side.
  std::vector<HalfMatrix> expected;
  for (const HalfMatrix& s : seqs) expected.push_back(enc.forward(s, nullptr, &ctx));
  std::vector<std::uint64_t> want;
  for (const Batch& batch : batches) {
    std::vector<std::size_t> ends;
    want.push_back(bits_hash(pack({&expected[batch.a], &expected[batch.b]}, ends)));
  }
  for (const auto& [k, hash] : outputs)
    if (hash != want[k])
      report.mismatch("batched long-context output differs from the "
                      "per-sequence forward");
  if (!args.traced) return;

  const Batch& median = batches.front();  // every batch holds ~384 tokens
  replay_batched(enc, median.x, median.ends, ctx, report, trace);
  replay_kernels(enc.layer(0), median.x.cols(), ctx, report, trace);
}

// ------------------------------------------------------- spmm_f16 / spmm_i8
//
// The paper's kernel library at the paper's shapes: the six 64:2:8 SpMMs
// of one BERT-base layer (Q, K, V, O 768x768; FFN in 3072x768; FFN out
// 768x3072) through ops::matmul_fused on one ExecContext, on the fp16
// (vnm-fast) or int8 (vnm-int8) datapath. A closed loop alternates a
// decode-width pass (C = 16: p50_ms / p90_ms) with a wide pass (C = 256:
// tok_s = columns per second through the six SpMMs). A kernel change
// shows here undiluted; the width split catches wide-tile gains that cost
// decode-width calls.

inline constexpr std::size_t kNarrow = 16, kWide = 256;

inline void run_spmm(const RunArgs& args, ops::Dtype dtype, Report& report,
                     Trace& trace) {
  transformer::ModelConfig cfg = transformer::bert_base();
  cfg.layers = 1;
  struct Stack {
    transformer::Encoder enc;
    std::vector<SparseWeight> weights;
    ops::ExecContext ctx;
  };
  Gen warm(0, "warmup");
  auto stack = build_timed(3, report, [&] {
    auto s = std::unique_ptr<Stack>(
        new Stack{pruned_encoder(cfg, "spmm-bert-base"), {}, {}});
    s->enc.set_weight_dtype(dtype);
    auto& layer = s->enc.layer(0);
    auto& mha = layer.attention();
    for (const transformer::Linear* lin :
         {&mha.wq(), &mha.wk(), &mha.wv(), &mha.wo(), &layer.ffn_in(),
          &layer.ffn_out()})
      s->weights.emplace_back(*lin);
    for (const std::size_t c : {kNarrow, kWide})
      for (const SparseWeight& w : s->weights)
        (void)w.run(synth_input(w.f16->cols(), c, warm), s->ctx);
    return s;
  });
  const std::vector<SparseWeight>& weights = stack->weights;
  ops::ExecContext& ctx = stack->ctx;
  const std::string dt = dtype == ops::Dtype::kI8 ? "i8" : "f16";

  // One input per (width, inner dimension); outputs are hashed per call
  // (outside the timed region) and checked against the oracle's.
  Gen gen(args.seed, "spmm_bert");
  struct Width {
    std::size_t c;
    HalfMatrix b768, b3072;
    std::vector<std::vector<std::uint64_t>> hashes;  // per weight
    std::vector<Samples> cell_ms;                    // per role
    Samples pass_ms;
    const HalfMatrix& input(const SparseWeight& w) const {
      return w.f16->cols() == b768.rows() ? b768 : b3072;
    }
  };
  std::vector<Width> widths;
  for (const std::size_t c : {kNarrow, kWide})
    widths.push_back({c, synth_input(768, c, gen), synth_input(3072, c, gen),
                      std::vector<std::vector<std::uint64_t>>(weights.size()),
                      std::vector<Samples>(3), {}});
  // Cells by role: the four projections pool into qkvo.
  const std::size_t role_of[] = {0, 0, 0, 0, 1, 2};
  const std::pair<const char*, std::size_t> roles[] = {
      {"qkvo", 0}, {"ffn_in", 4}, {"ffn_out", 5}};  // name, a weight of it

  const std::size_t hits0 = ctx.plan_cache().hits();
  const std::size_t misses0 = ctx.plan_cache().misses();
  Samples late;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(args.seconds));
  std::vector<HalfMatrix> outs(weights.size());
  std::vector<Clock::time_point> stamps(weights.size() + 1);
  for (std::size_t pass = 0; Clock::now() < end; ++pass) {
    Width& w = widths[pass % widths.size()];
    const auto due = Clock::now();
    stamps[0] = Clock::now();
    for (std::size_t i = 0; i < weights.size(); ++i) {
      outs[i] = weights[i].run(w.input(weights[i]), ctx);
      stamps[i + 1] = Clock::now();
    }
    late.add(ms_between(due, stamps[0]));
    w.pass_ms.add(ms_between(stamps[0], stamps.back()));
    trace.call("six SpMMs c=" + std::to_string(w.c), "call", stamps[0],
               stamps.back());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      w.cell_ms[role_of[i]].add(ms_between(stamps[i], stamps[i + 1]));
      w.hashes[i].push_back(bits_hash(outs[i]));
    }
  }

  // ---- clock stopped
  Width& narrow = widths[0];
  Width& wide = widths[1];
  Phase& phase = report.phase("closed_loop");
  phase.attempted = phase.succeeded = narrow.pass_ms.size() + wide.pass_ms.size();
  report_latency(narrow.pass_ms, late, report);
  report.end_to_end("tok_s", double(kWide * wide.pass_ms.size()) / (wide.pass_ms.sum() / 1e3),
                    "tok/s", wide.pass_ms.size());
  report_direct(late, narrow.pass_ms, kNarrow, report);
  report_plan_cache(ctx, hits0, misses0, report);
  // Every cell at both widths; the wide cells are the kernel layer's
  // metrics, the same role names the model workloads replay.
  for (Width& w : widths)
    for (std::size_t r = 0; r < 3; ++r) {
      const auto [role, i] = roles[r];
      const double t = w.cell_ms[r].median();
      const double gflops = weights[i].flops(w.c) / t / 1e6;
      const std::size_t n = w.cell_ms[r].size();
      if (w.c == kWide) {
        report.layer(std::string("kernel.") + role + ".gflops", gflops,
                     "GFLOP/s", n);
        report.layer(std::string("kernel.") + role + ".gbps",
                     weights[i].bytes(w.c) / t / 1e6, "GB/s", n);
      }
      report.layer("ops." + dt + "." + role + ".c" + std::to_string(w.c) +
                       ".gflops",
                   gflops, "GFLOP/s", n);
    }
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB", 1);

  // Every call's output against the scalar oracle, once per distinct
  // (width, weight): the fast paths are bit-identical to their oracles.
  {
    const ops::ScopedBackend oracle(dtype == ops::Dtype::kI8 ? "vnm-int8-scalar"
                                                             : "vnm-scalar");
    for (Width& w : widths)
      for (std::size_t i = 0; i < weights.size(); ++i) {
        const std::uint64_t want = bits_hash(weights[i].run(w.input(weights[i]), ctx));
        for (const std::uint64_t got : w.hashes[i])
          if (got != want)
            report.mismatch("SpMM cell differs from its scalar oracle");
      }
  }
  if (!args.traced) return;

  // The layer these SpMMs belong to, replayed at width 256 (16 sequences
  // of 16 tokens) on the same datapath: the kernel's share of its layer.
  std::vector<HalfMatrix> seqs;
  std::vector<const HalfMatrix*> parts;
  for (std::size_t i = 0; i < kWide / 16; ++i)
    seqs.push_back(synth_input(cfg.hidden, 16, gen));
  for (const HalfMatrix& s : seqs) parts.push_back(&s);
  std::vector<std::size_t> ends;
  const HalfMatrix x = pack(parts, ends);
  replay_batched(stack->enc, x, ends, ctx, report, trace);
}

}  // namespace venom::e2e
