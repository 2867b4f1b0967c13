// Per-layer replay: a workload's observed batch shape sent through the
// public layer calls one op at a time, measured from outside.
//
// Each encoder layer is recomposed from attention, add + layer_norm with
// the layer's identity affine, ffn_in, gelu, ffn_out and add + layer_norm
// again. The recomposed output must be bit-identical to the layer's own
// forward, and the per-op medians must add up to the layer's median, so
// the split is known to cover the layer. Kernel cells time
// ops::matmul_fused on the layer's own sparse weights.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "load.hpp"
#include "measure.hpp"
#include "ops/matmul.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/plan.hpp"
#include "trace.hpp"
#include "transformer/encoder.hpp"
#include "transformer/ops.hpp"

namespace venom::e2e {

/// Calls behind each replayed median. The box shows ~15 ms stalls
/// (identical gelu calls took 4.8 ms and 19.8 ms); a median over 30
/// calls rides them out.
inline constexpr std::size_t kReplayCalls = 30;

/// A Linear layer's sparse weight as the ops layer takes it: shared
/// handles so dispatch goes through the context's plan cache the way
/// Linear::forward does, on the layer's own datapath (fp16 or int8).
struct SparseWeight {
  explicit SparseWeight(const transformer::Linear& lin)
      : f16(std::make_shared<const VnmMatrix>(lin.sparse_weight())),
        fingerprint(spatha::weight_fingerprint(*f16)),
        bias(lin.bias().begin(), lin.bias().end()) {
    if (lin.int8_weight() != nullptr)
      i8 = std::make_shared<const quant::QuantizedVnmMatrix>(
          *lin.int8_weight());
  }

  ops::MatmulArgs args(const HalfMatrix& b) const {
    return i8 != nullptr ? ops::MatmulArgs::make(i8, b)
                         : ops::MatmulArgs::make(f16, fingerprint, b);
  }
  HalfMatrix run(const HalfMatrix& b, ops::ExecContext& ctx) const {
    spatha::Epilogue epilogue;
    epilogue.bias = bias;
    return ops::matmul_fused(args(b), epilogue, ctx);
  }
  /// Useful FLOPs of one call at width c: 2 * nnz * c.
  double flops(std::size_t c) const { return 2.0 * double(f16->nnz() * c); }
  /// Bytes one call at width c must touch, computed from tensor sizes:
  /// compressed weight (values, metadata, indices), fp16 B and C, bias.
  double bytes(std::size_t c) const {
    const std::size_t weight =
        i8 != nullptr ? i8->compressed_bytes() : f16->compressed_bytes();
    return double(weight + 2 * (f16->cols() + f16->rows()) * c +
                  4 * bias.size());
  }

  std::shared_ptr<const VnmMatrix> f16;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const quant::QuantizedVnmMatrix> i8;
  std::vector<float> bias;
};

/// Per-op samples of a layer replay, pooled over the stack's layers.
struct LayerTimes {
  Samples layer, mha, attn_core, qkvo_proj, ffn_in, ffn_out, gelu, add_norm;
  bool bit_identical = true;

  void report(Report& r, std::size_t tokens) {
    r.layer("transformer.batch_tokens", double(tokens), "count", 1);
    const auto put = [&r](const char* name, Samples& s) {
      r.layer(name, s.median(), "ms", s.size());
    };
    put("transformer.layer_ms", layer);
    put("transformer.mha_ms", mha);
    put("transformer.attn_core_ms", attn_core);
    put("transformer.qkvo_proj_ms", qkvo_proj);
    put("transformer.ffn_in_ms", ffn_in);
    put("transformer.ffn_out_ms", ffn_out);
    put("transformer.gelu_ms", gelu);
    put("transformer.add_norm_ms", add_norm);
    if (!bit_identical)
      r.mismatch("recomposed layer differs from the layer's own forward");
    const double parts = mha.median() + add_norm.median() + ffn_in.median() +
                         gelu.median() + ffn_out.median();
    const double ratio = parts / layer.median();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "replay: sum of per-op medians %.3f ms vs layer median "
                  "%.3f ms (ratio %.3f)%s",
                  parts, layer.median(), ratio,
                  ratio > 0.9 && ratio < 1.1 ? "" : "  RECONCILE FAILED");
    r.note(line);
  }
};

/// Replays `x` through every layer of `enc`. `attend(l, h, timing)` runs
/// layer l's attention and `whole(l, h)` the whole layer, through the
/// forward the workload uses (batched or KV-cached); `prepare(l)` runs
/// untimed before each layer step, where a cached replay snapshots its
/// caches so both paths start from the same state. One untimed pass
/// warms the context first.
template <typename Attend, typename Whole, typename Prepare>
LayerTimes replay_layers(const transformer::Encoder& enc, const HalfMatrix& x,
                         ops::ExecContext& ctx, Trace& trace, Attend&& attend,
                         Whole&& whole, Prepare&& prepare) {
  namespace tf = transformer;
  // The layers keep the identity LayerNorm affine they are built with.
  const std::vector<float> ones(enc.config().hidden, 1.0f);
  const std::vector<float> zeros(enc.config().hidden, 0.0f);
  const std::size_t passes =
      1 + (kReplayCalls + enc.layer_count() - 1) / enc.layer_count();
  LayerTimes t;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const bool record = pass > 0;
    const auto timed = [&](const char* name, Samples* s, auto&& fn) {
      const auto t0 = Clock::now();
      fn();
      const auto t1 = Clock::now();
      if (!record) return 0.0;
      if (s != nullptr) s->add(ms_between(t0, t1));
      trace.call(name, "replay", t0, t1);
      return ms_between(t0, t1);
    };
    HalfMatrix h = x;
    for (std::size_t l = 0; l < enc.layer_count(); ++l) {
      const tf::EncoderLayer& layer = enc.layer(l);
      tf::TimingBreakdown tb;
      HalfMatrix attn, h1, f1, act, f2, out, ref;
      prepare(l);
      timed("attention", &t.mha, [&] { attn = attend(l, h, tb); });
      double norm = timed("add+layer_norm", nullptr, [&] {
        h1 = tf::layer_norm(tf::add(h, attn), ones, zeros);
      });
      timed("ffn_in", &t.ffn_in, [&] { f1 = layer.ffn_in().forward(h1, nullptr, &ctx); });
      timed("gelu", &t.gelu, [&] { act = tf::gelu(f1); });
      timed("ffn_out", &t.ffn_out, [&] { f2 = layer.ffn_out().forward(act, nullptr, &ctx); });
      norm += timed("add+layer_norm", nullptr, [&] {
        out = tf::layer_norm(tf::add(h1, f2), ones, zeros);
      });
      timed("layer", &t.layer, [&] { ref = whole(l, h); });
      if (record) {
        t.add_norm.add(norm);
        t.attn_core.add(1e3 * (tb.attn_matmul_s + tb.softmax_s));
        t.qkvo_proj.add(1e3 * tb.gemm_s);
      }
      t.bit_identical = t.bit_identical && same_bits(out, ref);
      h = std::move(ref);
    }
  }
  return t;
}

/// Times ops::matmul_fused on one layer's sparse weights at width c —
/// roles qkvo (the four attention projections, pooled), ffn_in and
/// ffn_out — and reports useful GFLOP/s and computed GB/s per role.
inline void replay_kernels(transformer::EncoderLayer& layer, std::size_t c,
                           ops::ExecContext& ctx, Report& report,
                           Trace& trace) {
  auto& mha = layer.attention();
  const std::vector<std::pair<const char*, std::vector<const transformer::Linear*>>>
      roles = {{"qkvo", {&mha.wq(), &mha.wk(), &mha.wv(), &mha.wo()}},
               {"ffn_in", {&layer.ffn_in()}},
               {"ffn_out", {&layer.ffn_out()}}};
  Gen gen(c, "kernel-replay");
  for (const auto& [role, linears] : roles) {
    Samples ms;
    double flops = 0.0;
    double bytes = 0.0;
    for (const transformer::Linear* lin : linears) {
      const SparseWeight w(*lin);
      const HalfMatrix b = synth_input(lin->in_features(), c, gen);
      flops = w.flops(c);
      bytes = w.bytes(c);
      (void)w.run(b, ctx);  // builds the plan
      for (std::size_t i = 0; i < kReplayCalls / linears.size() + 1; ++i) {
        const auto t0 = Clock::now();
        (void)w.run(b, ctx);
        const auto t1 = Clock::now();
        ms.add(ms_between(t0, t1));
        trace.call(std::string("matmul_fused ") + role, "replay", t0, t1);
      }
    }
    const double t = ms.median();
    report.layer(std::string("kernel.") + role + ".gflops", flops / t / 1e6,
                 "GFLOP/s", ms.size());
    report.layer(std::string("kernel.") + role + ".gbps", bytes / t / 1e6,
                 "GB/s", ms.size());
  }
}

/// Median wall time of one dispatch decision for the layer's ffn_in
/// product at width c.
inline void replay_select(transformer::EncoderLayer& layer, std::size_t c,
                          Report& report) {
  const SparseWeight w(layer.ffn_in());
  const HalfMatrix b(layer.ffn_in().in_features(), c);
  const ops::MatmulDesc desc = w.args(b).desc();
  const auto& registry = ops::BackendRegistry::instance();
  Samples us;
  for (int i = 0; i < 1000; ++i) {
    const auto t0 = Clock::now();
    (void)registry.select_explained(desc);
    us.add(1e3 * ms_since(t0));
  }
  report.layer("ops.select_us", us.median(), "us", us.size());
}

/// Plan-cache hits over lookups since `hits0` / `misses0`.
inline void report_plan_cache(const ops::ExecContext& ctx, std::size_t hits0,
                              std::size_t misses0, Report& report) {
  const std::size_t hits = ctx.plan_cache().hits() - hits0;
  const std::size_t lookups = hits + ctx.plan_cache().misses() - misses0;
  report.layer("ops.plan_cache_hit_frac",
               lookups == 0 ? 0.0 : double(hits) / double(lookups), "fraction",
               lookups);
}

}  // namespace venom::e2e
