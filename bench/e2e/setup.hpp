// What every workload shares: run arguments, the model under test, timed
// set-up, batch packing, and the batched-forward replay.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "format/vnm.hpp"
#include "load.hpp"
#include "measure.hpp"
#include "ops/context.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "transformer/config.hpp"
#include "transformer/encoder.hpp"

namespace venom::e2e {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 15.0;  ///< measured time; phases split it
  bool traced = false;    ///< record spans and run the per-layer replay
};

inline constexpr VnmConfig kFormat{64, 2, 8};

/// The model every serving row of this repo measures: bert-tiny.
inline transformer::ModelConfig bert_tiny() {
  return transformer::ModelConfig{.name = "bert-tiny", .layers = 2,
                                  .hidden = 256, .heads = 4,
                                  .ffn_hidden = 512, .seq_len = 128};
}

/// Weights are fixed (seeded by label, never by --seed) and
/// magnitude-pruned to 64:2:8.
inline transformer::Encoder pruned_encoder(
    const transformer::ModelConfig& cfg, const char* label = "serving-model") {
  Rng rng = Rng::seeded(label);
  transformer::Encoder enc(cfg, rng);
  enc.sparsify(kFormat);
  return enc;
}

/// Builds the system under test `repeats` times and keeps the last. Its
/// set-up time is the median build, so work moved into set-up shows
/// without one slow build deciding the number.
template <typename Build>
auto build_timed(std::size_t repeats, Report& report, Build&& build) {
  Samples seconds;
  decltype(build()) kept;
  for (std::size_t i = 0; i < repeats; ++i) {
    kept = {};  // tear the previous build down before timing the next
    const auto t0 = Clock::now();
    kept = build();
    seconds.add(ms_since(t0) / 1e3);
  }
  report.end_to_end("setup_s", seconds.median(), "s", seconds.size());
  return kept;
}

/// Packs sequences along the token axis; `ends` gets each one's
/// exclusive end column.
inline HalfMatrix pack(const std::vector<const HalfMatrix*>& seqs,
                       std::vector<std::size_t>& ends) {
  std::size_t cols = 0;
  for (const HalfMatrix* s : seqs) cols += s->cols();
  HalfMatrix x(seqs.front()->rows(), cols);
  ends.clear();
  std::size_t c0 = 0;
  for (const HalfMatrix* s : seqs) {
    for (std::size_t r = 0; r < s->rows(); ++r)
      for (std::size_t c = 0; c < s->cols(); ++c) x(r, c0 + c) = (*s)(r, c);
    c0 += s->cols();
    ends.push_back(c0);
  }
  return x;
}

/// Latency percentiles of the workload's unit of work and the load
/// generator's lateness.
inline void report_latency(Samples& latency_ms, Samples& late_ms,
                           Report& report) {
  report.end_to_end("p50_ms", latency_ms.median(), "ms", latency_ms.size());
  report.end_to_end("p90_ms", latency_ms.quantile(0.9), "ms",
                    latency_ms.size());
  report.layer("latency_p99_ms", latency_ms.quantile(0.99), "ms",
               latency_ms.size());
  report.layer("load.late_ms_p99", late_ms.quantile(0.99), "ms",
               late_ms.size());
}

/// The per-layer replay of one packed batch through the batched forward:
/// every layer's ops, then the dispatch decision at its width.
inline void replay_batched(transformer::Encoder& enc, const HalfMatrix& x,
                           std::span<const std::size_t> ends,
                           ops::ExecContext& ctx, Report& report,
                           Trace& trace) {
  LayerTimes t = replay_layers(
      enc, x, ctx, trace,
      [&](std::size_t l, const HalfMatrix& h, transformer::TimingBreakdown& tb) {
        return enc.layer(l).attention().forward_batched(h, ends, &tb, &ctx);
      },
      [&](std::size_t l, const HalfMatrix& h) {
        return enc.layer(l).forward_batched(h, ends, nullptr, &ctx);
      },
      [](std::size_t) {});
  t.report(report, x.cols());
  replay_select(enc.layer(0), x.cols(), report);
}

}  // namespace venom::e2e
