// Autoregressive decode bench: mixed prefill/decode batching through the
// serving engine, against the KV ring cache.
//
// Two timed phases over the same pruned causal encoder (measurement in
// serving::run_decode_bench): a prefill-only phase — the prompts as bulk
// encode traffic, whose per-batch forward time is the latency a decode
// step would pay if it were serialized behind full prefill batches — and
// a mixed phase with every session generating concurrently, prefill
// chunks and single-token decode steps sharing one batch queue with
// decode ranked urgent. The acceptance bar is the scheduling claim itself: the mixed
// run's per-step decode p99 (queue + exec) must come in under the solo
// prefill batch latency, i.e. decode steps slot between prompt chunks
// instead of waiting them out. A correctness pass first asserts every
// session's generated columns are bit-identical to a direct prefill +
// decode_step loop — including ring wraparound, since prompt + new
// tokens overruns the window.
//
// Usage: bench_decode [sessions] [prompt_tokens] [new_tokens] [window]
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "serving/bench_harness.hpp"
#include "transformer/config.hpp"

namespace {

using namespace venom;

transformer::ModelConfig bench_model() {
  // The BERT-tiny-ish stack of venomtool serve-bench / route-bench:
  // SpMM-dominated, CI-sized.
  return transformer::ModelConfig{.name = "bert-tiny", .layers = 2,
                                  .hidden = 256, .heads = 4,
                                  .ffn_hidden = 512, .seq_len = 128};
}

}  // namespace

int main(int argc, char** argv) {
  serving::DecodeBenchSetup setup;
  setup.model = bench_model();
  setup.requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16;
  setup.tokens = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 32;
  setup.new_tokens = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 32;
  setup.window = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 48;

  char shape[128];
  std::snprintf(shape, sizeof(shape), "%s h%zuL%zu s%zu p%zu+%zu w%zu bt%zu",
                setup.model.name.c_str(), setup.model.hidden,
                setup.model.layers, setup.requests, setup.tokens,
                setup.new_tokens, setup.window, setup.max_batch_tokens);
  bench::banner("Decode: mixed prefill/decode batching over the KV ring",
                shape);

  const serving::DecodeBenchReport r = serving::run_decode_bench(setup);
  if (!r.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: engine generation differs from the direct "
                 "prefill + decode_step loop\n");
    return 1;
  }

  bench::header({"phase", "tok/s", "p50 ms", "p99 ms"});
  bench::cell("prefill");
  bench::cell(r.solo_prefill_tok_s, "%.0f");
  bench::cell(r.solo_prefill_batch_p50_ms, "%.3f");
  bench::cell("-");
  bench::endrow();
  bench::cell("decode");
  bench::cell(r.decode_tok_s, "%.0f");
  bench::cell(r.stats.decode_p50_ms, "%.3f");
  bench::cell(r.stats.decode_p99_ms, "%.3f");
  bench::endrow();
  std::printf("\nper-session outputs bit-identical: yes\n");
  std::printf("mixed phase: %zu prefill tokens + %zu decode steps in %zu "
              "batches (%.1f tokens avg)\n",
              r.stats.prefill_tokens, r.stats.decode_steps, r.stats.batches,
              r.stats.avg_batch_tokens);

  // The scheduling acceptance bar: a decode step must not wait out a
  // full prefill batch. VENOM_DECODE_P99_FACTOR relaxes it for slow or
  // contended runners.
  double factor = 1.0;
  if (const char* env = std::getenv("VENOM_DECODE_P99_FACTOR"))
    factor = std::strtod(env, nullptr);
  const double bar = r.solo_prefill_batch_p50_ms * factor;
  if (r.stats.decode_p99_ms >= bar) {
    std::fprintf(stderr,
                 "FAIL: decode p99 %.3f ms >= %.3f ms bar (solo prefill "
                 "batch p50 %.3f ms x %.2f)\n",
                 r.stats.decode_p99_ms, bar, r.solo_prefill_batch_p50_ms,
                 factor);
    return 1;
  }
  std::printf("decode p99 %.3f ms < solo prefill batch %.3f ms x %.2f: "
              "PASS\n",
              r.stats.decode_p99_ms, r.solo_prefill_batch_p50_ms, factor);
  return 0;
}
