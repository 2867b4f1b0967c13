#include "serving/bench_harness.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "transformer/encoder.hpp"

namespace venom::serving {

Options BenchSetup::options() const {
  Options opts;
  opts.batching.max_batch_tokens = max_batch_tokens;
  opts.batching.max_batch_requests = max_batch_requests;
  opts.batching.max_wait = max_wait;
  opts.plan_path = plan_path;
  return opts;
}

void BenchSetup::validate() const {
  VENOM_CHECK_MSG(requests >= 1, "serving bench: requests must be positive");
  VENOM_CHECK_MSG(tokens >= 1, "serving bench: tokens must be positive");
}

void LoadSetup::validate() const {
  BenchSetup::validate();
  VENOM_CHECK_MSG(tokens <= max_tokens,
                  "serving bench: tokens (the shortest request, "
                      << tokens << ") exceeds max_tokens (" << max_tokens
                      << ")");
}

namespace {

transformer::Encoder pruned_encoder(const transformer::ModelConfig& model,
                                    const VnmConfig& format) {
  Rng rng = Rng::seeded("serving-model");
  transformer::Encoder enc(model, rng);
  enc.sparsify(format);
  return enc;
}

/// Request i of the trace is random_half_matrix(hidden, lengths[i]) drawn
/// from the stream seeded (label, first_index + i): the contents depend
/// only on the label and index, never on timing or trace length.
std::vector<HalfMatrix> seeded_trace(const char* label,
                                     std::uint64_t first_index,
                                     std::size_t hidden,
                                     const std::vector<std::size_t>& lengths) {
  std::vector<HalfMatrix> trace;
  trace.reserve(lengths.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    Rng rng = Rng::seeded(label, first_index + i);
    trace.push_back(random_half_matrix(hidden, lengths[i], rng, 0.5f));
  }
  return trace;
}

/// The canonical "serving-trace" that the comparison, the sweep, and its
/// replay share, so a plan's measured_rps is comparable across all three.
std::vector<HalfMatrix> serving_trace(const BenchSetup& setup) {
  return seeded_trace("serving-trace", 0, setup.model.hidden,
                      std::vector<std::size_t>(setup.requests, setup.tokens));
}

/// Submits every input (copied: traces are reused across passes), then
/// waits for all of them in submission order.
std::vector<Response> submit_and_wait(InferenceEngine& engine,
                                      const std::vector<HalfMatrix>& inputs,
                                      std::size_t max_new_tokens = 0) {
  std::vector<std::future<Response>> futs;
  futs.reserve(inputs.size());
  for (const HalfMatrix& x : inputs) {
    Request req;
    req.input = x;
    req.max_new_tokens = max_new_tokens;
    futs.push_back(engine.submit(std::move(req)));
  }
  std::vector<Response> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

bool same_bits(const HalfMatrix& a, const HalfMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t e = 0; e < a.size(); ++e)
    if (a.flat()[e].bits() != b.flat()[e].bits()) return false;
  return true;
}

double timed_batched_rps(InferenceEngine& engine,
                         const std::vector<HalfMatrix>& trace) {
  const auto run = [&] { submit_and_wait(engine, trace); };
  run();  // warmup: fills the plan cache and the packed-panel pools
  return static_cast<double>(trace.size()) /
         seconds_per_call(run, /*warmup=*/0);
}

}  // namespace

BenchComparison run_serving_comparison(const BenchSetup& setup) {
  setup.validate();
  const std::vector<HalfMatrix> trace = serving_trace(setup);
  const auto seq_enc = encoder_with_plan(
      pruned_encoder(setup.model, setup.format), setup.plan_path);
  InferenceEngine engine(pruned_encoder(setup.model, setup.format),
                         setup.options());

  // Per-request forward durations from the timed pass: the sequential
  // path's "latency" is each request's own forward time, so its p50/p99
  // are percentiles of these (not the whole-trace mean).
  std::vector<double> seq_latencies_s;
  const auto run_sequential = [&](std::vector<HalfMatrix>* out) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      HalfMatrix y = seq_enc->forward(trace[i]);
      if (out == nullptr)  // timed pass only
        seq_latencies_s.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
      if (out != nullptr) (*out)[i] = std::move(y);
    }
  };

  BenchComparison result;
  result.requests = setup.requests;

  // Correctness pass (doubles as warmup): batching must not change any
  // request's bits.
  std::vector<HalfMatrix> seq_out(trace.size());
  run_sequential(&seq_out);
  const std::vector<Response> eng_out = submit_and_wait(engine, trace);
  result.bit_identical = true;
  for (std::size_t i = 0; i < trace.size() && result.bit_identical; ++i)
    result.bit_identical = same_bits(seq_out[i], eng_out[i].output);

  // Timed passes run against a warm engine; dropping the warmup-pass
  // samples keeps the reported percentiles steady-state.
  engine.reset_stats();
  result.sequential_s =
      seconds_per_call([&] { run_sequential(nullptr); }, /*warmup=*/0);
  result.batched_s = seconds_per_call(
      [&] { submit_and_wait(engine, trace); }, /*warmup=*/0);
  result.stats = engine.stats();

  std::sort(seq_latencies_s.begin(), seq_latencies_s.end());
  result.sequential_p50_ms = 1e3 * percentile_sorted(seq_latencies_s, 0.50);
  result.sequential_p99_ms = 1e3 * percentile_sorted(seq_latencies_s, 0.99);
  return result;
}

EngineSweepResult run_engine_sweep(const EngineSweepSetup& setup) {
  setup.validate();
  VENOM_CHECK_MSG(!setup.token_budgets.empty() &&
                      !setup.worker_counts.empty() && !setup.dtypes.empty(),
                  "serving bench: every sweep axis needs at least one value");
  const std::vector<HalfMatrix> trace = serving_trace(setup);

  EngineSweepResult result;
  for (const std::size_t budget : setup.token_budgets) {
    for (const std::size_t workers : setup.worker_counts) {
      for (const ops::Dtype dtype : setup.dtypes) {
        transformer::Encoder enc = pruned_encoder(setup.model, setup.format);
        enc.set_weight_dtype(dtype);
        Options opts = setup.options();
        opts.plan_path.clear();
        opts.batching.max_batch_tokens = budget;
        opts.workers = workers;
        InferenceEngine engine(std::move(enc), opts);
        result.ranked.push_back(
            {budget, workers, dtype, timed_batched_rps(engine, trace)});
      }
    }
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const EngineSweepPoint& a, const EngineSweepPoint& b) {
              return a.rps > b.rps;
            });

  const EngineSweepPoint& best = result.ranked.front();
  EnginePlan& plan = result.plan;
  plan.model = setup.model.name;
  plan.features = cpu_feature_string();
  plan.max_batch_tokens = best.max_batch_tokens;
  plan.workers = best.workers;
  plan.measured_rps = best.rps;
  // Layer provenance: the backend dispatch selects for a full-budget
  // sparse product at the winning dtype (what the batched forward runs).
  // Recorded for tooling only — applying the plan sets the dtype and
  // lets dispatch re-select.
  ops::MatmulDesc desc;
  desc.rows = setup.model.hidden;
  desc.cols = setup.model.hidden;
  desc.b_cols = best.max_batch_tokens;
  desc.format = ops::OperandFormat::kVnm;
  desc.dtype = best.dtype;
  desc.vnm = setup.format;
  const std::string backend(
      ops::BackendRegistry::instance().select(desc).name());
  plan.layers.assign(setup.model.layers, EnginePlanLayer{backend, best.dtype});
  return result;
}

double measure_engine_rps(const BenchSetup& setup) {
  setup.validate();
  const std::vector<HalfMatrix> trace = serving_trace(setup);
  InferenceEngine engine(pruned_encoder(setup.model, setup.format),
                         setup.options());
  return timed_batched_rps(engine, trace);
}

LoadReport run_serving_load(const LoadSetup& setup) {
  setup.validate();
  // Zipf-skewed request lengths over [tokens, max_tokens]: weight of
  // the k-th shortest length is (k+1)^-skew, so traffic is mostly short
  // requests with a heavy tail of long ones — the ragged mix that makes
  // least-queued-tokens routing earn its keep over round-robin.
  const std::size_t span = setup.max_tokens - setup.tokens + 1;
  std::vector<double> cumulative(span);
  double total_weight = 0.0;
  for (std::size_t k = 0; k < span; ++k) {
    total_weight += std::pow(double(k + 1), -setup.length_skew);
    cumulative[k] = total_weight;
  }
  Rng len_rng = Rng::seeded("serving-load-lengths", setup.seed);
  std::vector<std::size_t> lengths(setup.requests);
  for (std::size_t& len : lengths) {
    const double u = double(len_rng.uniform()) * total_weight;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    len = setup.tokens + std::size_t(std::distance(cumulative.begin(), it));
  }
  const std::vector<HalfMatrix> trace =
      seeded_trace("serving-load-trace", setup.seed * 100003,
                   setup.model.hidden, lengths);

  // One encoder, shared const across the replicas; an independent
  // reference instance from the same seed for the bit-identity check.
  const auto ref_enc = encoder_with_plan(
      pruned_encoder(setup.model, setup.format), setup.plan_path);
  Options opts = setup.options();
  opts.workers = setup.workers;
  opts.replicas = setup.replicas;
  opts.admission.max_queued_tokens = setup.max_queued_tokens;
  EngineGroup group(pruned_encoder(setup.model, setup.format), opts);

  LoadReport report;
  report.offered = setup.requests;

  // Closed-loop calibration (doubles as warmup): submit a burst through
  // the group, wait for all of it, and take completions/second as the
  // capacity estimate the overload rate is expressed against.
  {
    const std::size_t n = std::max<std::size_t>(1, setup.calibration_requests);
    const auto t0 = Clock::now();
    std::vector<std::future<Response>> futs;
    futs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Request req;
      req.input = trace[i % trace.size()];
      req.tenant = "calibration";
      try {
        futs.push_back(group.submit(std::move(req)));
      } catch (const AdmissionError&) {
        // Queue-full during calibration just means the burst outran the
        // bound; the capacity estimate uses what was admitted.
      }
      // Pace the burst against the admission bound: drain ahead of the
      // queue limit so calibration measures throughput, not shedding.
      if (futs.size() >= 2 * setup.replicas &&
          futs.size() % setup.replicas == 0)
        futs[futs.size() - 2 * setup.replicas].wait();
    }
    std::size_t done = 0;
    for (auto& f : futs) {
      f.get();
      ++done;
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    report.capacity_rps = double(std::max<std::size_t>(1, done)) / s;
    group.reset_stats();
  }

  // Open-loop overload phase: Poisson arrivals at overload x capacity.
  // Open-loop is the point — arrivals do not slow down when the system
  // backs up, so the admission controller (not client backpressure) is
  // what keeps the admitted requests' latency bounded.
  report.offered_rps = setup.overload * report.capacity_rps;
  Rng arrival_rng = Rng::seeded("serving-load-arrivals", setup.seed);
  struct Outcome {
    std::size_t index;
    std::future<Response> fut;
  };
  std::vector<Outcome> admitted;
  admitted.reserve(setup.requests);
  const auto start = Clock::now();
  auto next_arrival = start;
  for (std::size_t i = 0; i < setup.requests; ++i) {
    float u = arrival_rng.uniform();
    if (u < 1e-7f) u = 1e-7f;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(double(u)) /
                                      report.offered_rps));
    std::this_thread::sleep_until(next_arrival);
    Request req;
    req.input = trace[i];
    req.tenant = "load";
    try {
      admitted.push_back(Outcome{i, group.submit(std::move(req))});
    } catch (const AdmissionError& e) {
      if (e.reason() == AdmissionReason::kQueueFull)
        ++report.rejected_queue;
      else
        ++report.rejected_rate;
    }
  }

  // Collect: every admitted future must resolve (a hang here is the load
  // bench's failure mode). Client latency is queue+exec — what a caller
  // holding the future experiences once the batch is timed.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(admitted.size());
  std::vector<std::pair<std::size_t, HalfMatrix>> outputs;
  outputs.reserve(admitted.size());
  for (Outcome& o : admitted) {
    try {
      Response resp = o.fut.get();
      latencies_ms.push_back(resp.queue_ms + resp.exec_ms);
      outputs.emplace_back(o.index, std::move(resp.output));
      ++report.admitted;
    } catch (const Error&) {
      ++report.failed;
    }
  }
  report.wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  // Bit-identity after the clock stops (the reference forwards are not
  // part of the serving run): every admitted output must match a direct
  // forward() on the independently built reference encoder, whatever
  // replica served it and whatever batch it rode in.
  report.bit_identical = true;
  for (const auto& [index, output] : outputs) {
    if (!report.bit_identical) break;
    report.bit_identical = same_bits(output, ref_enc->forward(trace[index]));
  }
  report.goodput_rps =
      report.wall_s > 0.0 ? double(report.admitted) / report.wall_s : 0.0;

  std::sort(latencies_ms.begin(), latencies_ms.end());
  report.p50_ms = percentile_sorted(latencies_ms, 0.50);
  report.p99_ms = percentile_sorted(latencies_ms, 0.99);
  report.stats = group.stats();
  return report;
}

namespace {

/// The engine's generation contract replayed directly on the encoder:
/// prefill, seed decode with the last prompt output, identity feedback.
HalfMatrix direct_generate(const transformer::Encoder& enc,
                           const HalfMatrix& prompt, std::size_t steps,
                           std::size_t capacity) {
  transformer::KvCache cache = enc.make_cache(capacity);
  const HalfMatrix pre = enc.prefill(prompt, cache);
  const std::size_t hidden = prompt.rows();
  HalfMatrix gen(hidden, steps);
  HalfMatrix x(hidden, 1);
  for (std::size_t r = 0; r < hidden; ++r)
    x(r, 0) = pre(r, prompt.cols() - 1);
  for (std::size_t t = 0; t < steps; ++t) {
    const HalfMatrix y = enc.decode_step(x, cache);
    for (std::size_t r = 0; r < hidden; ++r) {
      gen(r, t) = y(r, 0);
      x(r, 0) = y(r, 0);
    }
  }
  return gen;
}

}  // namespace

DecodeBenchReport run_decode_bench(const DecodeBenchSetup& setup) {
  setup.validate();
  transformer::ModelConfig model = setup.model;
  model.causal = true;
  model.attn_window = setup.window;

  const std::vector<HalfMatrix> prompts =
      seeded_trace("decode-trace", 0, model.hidden,
                   std::vector<std::size_t>(setup.requests, setup.tokens));

  const auto ref_enc =
      encoder_with_plan(pruned_encoder(model, setup.format), setup.plan_path);
  Options opts = setup.options();
  // Every live session's next step fits one batch.
  opts.batching.max_batch_requests = setup.requests + 1;
  opts.kv_capacity =
      setup.window != 0 ? setup.window : setup.tokens + setup.new_tokens;
  opts.max_new_tokens = setup.new_tokens;
  opts.prefill_chunk_tokens = setup.prefill_chunk_tokens;
  InferenceEngine engine(pruned_encoder(model, setup.format), opts);

  DecodeBenchReport report;

  // Correctness pass (doubles as warmup): every session's generated
  // columns must bit-match the direct prefill + decode_step loop on the
  // independently built reference encoder — whatever batches its prefill
  // chunks and decode steps rode in.
  {
    const std::vector<Response> out =
        submit_and_wait(engine, prompts, setup.new_tokens);
    report.bit_identical = true;
    for (std::size_t i = 0; i < out.size() && report.bit_identical; ++i)
      report.bit_identical =
          same_bits(out[i].output, direct_generate(*ref_enc, prompts[i],
                                                   setup.new_tokens,
                                                   opts.kv_capacity));
  }

  // Prefill-only phase: the prompts as plain encode traffic. This is the
  // bulk-throughput workload a decode step contends with; the per-batch
  // forward time (exec_ms, shared by every request in the batch) is the
  // latency bar the mixed run's decode p99 is judged against.
  engine.reset_stats();
  {
    const auto t0 = Clock::now();
    const std::vector<Response> out = submit_and_wait(engine, prompts);
    report.solo_prefill_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    report.solo_prefill_tok_s =
        double(setup.requests * setup.tokens) / report.solo_prefill_s;
    std::vector<double> batch_ms;
    batch_ms.reserve(out.size());
    for (const Response& r : out) batch_ms.push_back(r.exec_ms);
    std::sort(batch_ms.begin(), batch_ms.end());
    report.solo_prefill_batch_p50_ms = percentile_sorted(batch_ms, 0.50);
  }

  // Mixed phase: every session generating concurrently — prefill chunks
  // and 1-token decode steps sharing one batch queue, decode ranked
  // urgent. decode_p50/p99 (queue + exec per step) land in stats.
  engine.reset_stats();
  {
    const auto t0 = Clock::now();
    submit_and_wait(engine, prompts, setup.new_tokens);
    report.mixed_wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    report.decode_tok_s =
        double(setup.requests * setup.new_tokens) / report.mixed_wall_s;
  }
  report.stats = engine.stats();
  return report;
}

}  // namespace venom::serving
