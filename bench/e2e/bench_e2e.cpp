// The repository's end-to-end benchmark: one workload per invocation.
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<s>]
//             [--out=<result.json>] [--trace=<trace.json>]
//
// Workloads (README.md has why each exists and what it should move):
//   encode_ragged      serving encode traffic, open loop + saturation
//   generate_sessions  serving generation with a KV ring, open loop + burst
//   long_context       offline forward_batched on long sequences
//   spmm_f16, spmm_i8  the six BERT-base SpMMs through ops::matmul_fused
//
// Every workload reports the same end-to-end metrics (p50_ms, p90_ms,
// tok_s, setup_s; peak_rss_mb is printed too) for its own unit of work,
// and phase counts of attempted / succeeded / failed. --trace records
// spans from this program's code, replays the workload's observed batch
// shape through the public layer calls for the per-layer metrics, and
// writes Chrome trace-event JSON. Outputs are checked after the clock
// stops; any mismatch exits 1.
//
// Times and rates are reported at a reference host speed: a fixed loop
// of this program's own code is timed before and after the run, and
// every time is scaled by kReferenceProbeMs / that time (rates by its
// inverse). The measured values are kept as "raw".
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "direct_workloads.hpp"
#include "serving_workloads.hpp"

namespace {

using namespace venom::e2e;

/// The probe's median on the unloaded reference machine (4 vCPUs,
/// Intel Xeon); there, normalized values equal raw ones.
constexpr double kReferenceProbeMs = 2.5;
constexpr std::size_t kProbeTimings = 20;

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload=<encode_ragged|"
               "generate_sessions|long_context|spmm_f16|spmm_i8> --seed=<n> "
               "[--seconds=<s>] [--out=<path>] [--trace=<path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string out_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? argv[i] + flag.size()
                                                : nullptr;
    };
    if (const char* v = value("--workload=")) args.workload = v;
    else if (const char* v = value("--seed=")) args.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds=")) args.seconds = std::strtod(v, nullptr);
    else if (const char* v = value("--out=")) out_path = v;
    else if (const char* v = value("--trace=")) trace_path = v;
    else return usage(("unknown argument " + std::string(arg)).c_str());
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  args.traced = !trace_path.empty();

  Report report;
  Trace trace(args.traced, Clock::now());
  const double probe_before = probe_ms(kProbeTimings);
  try {
    if (args.workload == "encode_ragged") run_encode(args, report, trace);
    else if (args.workload == "generate_sessions") run_generate(args, report, trace);
    else if (args.workload == "long_context") run_long(args, report, trace);
    else if (args.workload == "spmm_f16") run_spmm(args, venom::ops::Dtype::kF16, report, trace);
    else if (args.workload == "spmm_i8") run_spmm(args, venom::ops::Dtype::kI8, report, trace);
    else return usage(("unknown workload '" + args.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }
  const double probe = 0.5 * (probe_before + probe_ms(kProbeTimings));
  report.normalize(kReferenceProbeMs / probe);
  report.layer("host.probe_ms", probe, "ms", 2 * kProbeTimings);

  std::printf("workload %s seed %llu seconds %g%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.traced ? " (traced)" : "");
  report.print();
  if (!out_path.empty() && !report.write_json(out_path, args.workload, args.seed)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
    return 3;
  }
  if (args.traced && !trace.write(trace_path)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
    return 3;
  }
  return report.correct() ? 0 : 1;
}
