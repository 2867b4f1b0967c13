// venomtool — command-line utility over the VENOM library.
//
//   venomtool gen <rows> <cols> <out.mat> [seed] [sigma]
//       synthesize a dense fp16 matrix (transformer-like, with outlier
//       columns) and write it in the MATH container
//   venomtool compress <in.mat> <out.vnm> <V> <N> <M>
//       magnitude-prune + compress to V:N:M
//   venomtool decompress <in.vnm> <out.mat>
//       expand a compressed matrix back to dense
//   venomtool quantize <in.vnm> <out> <int8|e5m2|e4m3>
//       re-encode a compressed V:N:M matrix at reduced precision (QVN1 /
//       FVN1 containers), print the size and scale statistics, and
//       round-trip-check the written file
//   venomtool info <file>
//       describe any container (shape, format, density, footprint)
//   venomtool spmm <a.vnm|a.qvnm|a.fvnm> <b.mat> <out.matf>
//       C = A_vnm * B through Spatha (fp32 output container); A may be
//       fp16 or a `quantize` artefact — dispatch follows its dtype
//   venomtool energy <pruned.mat> <dense.mat>
//       Fig. 11 energy metric of a pruned matrix vs its dense origin
//   venomtool autotune <R> <K> <C> <V> <N> <M>
//       rank Spatha kernel configurations for a GEMM shape (RTX 3090
//       model) and print the top candidates
//   venomtool tune <R> <K> <C> <V> <N> <M> [cache.json] [--dtype=D]
//       empirical autotuning: benchmark real kernel executions on this
//       machine (analytically pruned candidates) on the --dtype datapath
//       (f16|int8|e5m2|e4m3, default f16), print tuned vs heuristic
//       GFLOP/s, and merge the winner into the JSON tuning cache
//       (default venom_tune.json) under the dtype's feature tag. Export
//       VENOM_TUNE_CACHE=<file> so select_config dispatches the tuned
//       configs transparently on the same dtype.
//   venomtool tune-engine [--requests=N] [--tokens=N] [--hidden=N]
//                         [--layers=N] [--out=plan.json]
//       engine-level autotuning: sweep the serving knobs the kernel
//       cache cannot see (batcher token budget x worker split x uniform
//       weight dtype) over the canonical serving trace, write the winner
//       as a persisted EnginePlan, then reload the plan and replay it to
//       confirm the measured throughput reproduces
//   venomtool model <R> <K> <C> <V> <N> <M>
//       modeled kernel times and speedup vs cuBLAS for one problem
//   venomtool backends [R K C V N M [dtype]]
//       list the registered venom::ops matmul backends; with a shape,
//       print which backend dispatch would select for that RxKxC V:N:M
//       problem and the kernel config with and without the tuning cache
//       (dtype f16|int8|e5m2|e4m3 selects the datapath, default f16)
//   venomtool serve-bench [--requests=N] [--tokens=N] [--batch-tokens=N]
//                         [--hidden=N] [--layers=N] [--plan=plan.json]
//       serving throughput: dynamic batching through the InferenceEngine
//       vs a sequential one-request-at-a-time loop over the same pruned
//       encoder; prints req/s, tok/s, p50/p99 latency, and the speedup.
//       Exits nonzero unless every batched output is bit-identical to the
//       sequential one and the speedup holds the bar
//       (VENOM_SERVING_SPEEDUP_BAR, default 3.0). --plan loads a
//       tune-engine plan into both paths (token budget, workers,
//       per-layer dtype)
//   venomtool route-bench [--replicas=N] [--requests=N] [--overload=X]
//                         [--queue-tokens=N] [--workers=N] [--seed=N]
//                         [--plan=plan.json]
//       scaled serving: an EngineGroup of N replicas (shared const
//       weights, least-queued-tokens routing, bounded admission) under a
//       Poisson arrival burst at `overload` x the calibrated capacity;
//       prints goodput, admitted p50/p99, shed counts, and the per-replica
//       batch split. Exits nonzero unless every admitted output is
//       bit-identical to a direct forward, no admitted request fails, the
//       admitted p99 holds the bar (VENOM_LOAD_P99_BAR_MS, default 1000),
//       and an overload >= 1.5 sheds something (VENOM_LOAD_REQUIRE_SHED=0
//       waives it); a run past VENOM_LOAD_TIMEOUT_S (default 300) exits 2
//   venomtool generate [--prompt=N] [--tokens=N] [--hidden=N]
//                      [--layers=N] [--kv=N] [--seed=N]
//       autoregressive generation demo over a byte vocabulary: a random
//       causal encoder plus a random 256-entry embedding table, greedy
//       argmax feedback through the Request::on_token hook (logits =
//       E^T h), a NUL argmax acting as eos. Prints the generated bytes,
//       the KV ring footprint, and prefill/decode timing; --kv sets a
//       sliding attention window == the ring capacity (0 = unwindowed,
//       the ring sized to prompt+tokens)
//   venomtool finetune-bench [out] [in] [tokens] [steps] [V N M]
//       sparse fine-tuning demo: a random student layer is magnitude-
//       pruned to V:N:M and fine-tuned against a synthetic regression
//       task with every forward/backward on the sparse kernels (SpMM /
//       transposed SpMM / masked SDDMM). Prints the loss curve and the
//       recovery fraction; exits nonzero below the recovery bar
//       (VENOM_FINETUNE_RECOVERY_BAR, default 0.5)
#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "format/vnm.hpp"
#include "gpumodel/autotune.hpp"
#include "io/serialize.hpp"
#include "ops/ops.hpp"
#include "pruning/finetune.hpp"
#include "pruning/policies.hpp"
#include "serving/bench_harness.hpp"
#include "spatha/spmm.hpp"
#include "transformer/config.hpp"

namespace {

using namespace venom;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  venomtool gen <rows> <cols> <out.mat> [seed] [sigma]\n"
               "  venomtool compress <in.mat> <out.vnm> <V> <N> <M>\n"
               "  venomtool decompress <in.vnm> <out.mat>\n"
               "  venomtool quantize <in.vnm> <out> <int8|e5m2|e4m3>\n"
               "  venomtool info <file>\n"
               "  venomtool spmm <a.vnm|a.qvnm|a.fvnm> <b.mat> <out.matf>\n"
               "  venomtool energy <pruned.mat> <dense.mat>\n"
               "  venomtool autotune <R> <K> <C> <V> <N> <M>\n"
               "  venomtool tune <R> <K> <C> <V> <N> <M> [cache.json]"
               " [--dtype=f16|int8|e5m2|e4m3]\n"
               "  venomtool tune-engine [--requests=N] [--tokens=N]"
               " [--hidden=N] [--layers=N] [--out=plan.json]\n"
               "  venomtool model <R> <K> <C> <V> <N> <M>\n"
               "  venomtool backends [R K C V N M [dtype]]\n"
               "  venomtool serve-bench [--requests=N] [--tokens=N]"
               " [--batch-tokens=N] [--hidden=N] [--layers=N]"
               " [--plan=plan.json]\n"
               "  venomtool route-bench [--replicas=N] [--requests=N]"
               " [--overload=X] [--queue-tokens=N] [--workers=N]"
               " [--seed=N] [--plan=plan.json]\n"
               "  venomtool generate [--prompt=N] [--tokens=N]"
               " [--hidden=N] [--layers=N] [--kv=N] [--seed=N]\n"
               "  venomtool finetune-bench [out] [in] [tokens] [steps]"
               " [V N M]\n");
  return 2;
}

// Decimal digits only: a sign, blank, suffix or overflow is an error
// rather than a wrapped or truncated value.
std::size_t to_size(const std::string& s) {
  std::size_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  VENOM_CHECK_MSG(ec == std::errc() && end == s.data() + s.size(),
                  "expected a non-negative integer, got '" << s << "'");
  return v;
}

double to_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  VENOM_CHECK_MSG(!s.empty() && end == s.c_str() + s.size(),
                  "expected a number, got '" << s << "'");
  return v;
}

/// An acceptance bar's value: the environment's override or the default.
double env_or(const char* name, double fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? to_double(env) : fallback;
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 5) return usage();
  const std::size_t rows = to_size(args[0]);
  const std::size_t cols = to_size(args[1]);
  const std::uint64_t seed = args.size() > 3 ? to_size(args[3]) : 42;
  const float sigma = args.size() > 4 ? float(to_double(args[4])) : 0.05f;
  Rng rng(seed);
  const HalfMatrix m =
      pruning::synthetic_bert_weight(rows, cols, rng, 0.15, 4.0f, sigma);
  io::save(m, args[2]);
  std::printf("wrote %zux%zu fp16 matrix to %s (seed %llu)\n", rows, cols,
              args[2].c_str(), static_cast<unsigned long long>(seed));
  return 0;
}

int cmd_compress(const std::vector<std::string>& args) {
  if (args.size() != 5) return usage();
  const HalfMatrix dense = io::load_half_matrix(args[0]);
  const VnmConfig cfg{to_size(args[2]), to_size(args[3]), to_size(args[4])};
  const VnmMatrix sparse = VnmMatrix::from_dense_magnitude(dense, cfg);
  io::save(sparse, args[1]);
  std::printf("compressed %zux%zu to %zu:%zu:%zu (%.0f%% sparse): %zu -> %zu "
              "bytes (%.1fx)\n",
              dense.rows(), dense.cols(), cfg.v, cfg.n, cfg.m,
              cfg.sparsity() * 100.0, dense.size() * 2,
              sparse.compressed_bytes(),
              double(dense.size() * 2) / double(sparse.compressed_bytes()));
  return 0;
}

int cmd_decompress(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const VnmMatrix sparse = io::load_vnm_matrix(args[0]);
  io::save(sparse.to_dense(), args[1]);
  std::printf("expanded %zux%zu V:N:M matrix to %s\n", sparse.rows(),
              sparse.cols(), args[1].c_str());
  return 0;
}

int cmd_quantize(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  ops::Dtype dtype = ops::Dtype::kF16;
  if (!ops::dtype_from_string(args[2], dtype) || dtype == ops::Dtype::kF16)
    return usage();
  const VnmMatrix fp16 = io::load_vnm_matrix(args[0]);
  const std::size_t fp16_bytes = fp16.compressed_bytes();

  // Quantization error of the written image, relative to the largest
  // fp16 magnitude (symmetric int8 bounds this by scale/2 per element).
  const auto report_error = [&](const VnmMatrix& deq) {
    float max_abs = 0.0f, max_err = 0.0f;
    for (std::size_t i = 0; i < fp16.values().size(); ++i)
      max_abs = std::max(max_abs, std::fabs(fp16.values()[i].to_float()));
    for (std::size_t i = 0; i < fp16.values().size(); ++i)
      max_err = std::max(max_err,
                         std::fabs(deq.values()[i].to_float() -
                                   fp16.values()[i].to_float()));
    std::printf("  max abs error    : %.6g (%.4f%% of max |value| %.6g)\n",
                max_err, max_abs > 0 ? 100.0 * max_err / max_abs : 0.0,
                max_abs);
  };

  if (dtype == ops::Dtype::kI8) {
    const auto q = quant::QuantizedVnmMatrix::quantize(fp16);
    io::save(q, args[1]);
    float smin = 0.0f, smax = 0.0f;
    double ssum = 0.0;
    for (std::size_t r = 0; r < q.rows(); ++r) {
      const float s = q.row_scale(r);
      smin = r == 0 ? s : std::min(smin, s);
      smax = std::max(smax, s);
      ssum += s;
    }
    std::printf("quantized %zux%zu %zu:%zu:%zu to int8: %zu -> %zu bytes "
                "(%.2fx)\n",
                q.rows(), q.cols(), q.config().v, q.config().n, q.config().m,
                fp16_bytes, q.compressed_bytes(),
                double(fp16_bytes) / double(q.compressed_bytes()));
    std::printf("  row scales       : min %.6g  max %.6g  mean %.6g\n", smin,
                smax, q.rows() > 0 ? ssum / double(q.rows()) : 0.0);
    report_error(q.dequantize());
    // Round-trip check: the written container must reload to the exact
    // in-memory structures.
    const auto back = io::load_quant_vnm_matrix(args[1]);
    const bool ok = back.values() == q.values() &&
                    back.m_indices() == q.m_indices() &&
                    back.column_locs() == q.column_locs() &&
                    back.row_scales() == q.row_scales();
    std::printf("  round trip       : %s\n", ok ? "ok" : "MISMATCH");
    return ok ? 0 : 1;
  }
  const Fp8Format format =
      dtype == ops::Dtype::kF8E5M2 ? Fp8Format::kE5M2 : Fp8Format::kE4M3;
  const auto q = quant::Fp8VnmMatrix::quantize(fp16, format);
  io::save(q, args[1]);
  std::printf("quantized %zux%zu %zu:%zu:%zu to fp8 %s: %zu -> %zu bytes "
              "(%.2fx)\n",
              q.rows(), q.cols(), q.config().v, q.config().n, q.config().m,
              to_string(format), fp16_bytes, q.compressed_bytes(),
              double(fp16_bytes) / double(q.compressed_bytes()));
  report_error(q.dequantize());
  const auto back = io::load_fp8_vnm_matrix(args[1]);
  const bool ok = back.format() == q.format() &&
                  back.values() == q.values() &&
                  back.m_indices() == q.m_indices() &&
                  back.column_locs() == q.column_locs();
  std::printf("  round trip       : %s\n", ok ? "ok" : "MISMATCH");
  return ok ? 0 : 1;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  switch (io::probe(args[0])) {
    case io::FileKind::kHalfMatrix: {
      const HalfMatrix m = io::load_half_matrix(args[0]);
      std::printf("fp16 dense matrix  %zux%zu  density %.3f  l1 %.3f\n",
                  m.rows(), m.cols(), density(m), l1_energy(m));
      return 0;
    }
    case io::FileKind::kFloatMatrix: {
      const FloatMatrix m = io::load_float_matrix(args[0]);
      std::printf("fp32 dense matrix  %zux%zu\n", m.rows(), m.cols());
      return 0;
    }
    case io::FileKind::kVnmMatrix: {
      const VnmMatrix m = io::load_vnm_matrix(args[0]);
      std::printf("V:N:M matrix  %zux%zu  format %zu:%zu:%zu  (%.0f%% "
                  "sparse)  nnz %zu  %zu bytes\n",
                  m.rows(), m.cols(), m.config().v, m.config().n,
                  m.config().m, m.config().sparsity() * 100.0, m.nnz(),
                  m.compressed_bytes());
      return 0;
    }
    case io::FileKind::kNmMatrix: {
      const NmMatrix m = io::load_nm_matrix(args[0]);
      std::printf("N:M matrix  %zux%zu  pattern %zu:%zu  (%.0f%% sparse)  "
                  "nnz %zu  %zu bytes\n",
                  m.rows(), m.cols(), m.pattern().n, m.pattern().m,
                  m.pattern().sparsity() * 100.0, m.nnz(),
                  m.compressed_bytes());
      return 0;
    }
    case io::FileKind::kCsrMatrix: {
      const CsrMatrix m = io::load_csr_matrix(args[0]);
      std::printf("CSR matrix  %zux%zu  nnz %zu (density %.3f)\n", m.rows(),
                  m.cols(), m.nnz(),
                  m.rows() * m.cols() == 0
                      ? 0.0
                      : double(m.nnz()) / double(m.rows() * m.cols()));
      return 0;
    }
    case io::FileKind::kQuantVnmMatrix: {
      const quant::QuantizedVnmMatrix m = io::load_quant_vnm_matrix(args[0]);
      float smin = 0.0f, smax = 0.0f;
      for (std::size_t r = 0; r < m.rows(); ++r) {
        const float s = m.row_scale(r);
        smin = r == 0 ? s : std::min(smin, s);
        smax = std::max(smax, s);
      }
      std::printf("int8 V:N:M matrix  %zux%zu  format %zu:%zu:%zu  (%.0f%% "
                  "sparse)  nnz %zu  %zu bytes  row scales [%.6g, %.6g]\n",
                  m.rows(), m.cols(), m.config().v, m.config().n,
                  m.config().m, m.config().sparsity() * 100.0, m.nnz(),
                  m.compressed_bytes(), smin, smax);
      return 0;
    }
    case io::FileKind::kFp8VnmMatrix: {
      const quant::Fp8VnmMatrix m = io::load_fp8_vnm_matrix(args[0]);
      std::printf("fp8 %s V:N:M matrix  %zux%zu  format %zu:%zu:%zu  "
                  "(%.0f%% sparse)  nnz %zu  %zu bytes\n",
                  to_string(m.format()), m.rows(), m.cols(), m.config().v,
                  m.config().n, m.config().m, m.config().sparsity() * 100.0,
                  m.nnz(), m.compressed_bytes());
      return 0;
    }
    case io::FileKind::kTuningCache: {
      const spatha::TuningCache cache = io::load_tuning_cache(args[0]);
      std::printf("tuning cache  %zu entr%s\n", cache.size(),
                  cache.size() == 1 ? "y" : "ies");
      for (const auto& [key, e] : cache.entries())
        std::printf("  %zux%zux%zu %zu:%zu:%zu [%s]  %.2f GFLOP/s "
                    "(heuristic %.2f)  %s\n",
                    key.rows, key.cols, key.b_cols, key.v, key.n, key.m,
                    key.features.c_str(), e.gflops, e.heuristic_gflops,
                    e.config.describe().c_str());
      return 0;
    }
    case io::FileKind::kUnknown:
      std::fprintf(stderr, "unrecognized file: %s\n", args[0].c_str());
      return 1;
  }
  return 1;
}

int cmd_spmm(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  const HalfMatrix b = io::load_half_matrix(args[1]);
  // The A operand may be any compressed V:N:M container — fp16 (VNM1)
  // or a `venomtool quantize` artefact (QVN1 / FVN1); the magic picks
  // the loader and desc().dtype routes dispatch to the matching
  // datapath. Dispatched through the ops registry (honors
  // VENOM_BACKEND), so the CLI exercises the same selection path the
  // library layers use. One selection serves both the run and the
  // printed name.
  VnmMatrix a_fp16;
  quant::QuantizedVnmMatrix a_i8;
  quant::Fp8VnmMatrix a_f8;
  ops::MatmulArgs margs;
  const io::FileKind kind = io::probe(args[0]);
  if (kind == io::FileKind::kQuantVnmMatrix) {
    a_i8 = io::load_quant_vnm_matrix(args[0]);
    margs = ops::MatmulArgs::make(a_i8, b);
  } else if (kind == io::FileKind::kFp8VnmMatrix) {
    a_f8 = io::load_fp8_vnm_matrix(args[0]);
    margs = ops::MatmulArgs::make(a_f8, b);
  } else {
    a_fp16 = io::load_vnm_matrix(args[0]);
    margs = ops::MatmulArgs::make(a_fp16, b);
  }
  const ops::MatmulDesc desc = margs.desc();
  const ops::Matmul& backend = ops::BackendRegistry::instance().select(desc);
  const FloatMatrix c = backend.run(margs, ops::ExecContext::global());
  io::save(c, args[2]);
  std::printf("spmm %zux%zu (%zu:%zu:%zu, %s) * %zux%zu -> %s [backend %s]\n",
              desc.rows, desc.cols, desc.vnm.v, desc.vnm.n, desc.vnm.m,
              std::string(to_string(desc.dtype)).c_str(), b.rows(), b.cols(),
              args[2].c_str(), std::string(backend.name()).c_str());
  return 0;
}

/// Says so when dispatch skipped a requested override (an unknown name,
/// or a backend that cannot run the problem).
void print_ignored_override(const ops::BackendRegistry::Selection& sel) {
  if (!sel.forced_ignored.empty())
    std::printf("  (override '%s' ignored: unknown backend or unsupported "
                "problem)\n",
                sel.forced_ignored.c_str());
}

/// For the commands that build a V:N:M model: dispatch of its fp16
/// hidden x hidden product at `b_cols`, so an override of
/// $VENOM_BACKEND that the run will not use is reported, not silent.
void report_ignored_override(std::size_t hidden, VnmConfig fmt,
                             std::size_t b_cols) {
  ops::MatmulDesc desc;
  desc.rows = hidden;
  desc.cols = hidden;
  desc.b_cols = b_cols;
  desc.format = ops::OperandFormat::kVnm;
  desc.vnm = fmt;
  print_ignored_override(
      ops::BackendRegistry::instance().select_explained(desc));
}

int cmd_backends(const std::vector<std::string>& args) {
  if (!args.empty() && args.size() != 6 && args.size() != 7) return usage();
  const auto& registry = ops::BackendRegistry::instance();

  std::printf("registered matmul backends (features: %s):\n",
              cpu_feature_string().c_str());
  int width = 0;
  for (const ops::Matmul* b : registry.backends())
    width = std::max(width, int(b->name().size()));
  for (const ops::Matmul* b : registry.backends())
    std::printf("  %-*s prio %3d  %s\n", width,
                std::string(b->name()).c_str(), b->priority(),
                b->describe().c_str());

  if (args.empty()) return 0;

  const std::size_t r = to_size(args[0]);
  const std::size_t k = to_size(args[1]);
  const std::size_t c = to_size(args[2]);
  const VnmConfig fmt{to_size(args[3]), to_size(args[4]), to_size(args[5])};
  ops::Dtype dtype = ops::Dtype::kF16;
  if (args.size() == 7 && !ops::dtype_from_string(args[6], dtype))
    return usage();

  ops::MatmulDesc desc;
  desc.rows = r;
  desc.cols = k;
  desc.b_cols = c;
  desc.format = ops::OperandFormat::kVnm;
  desc.vnm = fmt;
  desc.dtype = dtype;

  const auto sel = registry.select_explained(desc);
  std::printf("\ndispatch for %zux%zux%zu at %zu:%zu:%zu (%s):\n", r, k, c,
              fmt.v, fmt.n, fmt.m, std::string(to_string(dtype)).c_str());
  print_ignored_override(sel);
  std::printf("  selected backend : %s\n",
              std::string(sel.backend->name()).c_str());
  std::printf("  eligible         :");
  for (const ops::Matmul* b : registry.backends())
    if (b->supports(desc, cpu_feature_string()))
      std::printf(" %s", std::string(b->name()).c_str());
  std::printf("\n");

  // Dtype-matched cache lookups: an int8 problem tunes under the "+i8"
  // feature tag — reporting the fp16 entry here would claim "no entry"
  // for a shape the int8 tune just cached (and vice versa).
  const auto& ctx = ops::ExecContext::global();
  const auto tuned = ctx.tuned_config(fmt, r, k, c, dtype);
  const auto heuristic = spatha::select_config_heuristic(fmt, r, k, c, dtype);
  if (tuned.has_value()) {
    // Print what dispatch would actually run: a cache entry that no
    // longer validates is degraded to the heuristic there, so report
    // that instead of the dead entry.
    const auto effective = ctx.select_config(fmt, r, k, c, dtype);
    if (effective == *tuned)
      std::printf("  config (tuned)   : %s\n", tuned->describe().c_str());
    else
      std::printf("  config (tuned)   : cache entry invalid for this "
                  "problem (%s), dispatch degrades to heuristic\n",
                  tuned->describe().c_str());
  } else {
    std::printf("  config (tuned)   : no tuning-cache entry ($VENOM_TUNE_"
                "CACHE), falling back to heuristic\n");
  }
  std::printf("  config (heuristic): %s\n", heuristic.describe().c_str());
  return 0;
}

int cmd_energy(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const HalfMatrix pruned = io::load_half_matrix(args[0]);
  const HalfMatrix dense = io::load_half_matrix(args[1]);
  std::printf("energy = %.4f\n", pruning::energy(pruned, dense));
  return 0;
}

int cmd_autotune(const std::vector<std::string>& args) {
  if (args.size() != 6) return usage();
  const gpumodel::GemmShape g{to_size(args[0]), to_size(args[1]),
                              to_size(args[2])};
  const VnmConfig fmt{to_size(args[3]), to_size(args[4]), to_size(args[5])};
  const auto ranked =
      gpumodel::enumerate_configs(gpumodel::rtx3090(), g, fmt);
  std::printf("%zu valid configurations for %zux%zux%zu at %zu:%zu:%zu; "
              "top 5:\n",
              ranked.size(), g.r, g.k, g.c, fmt.v, fmt.n, fmt.m);
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i)
    std::printf("  %8.2f us   %s\n", ranked[i].total_s() * 1e6,
                ranked[i].config.describe().c_str());
  return 0;
}

int cmd_tune(const std::vector<std::string>& all_args) {
  // --dtype may appear anywhere; everything else stays positional.
  ops::Dtype dtype = ops::Dtype::kF16;
  std::vector<std::string> args;
  for (const std::string& a : all_args) {
    if (a.rfind("--dtype=", 0) == 0) {
      if (!ops::dtype_from_string(a.substr(8), dtype)) {
        std::fprintf(stderr, "unknown dtype '%s'\n", a.substr(8).c_str());
        return usage();
      }
    } else {
      args.push_back(a);
    }
  }
  if (args.size() < 6 || args.size() > 7) return usage();
  const std::size_t r = to_size(args[0]);
  const std::size_t k = to_size(args[1]);
  const std::size_t c = to_size(args[2]);
  const VnmConfig fmt{to_size(args[3]), to_size(args[4]), to_size(args[5])};
  const std::string cache_path =
      args.size() > 6 ? args[6] : "venom_tune.json";

  // Deterministic synthetic problem: the transformer-like weight the gen
  // command produces, pruned to V:N:M, against random activations.
  Rng rng(42);
  const HalfMatrix w = pruning::synthetic_bert_weight(r, k, rng, 0.15, 4.0f);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);
  Rng rng_b(43);
  const HalfMatrix b = random_half_matrix(k, c, rng_b, 0.05f);

  std::printf("tuning %zux%zux%zu at %zu:%zu:%zu, datapath %s, on '%s' "
              "...\n",
              r, k, c, fmt.v, fmt.n, fmt.m, ops::to_string(dtype),
              cpu_feature_string().c_str());
  gpumodel::MeasureOptions mopts;
  mopts.dtype = dtype;
  const auto tuned = gpumodel::autotune_measured(a, b, {}, mopts);

  std::printf("measured %zu candidates; top 5:\n", tuned.ranked.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, tuned.ranked.size());
       ++i)
    std::printf("  %8.2f GFLOP/s   %s\n", tuned.ranked[i].gflops,
                tuned.ranked[i].config.describe().c_str());
  std::printf("heuristic: %8.2f GFLOP/s   %s\n", tuned.heuristic.gflops,
              tuned.heuristic.config.describe().c_str());
  std::printf("tuned:     %8.2f GFLOP/s   (%.2fx over heuristic)\n",
              tuned.best.gflops,
              tuned.best.gflops / tuned.heuristic.gflops);

  // Merge into the existing cache so repeated tune runs for different
  // shapes accumulate in one file; a corrupt file is rebuilt from scratch.
  spatha::TuningCache cache;
  if (!cache.try_load(cache_path) && io::probe(cache_path) != io::FileKind::kUnknown)
    std::fprintf(stderr, "warning: ignoring unreadable cache '%s'\n",
                 cache_path.c_str());
  cache.put(tuned.key, tuned.entry);
  io::save_tuning_cache(cache, cache_path);
  std::printf("wrote %zu entr%s to %s (export VENOM_TUNE_CACHE=%s to "
              "dispatch tuned configs)\n",
              cache.size(), cache.size() == 1 ? "y" : "ies",
              cache_path.c_str(), cache_path.c_str());
  return 0;
}

// Shared --key=value flag parser for the serving bench commands, so
// serve-bench and route-bench expose one flag surface instead of two
// positional-argument orders to memorize. Unknown flags and malformed
// arguments are reported (with the offending text) and fail to usage().
class Flags {
 public:
  static bool parse(const std::vector<std::string>& args,
                    std::initializer_list<const char*> allowed, Flags& out) {
    for (const std::string& a : args) {
      const std::size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos || eq < 3) {
        std::fprintf(stderr, "malformed argument '%s' (expected "
                             "--key=value)\n", a.c_str());
        return false;
      }
      const std::string key = a.substr(2, eq - 2);
      if (std::find_if(allowed.begin(), allowed.end(), [&](const char* k) {
            return key == k;
          }) == allowed.end()) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        return false;
      }
      out.values_[key] = a.substr(eq + 1);
    }
    return true;
  }

  std::size_t size(const char* key, std::size_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : to_size(it->second);
  }
  double num(const char* key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : to_double(it->second);
  }
  std::string str(const char* key, const char* fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_serve_bench(const std::vector<std::string>& args) {
  Flags flags;
  if (!Flags::parse(args,
                    {"requests", "tokens", "batch-tokens", "hidden",
                     "layers", "plan"},
                    flags))
    return usage();
  serving::BenchSetup setup;
  setup.requests = flags.size("requests", 64);
  setup.tokens = flags.size("tokens", 4);
  setup.max_batch_tokens = flags.size("batch-tokens", 256);
  setup.plan_path = flags.str("plan", "");
  const std::size_t hidden = flags.size("hidden", 256);
  const std::size_t layers = flags.size("layers", 2);
  setup.model = transformer::ModelConfig{.name = "serve-bench",
                                         .layers = layers, .hidden = hidden,
                                         .heads = 4,
                                         .ffn_hidden = 2 * hidden,
                                         .seq_len = setup.tokens};
  setup.max_batch_requests = setup.requests;

  std::printf("serve-bench: %zu requests x %zu tokens, hidden %zu, %zu "
              "layers, %zu:%zu:%zu weights, batch budget %zu tokens\n",
              setup.requests, setup.tokens, hidden, layers, setup.format.v,
              setup.format.n, setup.format.m, setup.max_batch_tokens);
  if (!setup.plan_path.empty())
    std::printf("  engine plan: %s (applied to both paths)\n",
                setup.plan_path.c_str());
  report_ignored_override(hidden, setup.format, setup.tokens);

  const serving::BenchComparison r = serving::run_serving_comparison(setup);
  if (!r.bit_identical) {
    std::fprintf(stderr, "FAIL: batched outputs differ from the "
                         "sequential forward\n");
    return 1;
  }

  std::printf("  sequential : %8.1f req/s  %8.0f tok/s   p50 %.3f ms  "
              "p99 %.3f ms\n",
              r.sequential_rps(), r.sequential_rps() * double(setup.tokens),
              r.sequential_p50_ms, r.sequential_p99_ms);
  std::printf("  batched    : %8.1f req/s  %8.0f tok/s   p50 %.3f ms  "
              "p99 %.3f ms\n",
              r.batched_rps(), r.batched_rps() * double(setup.tokens),
              r.stats.p50_ms, r.stats.p99_ms);
  std::printf("  speedup    : %.2fx  (avg batch %.1f tokens, %zu batches, "
              "plan cache %zu hits / %zu misses)\n",
              r.speedup(), r.stats.avg_batch_tokens, r.stats.batches,
              r.stats.plan_cache_hits, r.stats.plan_cache_misses);
  std::printf("  per-request outputs bit-identical to sequential: yes\n");

  // The serving engine's acceptance bar: batching must buy at least 3x
  // over the one-request-at-a-time loop.
  const double bar = env_or("VENOM_SERVING_SPEEDUP_BAR", 3.0);
  if (r.speedup() < bar) {
    std::fprintf(stderr, "FAIL: batched speedup %.2fx < %.1fx bar\n",
                 r.speedup(), bar);
    return 1;
  }
  std::printf("  batched speedup %.2fx >= %.1fx bar: PASS\n", r.speedup(),
              bar);
  return 0;
}

int cmd_route_bench(const std::vector<std::string>& args) {
  Flags flags;
  if (!Flags::parse(args,
                    {"replicas", "requests", "overload", "queue-tokens",
                     "workers", "seed", "plan"},
                    flags))
    return usage();
  serving::LoadSetup setup;
  setup.model = transformer::ModelConfig{.name = "route-bench", .layers = 2,
                                         .hidden = 256, .heads = 4,
                                         .ffn_hidden = 512, .seq_len = 128};
  setup.replicas = flags.size("replicas", 4);
  setup.requests = flags.size("requests", 128);
  setup.overload = flags.num("overload", 2.0);
  setup.max_queued_tokens = flags.size("queue-tokens", 512);
  setup.workers = flags.size("workers", 1);
  setup.seed = flags.size("seed", 0);
  setup.plan_path = flags.str("plan", "");

  std::printf("route-bench: %zu replicas, %zu requests of %zu-%zu tokens, "
              "%.1fx overload, %zu-token admission bound\n",
              setup.replicas, setup.requests, setup.tokens,
              setup.max_tokens, setup.overload, setup.max_queued_tokens);
  report_ignored_override(setup.model.hidden, setup.format, setup.tokens);

  // Watchdog: the overload run's worst failure mode is a future that
  // never resolves (a worker wedged across shutdown, a dropped promise).
  // Turn a hang into a loud nonzero exit instead of a stuck CI job.
  const double timeout_s = env_or("VENOM_LOAD_TIMEOUT_S", 300.0);
  auto run = std::async(std::launch::async,
                        [&setup] { return serving::run_serving_load(setup); });
  if (run.wait_for(std::chrono::duration<double>(timeout_s)) ==
      std::future_status::timeout) {
    std::fprintf(stderr, "FAIL: route-bench hung past %.0fs watchdog\n",
                 timeout_s);
    std::_Exit(2);
  }
  const serving::LoadReport r = run.get();
  if (!r.bit_identical) {
    std::fprintf(stderr, "FAIL: a routed output differs from the direct "
                         "forward\n");
    return 1;
  }
  if (r.failed != 0) {
    std::fprintf(stderr, "FAIL: %zu admitted requests failed\n", r.failed);
    return 1;
  }

  std::printf("  capacity   : %8.1f req/s (closed-loop calibration)\n",
              r.capacity_rps);
  std::printf("  offered    : %8.1f req/s (Poisson)\n", r.offered_rps);
  std::printf("  goodput    : %8.1f req/s  (%zu/%zu admitted)\n",
              r.goodput_rps, r.admitted, r.offered);
  std::printf("  shed       : %zu queue-full, %zu rate-limited "
              "(AdmissionError at submit)\n",
              r.rejected_queue, r.rejected_rate);
  std::printf("  latency    : p50 %.3f ms  p99 %.3f ms (admitted only)\n",
              r.p50_ms, r.p99_ms);
  std::printf("  replica batches:");
  for (const auto& s : r.stats.replicas) std::printf(" %zu", s.batches);
  std::printf("\n");
  std::printf("  admitted outputs bit-identical to direct forward: yes\n");

  // Acceptance bars:
  //   * the admitted requests' p99 must stay bounded — the admission
  //     queue bound caps how long an admitted request can wait, so a
  //     blown bar means shedding stopped protecting latency;
  //   * an overload must actually shed — zero rejections means the
  //     burst never exceeded capacity and the run proved nothing.
  // The default bar is ~4x the queue-bound-implied delay on the
  // reference machine, leaving headroom for slower runners (whose queue
  // delay scales inversely with their token throughput).
  const double p99_bar = env_or("VENOM_LOAD_P99_BAR_MS", 1000.0);
  if (r.p99_ms > p99_bar) {
    std::fprintf(stderr, "FAIL: admitted p99 %.1f ms > %.0f ms bar\n",
                 r.p99_ms, p99_bar);
    return 1;
  }
  const std::size_t shed = r.rejected_queue + r.rejected_rate;
  if (env_or("VENOM_LOAD_REQUIRE_SHED", 1.0) != 0.0 &&
      setup.overload >= 1.5 && shed == 0) {
    std::fprintf(stderr,
                 "FAIL: %.1fx overload shed nothing — offered load never "
                 "exceeded capacity\n",
                 setup.overload);
    return 1;
  }
  std::printf("  admitted p99 %.1f ms <= %.0f ms bar, %zu requests shed "
              "with AdmissionError: PASS\n",
              r.p99_ms, p99_bar, shed);
  return 0;
}

int cmd_tune_engine(const std::vector<std::string>& args) {
  Flags flags;
  if (!Flags::parse(args, {"requests", "tokens", "hidden", "layers", "out"},
                    flags))
    return usage();
  serving::EngineSweepSetup setup;
  setup.requests = flags.size("requests", 32);
  setup.tokens = flags.size("tokens", 4);
  const std::size_t hidden = flags.size("hidden", 256);
  const std::size_t layers = flags.size("layers", 2);
  const std::string out = flags.str("out", "venom_engine_plan.json");
  setup.model = transformer::ModelConfig{.name = "tune-engine",
                                         .layers = layers, .hidden = hidden,
                                         .heads = 4,
                                         .ffn_hidden = 2 * hidden,
                                         .seq_len = setup.tokens};

  std::printf("tune-engine: %zu requests x %zu tokens, hidden %zu, %zu "
              "layers; sweeping %zu budgets x %zu worker counts x %zu "
              "dtypes on '%s' ...\n",
              setup.requests, setup.tokens, hidden, layers,
              setup.token_budgets.size(), setup.worker_counts.size(),
              setup.dtypes.size(), cpu_feature_string().c_str());
  report_ignored_override(hidden, setup.format, setup.tokens);

  const serving::EngineSweepResult r = serving::run_engine_sweep(setup);
  std::printf("measured %zu combinations; top 5:\n", r.ranked.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, r.ranked.size());
       ++i) {
    const serving::EngineSweepPoint& p = r.ranked[i];
    std::printf("  %8.1f req/s   budget %4zu tokens, %zu worker%s, %s\n",
                p.rps, p.max_batch_tokens, p.workers,
                p.workers == 1 ? "" : "s", ops::to_string(p.dtype));
  }

  serving::save_engine_plan(r.plan, out);
  std::printf("wrote plan to %s (%zu layers on %s, backend %s)\n",
              out.c_str(), r.plan.layers.size(),
              r.plan.layers.empty()
                  ? "f16"
                  : ops::to_string(r.plan.layers.front().dtype),
              r.plan.layers.empty() ? "-"
                                    : r.plan.layers.front().backend.c_str());

  // Close the loop: reload the artefact the way serve-bench would
  // (Options::plan_path) and replay the trace. The replayed throughput
  // should reproduce the sweep's measurement within noise.
  setup.plan_path = out;
  const double replay = serving::measure_engine_rps(setup);
  std::printf("replayed plan: %8.1f req/s (sweep measured %8.1f, "
              "%+.1f%%)\n",
              replay, r.plan.measured_rps,
              1e2 * (replay / r.plan.measured_rps - 1.0));
  return 0;
}

int cmd_generate(const std::vector<std::string>& args) {
  Flags flags;
  if (!Flags::parse(args,
                    {"prompt", "tokens", "hidden", "layers", "kv", "seed"},
                    flags))
    return usage();
  const std::size_t prompt_tokens = flags.size("prompt", 16);
  const std::size_t new_tokens = flags.size("tokens", 32);
  const std::size_t hidden = flags.size("hidden", 128);
  const std::size_t layers = flags.size("layers", 2);
  const std::size_t window = flags.size("kv", 0);
  const std::uint64_t seed = flags.size("seed", 42);
  if (prompt_tokens == 0 || new_tokens == 0) return usage();

  // A byte-vocabulary "language model": random causal encoder weights,
  // a random (hidden x 256) embedding table E shared between input
  // lookup and the output head (logits = E^T h). The text is noise —
  // the point is the generation machinery itself: KV ring prefill,
  // urgent decode steps, greedy feedback through Request::on_token.
  constexpr std::size_t kVocab = 256;
  transformer::ModelConfig model{.name = "generate", .layers = layers,
                                 .hidden = hidden, .heads = 4,
                                 .ffn_hidden = 2 * hidden,
                                 .seq_len = prompt_tokens + new_tokens,
                                 .causal = true, .attn_window = window};
  const VnmConfig fmt{64, 2, 8};
  Rng rng(seed);
  transformer::Encoder enc(model, rng);
  enc.sparsify(fmt);
  Rng embed_rng(seed + 1);
  const HalfMatrix embed =
      random_half_matrix(hidden, kVocab, embed_rng, 0.25f);

  const std::size_t kv_capacity =
      window != 0 ? window : prompt_tokens + new_tokens;
  const std::size_t kv_bytes = enc.make_cache(kv_capacity).bytes();

  serving::Options opts;
  opts.kv_capacity = kv_capacity;
  opts.max_new_tokens = new_tokens;
  serving::InferenceEngine engine(std::move(enc), opts);

  // Prompt: a fixed byte string cycled to length, embedded column-wise.
  const std::string prompt_text = "the venom sparse transformer";
  HalfMatrix input(hidden, prompt_tokens);
  std::vector<unsigned char> prompt_ids(prompt_tokens);
  for (std::size_t t = 0; t < prompt_tokens; ++t) {
    prompt_ids[t] = static_cast<unsigned char>(
        prompt_text[t % prompt_text.size()]);
    for (std::size_t r = 0; r < hidden; ++r)
      input(r, t) = embed(r, prompt_ids[t]);
  }

  // Greedy argmax over the shared embedding, re-embedded in place as the
  // next step's input. A NUL argmax is the eos byte: return false and
  // let the engine stop the session early.
  std::vector<unsigned char> generated_ids;
  serving::Request req;
  req.input = std::move(input);
  req.max_new_tokens = new_tokens;
  req.on_token = [&](std::span<half_t> h) {
    std::size_t best = 0;
    float best_logit = 0.0f;
    for (std::size_t v = 0; v < kVocab; ++v) {
      float logit = 0.0f;
      for (std::size_t r = 0; r < hidden; ++r)
        logit += embed(r, v).to_float() * h[r].to_float();
      if (v == 0 || logit > best_logit) {
        best = v;
        best_logit = logit;
      }
    }
    if (best == 0) return false;
    generated_ids.push_back(static_cast<unsigned char>(best));
    for (std::size_t r = 0; r < hidden; ++r) h[r] = embed(r, best);
    return true;
  };

  std::printf("generate: prompt %zu + up to %zu tokens, hidden %zu, %zu "
              "layers, window %zu, KV ring %zu cols (%zu KiB per "
              "session)\n",
              prompt_tokens, new_tokens, hidden, layers, window,
              kv_capacity, kv_bytes / 1024);
  report_ignored_override(hidden, fmt, prompt_tokens);

  const serving::Response resp = engine.submit(std::move(req)).get();

  std::printf("  prompt     : \"");
  for (std::size_t t = 0; t < prompt_tokens; ++t)
    std::printf("%c", std::isprint(prompt_ids[t]) ? prompt_ids[t] : '.');
  std::printf("\"\n  generated  : \"");
  for (const unsigned char id : generated_ids)
    std::printf("%c", std::isprint(id) ? id : '.');
  std::printf("\" (%zu byte%s%s)\n", generated_ids.size(),
              generated_ids.size() == 1 ? "" : "s",
              resp.tokens_generated < new_tokens ? ", eos" : "");
  std::printf("  prefill    : %8.3f ms  (%.0f tok/s)\n", resp.prefill_ms,
              resp.prefill_ms > 0.0
                  ? double(prompt_tokens) * 1e3 / resp.prefill_ms
                  : 0.0);
  std::printf("  decode     : %8.3f ms  over %zu steps  (%.0f tok/s)\n",
              resp.decode_ms, resp.tokens_generated,
              resp.decode_ms > 0.0
                  ? double(resp.tokens_generated) * 1e3 / resp.decode_ms
                  : 0.0);
  std::printf("  output     : %zux%zu (one column per decode step)\n",
              resp.output.rows(), resp.output.cols());
  return 0;
}

int cmd_finetune_bench(const std::vector<std::string>& args) {
  if (args.size() > 7 || args.size() == 5 || args.size() == 6)
    return usage();
  const std::size_t out = args.size() > 0 ? to_size(args[0]) : 64;
  const std::size_t in = args.size() > 1 ? to_size(args[1]) : 128;
  const std::size_t tokens = args.size() > 2 ? to_size(args[2]) : 256;
  pruning::SparseFinetuneConfig cfg;
  cfg.steps = args.size() > 3 ? to_size(args[3]) : 60;
  if (args.size() == 7)
    cfg.format = VnmConfig{to_size(args[4]), to_size(args[5]),
                           to_size(args[6])};

  Rng task_rng = Rng::seeded("finetune-task");
  const workloads::RegressionTask task =
      workloads::regression_task(out, in, tokens, task_rng);
  Rng student_rng = Rng::seeded("finetune-student");
  transformer::Linear student =
      transformer::Linear::random(out, in, student_rng);

  std::printf("finetune-bench: %zux%zu student, %zu tokens, %zu:%zu:%zu "
              "(%.0f%% sparse), %zu SGD steps\n",
              out, in, tokens, cfg.format.v, cfg.format.n, cfg.format.m,
              cfg.format.sparsity() * 100.0, cfg.steps);
  const pruning::SparseFinetuneReport r =
      pruning::finetune_linear(student, task, cfg);

  std::printf("  dense loss      : %10.6f\n", r.dense_loss);
  std::printf("  post-prune loss : %10.6f\n", r.post_prune_loss);
  for (std::size_t s = 0; s < r.curve.size();
       s += std::max<std::size_t>(1, r.curve.size() / 8))
    std::printf("    step %3zu      : %10.6f\n", s, r.curve[s]);
  std::printf("  final loss      : %10.6f\n", r.final_loss);
  std::printf("  recovery        : %.1f%% of the post-prune loss removed\n",
              r.recovery() * 100.0);

  const double bar = env_or("VENOM_FINETUNE_RECOVERY_BAR", 0.5);
  if (r.recovery() < bar) {
    std::fprintf(stderr, "FAIL: recovery %.3f below the %.3f bar\n",
                 r.recovery(), bar);
    return 1;
  }
  return 0;
}

int cmd_model(const std::vector<std::string>& args) {
  if (args.size() != 6) return usage();
  const auto& dev = gpumodel::rtx3090();
  const gpumodel::GemmShape g{to_size(args[0]), to_size(args[1]),
                              to_size(args[2])};
  const VnmConfig fmt{to_size(args[3]), to_size(args[4]), to_size(args[5])};
  const auto dense = gpumodel::cublas_gemm(dev, g);
  const auto sparse = gpumodel::spatha_spmm(dev, g, fmt);
  std::printf("modeled on %s:\n", dev.name.c_str());
  std::printf("  cuBLAS dense : %9.2f us  (%.1f TFLOPS)\n",
              dense.total() * 1e6, gpumodel::tflops(dense, g.flops()));
  std::printf("  Spatha %zu:%zu:%zu : %9.2f us  -> %.2fx speedup "
              "(theoretical cap %.1fx)\n",
              fmt.v, fmt.n, fmt.m, sparse.total() * 1e6,
              dense.total() / sparse.total(),
              double(fmt.m) / (2.0 * double(fmt.n)) * 2.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "compress") return cmd_compress(args);
    if (cmd == "decompress") return cmd_decompress(args);
    if (cmd == "quantize") return cmd_quantize(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "spmm") return cmd_spmm(args);
    if (cmd == "energy") return cmd_energy(args);
    if (cmd == "autotune") return cmd_autotune(args);
    if (cmd == "tune") return cmd_tune(args);
    if (cmd == "tune-engine") return cmd_tune_engine(args);
    if (cmd == "model") return cmd_model(args);
    if (cmd == "backends") return cmd_backends(args);
    if (cmd == "serve-bench") return cmd_serve_bench(args);
    if (cmd == "route-bench") return cmd_route_bench(args);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "finetune-bench") return cmd_finetune_bench(args);
  } catch (const venom::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
