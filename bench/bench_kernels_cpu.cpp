// Google-benchmark harness over the real CPU kernels: dense GEMM,
// Spatha V:N:M SpMM, 2:4 SpMM, CSR SpMM, CVSE SpMM.
//
// These are wall-clock measurements of this library's own kernels (not
// the GPU model): they demonstrate that the V:N:M format delivers real
// speedups proportional to sparsity on the CPU implementation too — the
// who-wins ordering of Fig. 13 holds for the executable code in this
// repository, not just for the analytical model.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "baselines/gemm.hpp"
#include "baselines/spmm_24.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ops/ops.hpp"
#include "pruning/policies.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/plan.hpp"
#include "spatha/spmm.hpp"

namespace {

using namespace venom;

constexpr std::size_t kR = 256;
constexpr std::size_t kK = 512;
constexpr std::size_t kC = 128;

HalfMatrix weight() {
  Rng rng(1);
  return random_half_matrix(kR, kK, rng, 0.05f);
}

HalfMatrix activations() {
  Rng rng(2);
  return random_half_matrix(kK, kC, rng, 0.05f);
}

void BM_DenseGemm(benchmark::State& state) {
  const HalfMatrix a = weight();
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetItemsProcessed(state.iterations());
  state.counters["flops"] = gemm_flops(kR, kK, kC);
}
BENCHMARK(BM_DenseGemm)->Unit(benchmark::kMillisecond);

void BM_SpathaVnm(benchmark::State& state) {
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  // A fingerprinted weight, as a serving layer holds it: the context
  // packs it once, so the timed calls run the kernel alone.
  const auto a = std::make_shared<const VnmMatrix>(
      VnmMatrix::from_dense_magnitude(weight(), cfg));
  const std::uint64_t fp = spatha::weight_fingerprint(*a);
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, fp, b)));
  state.SetLabel("64:2:" + std::to_string(m) + " (" +
                 std::to_string(int(cfg.sparsity() * 100)) + "% sparse)");
}
BENCHMARK(BM_SpathaVnm)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_SpathaVnmScalar(benchmark::State& state) {
  // The seed's element-at-a-time path, kept as the perf baseline for the
  // packed float-panel pipeline.
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(weight(), cfg);
  const HalfMatrix b = activations();
  // Dispatch would pick vnm-fast; pin the backend this bench measures.
  const ops::ScopedBackend forced("vnm-scalar");
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel("64:2:" + std::to_string(m) + " seed scalar path");
}
BENCHMARK(BM_SpathaVnmScalar)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SpathaVnmInt8(benchmark::State& state) {
  // Pre-quantized weight through the dispatch layer: measures the packed
  // int8 panel pipeline (int32 accumulate, scale epilogue), not the
  // one-time quantization cost.
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  const auto a = std::make_shared<const quant::QuantizedVnmMatrix>(
      quant::QuantizedVnmMatrix::quantize(
          VnmMatrix::from_dense_magnitude(weight(), cfg)));
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel("64:2:" + std::to_string(m) + " int8");
}
BENCHMARK(BM_SpathaVnmInt8)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_SpathaVnmFp8(benchmark::State& state) {
  // The fp8 weight with its packed decode built once (as an fp8
  // transformer::Linear holds it): measures the packed kernels, not the
  // per-weight decode and pack.
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  const auto a = std::make_shared<const quant::Fp8VnmMatrix>(
      quant::Fp8VnmMatrix::quantize(
          VnmMatrix::from_dense_magnitude(weight(), cfg), Fp8Format::kE4M3));
  const HalfMatrix b = activations();
  ops::MatmulArgs args = ops::MatmulArgs::make(a, b);
  args.vnm_packed =
      std::make_shared<const spatha::PackedVnm>(quant::pack_decoded(*a));
  for (auto _ : state) benchmark::DoNotOptimize(ops::matmul(args));
  state.SetLabel("64:2:" + std::to_string(m) + " fp8-e4m3");
}
BENCHMARK(BM_SpathaVnmFp8)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Spmm24(benchmark::State& state) {
  const NmMatrix a = NmMatrix::from_dense_magnitude(weight(), {2, 4});
  const HalfMatrix b = activations();
  // Dispatch would pick the register-blocked nm backend, so the 2:4
  // baseline this bench measures is called directly.
  ThreadPool& pool = ops::ExecContext::global().pool();
  for (auto _ : state) benchmark::DoNotOptimize(spmm_24(a, b, &pool));
  state.SetLabel("2:4 (cuSparseLt-style)");
}
BENCHMARK(BM_Spmm24)->Unit(benchmark::kMillisecond);

void BM_SpmmCsr(benchmark::State& state) {
  const double sparsity = double(state.range(0)) / 100.0;
  const CsrMatrix a =
      CsrMatrix::from_dense(pruning::prune_unstructured(weight(), sparsity));
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel(std::to_string(state.range(0)) + "% unstructured (Sputnik-style)");
}
BENCHMARK(BM_SpmmCsr)->Arg(50)->Arg(75)->Arg(90)->Arg(95)
    ->Unit(benchmark::kMillisecond);

void BM_SpmmCvse(benchmark::State& state) {
  const double sparsity = double(state.range(0)) / 100.0;
  const CvseMatrix a =
      CvseMatrix::from_dense_magnitude(weight(), 8, 1.0 - sparsity);
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel(std::to_string(state.range(0)) + "% vw_8 (CLASP-style)");
}
BENCHMARK(BM_SpmmCvse)->Arg(50)->Arg(75)->Arg(90)
    ->Unit(benchmark::kMillisecond);

void BM_VnmCompression(benchmark::State& state) {
  const HalfMatrix w = weight();
  const VnmConfig cfg{64, 2, std::size_t(state.range(0))};
  for (auto _ : state)
    benchmark::DoNotOptimize(VnmMatrix::from_dense_magnitude(w, cfg));
  state.SetLabel("compress 64:2:" + std::to_string(state.range(0)));
}
BENCHMARK(BM_VnmCompression)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

using venom::bench::seconds_per_call;

/// Measures the packed float-panel pipeline against the seed scalar path
/// on the Table-1 bench shape, with the int8/fp8 paths beside it.
void print_fast_vs_seed() {
  const HalfMatrix b = activations();
  std::printf("SpMM fast-vs-seed (R%zux K%zu x C%zu):\n", kR, kK, kC);
  for (const VnmConfig cfg : {VnmConfig{64, 2, 8}, VnmConfig{128, 2, 16}}) {
    const auto shared = std::make_shared<const VnmMatrix>(
        VnmMatrix::from_dense_magnitude(weight(), cfg));
    const VnmMatrix& a = *shared;
    const double flops = spatha::spmm_flops(a, kC);
    const ops::MatmulArgs fast_args = ops::MatmulArgs::make(
        shared, spatha::weight_fingerprint(a), b);
    const ops::MatmulArgs seed_args = ops::MatmulArgs::make(a, b);
    const double fast_s = seconds_per_call(
        [&] { benchmark::DoNotOptimize(ops::matmul(fast_args)); });
    const double seed_s = seconds_per_call([&] {
      const ops::ScopedBackend forced("vnm-scalar");
      benchmark::DoNotOptimize(ops::matmul(seed_args));
    });
    const std::string shape = "R" + std::to_string(kR) + "xK" +
                              std::to_string(kK) + "xC" + std::to_string(kC) +
                              " " + std::to_string(cfg.v) + ":" +
                              std::to_string(cfg.n) + ":" +
                              std::to_string(cfg.m);
    std::printf("  %-24s %7.2f GFLOP/s  (seed %5.2f GFLOP/s, speedup %.2fx)\n",
                shape.c_str(), flops / fast_s * 1e-9, flops / seed_s * 1e-9,
                seed_s / fast_s);

    // Reduced-precision rows on the same shape: pre-quantized weights
    // through the dispatch layer, ratios against the same seed run so
    // they compare directly with the fp16 rows above.
    const auto qa = std::make_shared<const quant::QuantizedVnmMatrix>(
        quant::QuantizedVnmMatrix::quantize(a));
    const ops::MatmulArgs qargs = ops::MatmulArgs::make(qa, b);
    const double i8_s = seconds_per_call(
        [&] { benchmark::DoNotOptimize(ops::matmul(qargs)); });
    std::printf("  %-24s %7.2f GFLOP/s  (%.2fx over fp16 fast)\n",
                (shape + " int8").c_str(), flops / i8_s * 1e-9, fast_s / i8_s);

    const auto fa = std::make_shared<const quant::Fp8VnmMatrix>(
        quant::Fp8VnmMatrix::quantize(a, Fp8Format::kE4M3));
    ops::MatmulArgs fargs = ops::MatmulArgs::make(fa, b);
    fargs.vnm_packed =
        std::make_shared<const spatha::PackedVnm>(quant::pack_decoded(*fa));
    const double f8_s = seconds_per_call(
        [&] { benchmark::DoNotOptimize(ops::matmul(fargs)); });
    std::printf("  %-24s %7.2f GFLOP/s  (%.2fx over fp16 fast)\n",
                (shape + " fp8").c_str(), flops / f8_s * 1e-9, fast_s / f8_s);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The fast-vs-seed measurement runs only on a bare invocation; flagged
  // runs (--benchmark_filter, --benchmark_list_tests, --help, ...) go
  // straight to google-benchmark.
  if (argc == 1) print_fast_vs_seed();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
