// Tuned-vs-heuristic throughput on the Table-1 bench shape.
//
// Runs the empirical autotuner (gpumodel::autotune_measured) on the same
// problems bench_kernels_cpu measures and reports tuned and heuristic
// GFLOP/s.
//
// Doubles as the CI parity gate: the tuner bit-compares the winning
// configuration's output against spmm_vnm_reference (and this bench
// additionally checks the heuristic config), exiting non-zero on any
// mismatch.
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "gpumodel/autotune.hpp"
#include "ops/ops.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/spmm.hpp"

namespace {

using namespace venom;

constexpr std::size_t kR = 256;
constexpr std::size_t kK = 512;
constexpr std::size_t kC = 128;

bool bit_identical(const FloatMatrix& a, const FloatMatrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

int main() {
  bench::banner("Empirical autotuning — tuned vs heuristic dispatch",
                "spmm_vnm on R256 x K512 x C128, features: " +
                    cpu_feature_string());

  Rng rng_w(1), rng_b(2);
  const HalfMatrix w = random_half_matrix(kR, kK, rng_w, 0.05f);
  const HalfMatrix b = random_half_matrix(kK, kC, rng_b, 0.05f);

  bench::header({"V:N:M", "heuristic", "tuned", "gain%", "parity"});

  int failures = 0;
  for (const VnmConfig fmt : {VnmConfig{64, 2, 8}, VnmConfig{128, 2, 16}}) {
    const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);
    gpumodel::MeasureOptions opts;
    opts.verify = true;  // bit-compares the winner against the reference
    gpumodel::MeasuredResult tuned;
    try {
      tuned = gpumodel::autotune_measured(a, b, {}, opts);
    } catch (const Error& e) {
      std::fprintf(stderr, "autotune parity failure: %s\n", e.what());
      return 1;
    }

    // The heuristic config must agree with the reference bit-for-bit
    // too (explicit config through the ops dispatcher).
    ops::MatmulArgs margs = ops::MatmulArgs::make(a, b);
    margs.config = &tuned.heuristic.config;
    const bool parity =
        bit_identical(ops::matmul(margs), spatha::spmm_vnm_reference(a, b));
    if (!parity) ++failures;
    // (best >= heuristic holds by construction — the heuristic is in the
    // measured set — so there is no slower-than-heuristic gate here.)

    const std::string vnm = std::to_string(fmt.v) + ":" +
                            std::to_string(fmt.n) + ":" +
                            std::to_string(fmt.m);
    bench::cell(vnm);
    bench::cell(tuned.heuristic.gflops);
    bench::cell(tuned.best.gflops);
    bench::cell((tuned.best.gflops / tuned.heuristic.gflops - 1.0) * 100.0,
                "%.1f");
    bench::cell(parity ? "ok" : "FAIL");
    bench::endrow();
    std::printf("    tuned:     %s\n", tuned.best.config.describe().c_str());
    std::printf("    heuristic: %s\n",
                tuned.heuristic.config.describe().c_str());
  }

  // The int8 datapath, tuned the same way: autotune_measured on
  // Dtype::kI8 measures quant::spmm_vnm_i8, seeds from the int8
  // heuristic, and bit-compares the winner against spmm_vnm_i8_scalar
  // (integer accumulation — the fp16 reference would be the wrong
  // oracle). The explicit heuristic-config parity check mirrors the fp16
  // rows, through the vnm-int8 dispatch path.
  {
    const VnmConfig fmt{64, 2, 8};
    const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);
    const quant::QuantizedVnmMatrix qa = quant::QuantizedVnmMatrix::quantize(a);
    gpumodel::MeasureOptions opts;
    opts.verify = true;
    opts.dtype = ops::Dtype::kI8;
    gpumodel::MeasuredResult tuned;
    try {
      tuned = gpumodel::autotune_measured(a, b, {}, opts);
    } catch (const Error& e) {
      std::fprintf(stderr, "int8 autotune parity failure: %s\n", e.what());
      return 1;
    }

    ops::MatmulArgs margs = ops::MatmulArgs::make(qa, b);
    margs.config = &tuned.heuristic.config;
    const bool parity = bit_identical(
        ops::matmul(margs),
        quant::spmm_vnm_i8_scalar(qa, b, tuned.heuristic.config.column_loc));
    if (!parity) ++failures;

    bench::cell("64:2:8 i8");
    bench::cell(tuned.heuristic.gflops);
    bench::cell(tuned.best.gflops);
    bench::cell((tuned.best.gflops / tuned.heuristic.gflops - 1.0) * 100.0,
                "%.1f");
    bench::cell(parity ? "ok" : "FAIL");
    bench::endrow();
    std::printf("    tuned:     %s\n", tuned.best.config.describe().c_str());
    std::printf("    heuristic: %s\n",
                tuned.heuristic.config.describe().c_str());
  }

  return failures == 0 ? 0 : 1;
}
