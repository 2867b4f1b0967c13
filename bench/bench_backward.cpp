// Backward-pass kernel throughput: the transposed SpMM (input gradient)
// and the masked SDDMM (weight gradient) against their scalar oracles,
// plus a whole sparse Linear::backward step.
//
// Measurement discipline: each fast/oracle pair is interleaved
// (oracle -> fast -> oracle -> fast, medians of the pairs) so drift on a
// busy single-core machine cancels out of the reported speedups.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ops/ops.hpp"
#include "pruning/policies.hpp"
#include "spatha/sddmm.hpp"
#include "spatha/spmm.hpp"
#include "transformer/linear.hpp"

namespace {

using namespace venom;

constexpr std::size_t kR = 256;   // weight rows (output features)
constexpr std::size_t kK = 512;   // weight cols (input features)
constexpr std::size_t kC = 128;   // tokens
constexpr int kPairs = 5;         // interleaved A/B samples per record

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Interleaves two timed closures and returns their median
/// seconds-per-call (baseline first).
template <typename Base, typename Fast>
std::pair<double, double> interleaved(Base&& base, Fast&& fast) {
  std::vector<double> base_s, fast_s;
  for (int i = 0; i < kPairs; ++i) {
    base_s.push_back(bench::seconds_per_call(base, 0.05));
    fast_s.push_back(bench::seconds_per_call(fast, 0.05));
  }
  return {median(base_s), median(fast_s)};
}

}  // namespace

int main() {
  bench::banner("Backward-pass kernels",
                "transposed SpMM + masked SDDMM vs scalar oracles, "
                "sparse Linear::backward");
  Rng rng = Rng::seeded("bench-backward");
  const HalfMatrix w =
      pruning::synthetic_bert_weight(kR, kK, rng, 0.15, 4.0f, 0.05f);
  const HalfMatrix grad_y = random_half_matrix(kR, kC, rng, 0.05f);
  const HalfMatrix x = random_half_matrix(kK, kC, rng, 0.5f);
  const HalfMatrix xt = transpose(x);

  // The calls Linear::backward makes, on the global context's pool and
  // scratch with its config for the R x K x tokens problem.
  ops::ExecContext& ctx = ops::ExecContext::global();
  bench::header({"kernel", "vnm", "GFLOP/s", "oracle", "speedup"});
  for (const VnmConfig fmt : {VnmConfig{64, 2, 8}, VnmConfig{128, 2, 16}}) {
    const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);
    const spatha::SpmmConfig cfg = ctx.select_config(fmt, kR, kK, kC);

    // dL/dx = W^T dL/dy.
    {
      const double flops = spatha::spmm_flops(a, kC);
      const auto [base_s, fast_s] = interleaved(
          [&] { return spatha::spmm_vnm_transposed_scalar(a, grad_y); },
          [&] {
            return spatha::spmm_vnm_transposed(a, grad_y, cfg, &ctx.pool());
          });
      bench::cell("spmm_vnm_t");
      bench::cell(std::to_string(fmt.v) + ":" + std::to_string(fmt.n) + ":" +
                  std::to_string(fmt.m));
      bench::cell(flops / fast_s / 1e9);
      bench::cell(flops / base_s / 1e9);
      bench::cell(base_s / fast_s, "%.2fx");
      bench::endrow();
    }

    // dL/dW = (dL/dy x^T) masked to the pattern.
    {
      const double flops = spatha::sddmm_flops(a, kC);
      const auto [base_s, fast_s] = interleaved(
          [&] { return spatha::sddmm_vnm_scalar(a, grad_y, xt); },
          [&] {
            return spatha::sddmm_vnm(a, grad_y, xt, cfg, &ctx.pool(),
                                     &ctx.scratch());
          });
      bench::cell("sddmm_vnm");
      bench::cell(std::to_string(fmt.v) + ":" + std::to_string(fmt.n) + ":" +
                  std::to_string(fmt.m));
      bench::cell(flops / fast_s / 1e9);
      bench::cell(flops / base_s / 1e9);
      bench::cell(base_s / fast_s, "%.2fx");
      bench::endrow();
    }
  }

  // A whole sparse backward step (input + weight + bias gradients)
  // through the layer the fine-tune loop drives.
  {
    transformer::Linear layer(w, std::vector<float>(kR, 0.0f));
    layer.sparsify({64, 2, 8});
    FloatMatrix gy(kR, kC);
    Rng gy_rng = Rng::seeded("bench-backward-grad");
    for (std::size_t i = 0; i < gy.size(); ++i)
      gy.flat()[i] = 0.05f * gy_rng.normal();
    const double s = bench::seconds_per_call(
        [&] { return layer.backward(x, gy); }, 0.2);
    std::printf("\nlinear backward (sparse 64:2:8): %.3f ms per step\n",
                s * 1e3);
  }
  return 0;
}
