// Regenerates Fig. 15: end-to-end LLM inference latency with Spatha.
// BERT-large (bs=32), GPT2-large (bs=8), GPT-3 single encoder (bs=1);
// dense vs {64,128}:2:{8,16,32}. Latency broken into GEMMs, attention
// matmuls, softmax, and others, as in the paper's stacked bars.
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "transformer/latency_model.hpp"

using namespace venom;
using namespace venom::gpumodel;
using namespace venom::transformer;

namespace {

void panel(const DeviceSpec& dev, const ModelConfig& cfg, std::size_t batch,
           std::size_t v, std::size_t layer_count) {
  std::printf("\n%s, bs=%zu  (%zu layer%s, V=%zu)\n", cfg.name.c_str(), batch,
              layer_count == 0 ? cfg.layers : layer_count,
              (layer_count == 0 ? cfg.layers : layer_count) == 1 ? "" : "s",
              v);
  bench::header({"sparsity", "GEMMs", "matmul", "softmax", "others", "total",
                 "speedup", "gemm-red"});
  const ops::TimingBreakdown dense =
      model_encoder_latency(dev, cfg, batch, std::nullopt, layer_count);
  const auto row = [&](const char* label, const ops::TimingBreakdown& lat) {
    bench::cell(label);
    bench::cell(lat.gemm_s * 1e3, "%.1f");
    bench::cell(lat.attn_matmul_s * 1e3, "%.1f");
    bench::cell(lat.softmax_s * 1e3, "%.1f");
    bench::cell(lat.other_s * 1e3, "%.1f");
    bench::cell(lat.total() * 1e3, "%.1f");
    bench::cell(dense.total() / lat.total());
    bench::cell(dense.gemm_s / lat.gemm_s);
    bench::endrow();
  };
  row("dense", dense);
  for (std::size_t m : {8u, 16u, 32u}) {
    const std::string label =
        std::to_string(v) + ":2:" + std::to_string(m);
    row(label.c_str(),
        model_encoder_latency(dev, cfg, batch, VnmConfig{v, 2, m},
                              layer_count));
  }
}

}  // namespace

int main() {
  bench::banner("Figure 15 — end-to-end LLM inference latency (ms)",
                "modeled RTX 3090; GPT-3 measured as a single encoder "
                "(as in the paper)");
  const DeviceSpec& dev = rtx3090();
  // Top row of Fig. 15: V = 64; bottom row: V = 128 (BERT-large).
  for (std::size_t v : {64u, 128u}) {
    panel(dev, bert_large(), 32, v, 0);
    panel(dev, gpt2_large(), 8, v, 0);
    panel(dev, gpt3_175b(), 1, v, 1);  // single encoder fits one GPU
  }
  std::printf(
      "\nExpected shape (paper): GEMM share of latency grows from BERT to\n"
      "GPT-3 (~80%%); GEMM time reduction reaches ~10-11x at 2:32; GPT-3\n"
      "encoder end-to-end improves up to ~3.2x.\n");
  return 0;
}
