#include "transformer/latency_model.hpp"

namespace venom::transformer {

namespace {

using gpumodel::DeviceSpec;
using gpumodel::GemmShape;
using gpumodel::KernelCost;

/// Time of one weight GEMM (out x in x tokens), dense or Spatha.
double weight_gemm(const DeviceSpec& dev, std::size_t out, std::size_t in,
                   std::size_t tokens, const std::optional<VnmConfig>& sp) {
  const GemmShape g{out, in, tokens};
  if (sp.has_value()) return gpumodel::spatha_spmm(dev, g, *sp).total();
  return gpumodel::cublas_gemm(dev, g).total();
}

}  // namespace

ops::TimingBreakdown model_encoder_latency(const DeviceSpec& dev,
                                           const ModelConfig& cfg,
                                           std::size_t batch,
                                           std::optional<VnmConfig> sparse,
                                           std::size_t layer_count) {
  const std::size_t layers = layer_count == 0 ? cfg.layers : layer_count;
  const std::size_t tokens = batch * cfg.seq_len;
  const std::size_t dh = cfg.head_dim();

  ops::TimingBreakdown lat;

  // Linear-layer GEMMs: WQ, WK, WV, WO (hidden x hidden) and the two FFN
  // projections. These are the SpMM conversion sites of Fig. 14.
  double gemms = 0.0;
  gemms += 4.0 * weight_gemm(dev, cfg.hidden, cfg.hidden, tokens, sparse);
  gemms += weight_gemm(dev, cfg.ffn_hidden, cfg.hidden, tokens, sparse);
  gemms += weight_gemm(dev, cfg.hidden, cfg.ffn_hidden, tokens, sparse);
  lat.gemm_s = gemms * double(layers);

  // Attention matmuls stay dense: QK^T and PV, each a batch*heads batched
  // GEMM of (seq x dh x seq). Each instance is costed at its true shape —
  // the short inner dimension dh keeps batched attention well below peak
  // GEMM efficiency — with one launch for the whole batch.
  const GemmShape per_head{cfg.seq_len, dh, cfg.seq_len};
  const KernelCost head_cost = gpumodel::cublas_gemm(dev, per_head);
  const double per_matmul =
      (head_cost.total() - head_cost.overhead_s) * double(cfg.heads * batch) +
      head_cost.overhead_s;
  lat.attn_matmul_s = 2.0 * per_matmul * double(layers);

  // Softmax: read + write the (batch*heads*seq*seq) score tensor plus the
  // reduction pass — ~6 bytes per element in fp16.
  const double score_elems =
      double(batch) * cfg.heads * cfg.seq_len * cfg.seq_len;
  lat.softmax_s =
      gpumodel::elementwise(dev, 6.0 * score_elems).total() * double(layers);

  // Others: bias adds, residuals, two LayerNorms, GELU, dropout — each a
  // bandwidth pass over the activation tensors.
  const double act_bytes = 2.0 * double(tokens) * cfg.hidden;
  const double ffn_bytes = 2.0 * double(tokens) * cfg.ffn_hidden;
  // ~6 activation-sized passes + 2 FFN-sized passes per layer.
  lat.other_s =
      (gpumodel::elementwise(dev, 6.0 * act_bytes).total() +
       gpumodel::elementwise(dev, 2.0 * ffn_bytes).total()) *
      double(layers);
  return lat;
}

double model_gemm_time(const DeviceSpec& dev, const ModelConfig& cfg,
                       std::size_t batch, std::optional<VnmConfig> sparse,
                       std::size_t layer_count) {
  return model_encoder_latency(dev, cfg, batch, sparse, layer_count).gemm_s;
}

}  // namespace venom::transformer
