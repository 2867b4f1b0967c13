// Modeled GPU inference latency for transformer encoders (Fig. 15).
//
// The paper times BERT / GPT2-large / a single GPT-3 encoder on the RTX
// 3090 and reports latency broken into GEMMs, attention matmuls, softmax,
// and "others". This module reproduces that breakdown analytically: each
// linear layer's GEMM is costed with gpumodel::cublas_gemm (dense) or
// gpumodel::spatha_spmm (V:N:M), attention matmuls with the dense model,
// and softmax/others with the bandwidth model.
#pragma once

#include <optional>

#include "format/vnm.hpp"
#include "gpumodel/kernel_models.hpp"
#include "ops/timing.hpp"
#include "transformer/config.hpp"

namespace venom::transformer {

/// Models `layer_count` encoder layers (0 = cfg.layers) at the given
/// batch size: the per-class latency (seconds) of a full forward pass, in
/// the record the CPU forward pass fills. If `sparse` is set, every
/// linear weight runs through Spatha at that V:N:M configuration;
/// otherwise dense cuBLAS.
ops::TimingBreakdown model_encoder_latency(const gpumodel::DeviceSpec& dev,
                                           const ModelConfig& cfg,
                                           std::size_t batch,
                                           std::optional<VnmConfig> sparse,
                                           std::size_t layer_count = 0);

/// GEMM-only time (the "tensor contraction" the paper quotes 10-11x on).
double model_gemm_time(const gpumodel::DeviceSpec& dev,
                       const ModelConfig& cfg, std::size_t batch,
                       std::optional<VnmConfig> sparse,
                       std::size_t layer_count = 0);

}  // namespace venom::transformer
