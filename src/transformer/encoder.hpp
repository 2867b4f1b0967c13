// Transformer encoder layer and stack.
//
// Standard post-LN encoder: x -> MHA -> +residual -> LN -> FFN ->
// +residual -> LN. All six weight matrices per layer can be sparsified to
// V:N:M, which reroutes their GEMMs through Spatha (Fig. 14).
#pragma once

#include <vector>

#include "transformer/attention.hpp"
#include "transformer/config.hpp"
#include "transformer/kv_cache.hpp"

namespace venom::transformer {

/// Parameter gradients of one encoder layer.
struct EncoderLayerGrads {
  MhaGrads mha;
  Linear::Grads ffn_in, ffn_out;
  std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
};

/// One encoder layer (MHA + FFN + two LayerNorms).
class EncoderLayer {
 public:
  EncoderLayer() = default;
  EncoderLayer(const ModelConfig& cfg, Rng& rng);

  /// Sparsifies all linear weights (4 attention + 2 FFN) to V:N:M.
  void sparsify(VnmConfig cfg);

  /// Enables DFSS-style dynamic N:M pruning of attention probabilities.
  void set_dynamic_score_sparsity(std::optional<NmPattern> pattern) {
    mha_.set_dynamic_score_sparsity(pattern);
  }

  /// Attaches a shared execution context to all six linear layers and
  /// the attention dispatch (see Linear::set_exec_context).
  void set_exec_context(ops::ExecContext* ctx) {
    mha_.set_exec_context(ctx);
    ffn_in_.set_exec_context(ctx);
    ffn_out_.set_exec_context(ctx);
  }

  /// Switches all six linear weights to the given storage precision (see
  /// Linear::set_weight_dtype).
  void set_weight_dtype(ops::Dtype dtype) {
    mha_.set_weight_dtype(dtype);
    ffn_in_.set_weight_dtype(dtype);
    ffn_out_.set_weight_dtype(dtype);
  }

  /// Sliding-window size for the causal mask (see
  /// MultiHeadAttention::set_attention_window).
  void set_attention_window(std::size_t w) { mha_.set_attention_window(w); }
  std::size_t attention_window() const { return mha_.attention_window(); }

  HalfMatrix forward(const HalfMatrix& x, TimingBreakdown* timing = nullptr,
                     ops::ExecContext* ctx = nullptr) const;

  /// Batched forward over sequences packed along the token axis (see
  /// MultiHeadAttention::forward_batched). LayerNorm / FFN / residuals
  /// are token-wise, so only attention needs the boundaries. `ctx`
  /// overrides the attached context for this call (ops::resolve).
  HalfMatrix forward_batched(const HalfMatrix& x,
                             std::span<const std::size_t> seq_ends,
                             TimingBreakdown* timing = nullptr,
                             ops::ExecContext* ctx = nullptr) const;

  /// Incremental forward against per-sequence KV rings at stack index
  /// `layer` (see MultiHeadAttention::forward_cached). Only attention
  /// touches the cache; LN/FFN/residuals are token-wise, so the new
  /// tokens' outputs are bit-identical to the full forward's columns.
  HalfMatrix forward_cached(const HalfMatrix& x,
                            std::span<const std::size_t> seq_ends,
                            std::span<KvCache* const> caches,
                            std::size_t layer,
                            TimingBreakdown* timing = nullptr,
                            ops::ExecContext* ctx = nullptr) const;

  /// Backward pass given the layer's forward input and upstream dL/dout.
  /// Recomputes the forward intermediates, differentiates both LayerNorm
  /// / residual / GELU stages, and routes the six linear backwards
  /// through Linear::backward (sparse ops when pruned). Returns dL/dx;
  /// fills `grads` when non-null.
  FloatMatrix backward(const HalfMatrix& x, const FloatMatrix& grad_out,
                       EncoderLayerGrads* grads = nullptr) const;
  FloatMatrix backward_batched(const HalfMatrix& x,
                               std::span<const std::size_t> seq_ends,
                               const FloatMatrix& grad_out,
                               EncoderLayerGrads* grads = nullptr) const;

  /// SGD step over the six linear layers and both LayerNorm affines.
  void apply_gradients(const EncoderLayerGrads& g, float lr);

  MultiHeadAttention& attention() { return mha_; }
  const MultiHeadAttention& attention() const { return mha_; }
  Linear& ffn_in() { return ffn_in_; }
  const Linear& ffn_in() const { return ffn_in_; }
  Linear& ffn_out() { return ffn_out_; }
  const Linear& ffn_out() const { return ffn_out_; }

 private:
  /// Everything after attention: LN1(x + attn) -> ffn_in -> gelu ->
  /// ffn_out -> LN2(h + ff2), with the elementwise ops timed into
  /// other_s. The three ops run on the linear layers' context.
  HalfMatrix post_attention(const HalfMatrix& x, const HalfMatrix& attn,
                            TimingBreakdown* timing,
                            ops::ExecContext* ctx) const;

  std::size_t hidden_ = 0;
  MultiHeadAttention mha_;
  Linear ffn_in_, ffn_out_;
  std::vector<float> ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
};

/// A stack of encoder layers.
class Encoder {
 public:
  /// Builds `layer_count` layers (defaults to cfg.layers when 0).
  Encoder(const ModelConfig& cfg, Rng& rng, std::size_t layer_count = 0);

  void sparsify(VnmConfig cfg);

  /// Applies dynamic N:M attention to every layer.
  void set_dynamic_score_sparsity(std::optional<NmPattern> pattern) {
    for (auto& layer : layers_) layer.set_dynamic_score_sparsity(pattern);
  }

  /// Attaches a shared execution context to every layer in the stack.
  void set_exec_context(ops::ExecContext* ctx) {
    for (auto& layer : layers_) layer.set_exec_context(ctx);
  }

  /// Runs the whole stack at the given weight precision (quantizes every
  /// sparsified linear layer's weight; see Linear::set_weight_dtype).
  void set_weight_dtype(ops::Dtype dtype) {
    for (auto& layer : layers_) layer.set_weight_dtype(dtype);
  }

  HalfMatrix forward(const HalfMatrix& x, TimingBreakdown* timing = nullptr,
                     ops::ExecContext* ctx = nullptr) const;

  /// Batched forward: every layer runs the packed batch with attention
  /// confined to each sequence's span. Per-sequence outputs are
  /// bit-identical to forward() on that sequence alone. `ctx` overrides
  /// the attached context for this call only — a const Encoder shared
  /// (shared_ptr-held) by N serving replicas stays immutable while each
  /// replica dispatches through its private ExecContext.
  HalfMatrix forward_batched(const HalfMatrix& x,
                             std::span<const std::size_t> seq_ends,
                             TimingBreakdown* timing = nullptr,
                             ops::ExecContext* ctx = nullptr) const;

  /// A cache sized for this stack: layer_count() layers of float K and
  /// V^T rings of `capacity` slots, laid out per head.
  KvCache make_cache(std::size_t capacity) const {
    return KvCache(layer_count(), cfg_.hidden, capacity, cfg_.heads);
  }

  /// Sliding-window size for every layer's causal mask; pair with
  /// make_cache(w) for bounded-memory decode of unbounded sequences.
  void set_attention_window(std::size_t w) {
    for (auto& layer : layers_) layer.set_attention_window(w);
  }
  std::size_t attention_window() const {
    return layers_.empty() ? 0 : layers_.front().attention_window();
  }

  /// Incremental batched forward: runs the packed new tokens through the
  /// stack, each layer appending to and attending against its slice of
  /// the per-sequence caches. Each sequence's output columns are
  /// bit-identical to forward() over its full accumulated sequence.
  /// Caches must be synchronized (all layers equally long) and sized for
  /// this stack.
  HalfMatrix forward_cached(const HalfMatrix& x,
                            std::span<const std::size_t> seq_ends,
                            std::span<KvCache* const> caches,
                            TimingBreakdown* timing = nullptr,
                            ops::ExecContext* ctx = nullptr) const;

  /// Fills `cache` from a prompt and returns the stack's output for
  /// every prompt position (single-sequence convenience over
  /// forward_cached).
  HalfMatrix prefill(const HalfMatrix& prompt, KvCache& cache,
                     TimingBreakdown* timing = nullptr,
                     ops::ExecContext* ctx = nullptr) const;

  /// One autoregressive step: x is the newest token's (hidden x 1)
  /// activation; returns its (hidden x 1) output, attending against the
  /// cached history.
  HalfMatrix decode_step(const HalfMatrix& x, KvCache& cache,
                         TimingBreakdown* timing = nullptr,
                         ops::ExecContext* ctx = nullptr) const;

  /// Backward through the whole stack: re-runs the forward to recover
  /// each layer's input, then chains EncoderLayer::backward in reverse.
  /// `grads`, when non-null, is resized to layer_count() (grads[i] holds
  /// layer i's parameter gradients). Returns dL/dx.
  FloatMatrix backward(const HalfMatrix& x, const FloatMatrix& grad_out,
                       std::vector<EncoderLayerGrads>* grads = nullptr) const;

  /// SGD step over every layer (grads as produced by backward()).
  void apply_gradients(const std::vector<EncoderLayerGrads>& grads, float lr);

  std::size_t layer_count() const { return layers_.size(); }
  EncoderLayer& layer(std::size_t i) { return layers_[i]; }
  const EncoderLayer& layer(std::size_t i) const { return layers_[i]; }
  const ModelConfig& config() const { return cfg_; }

 private:
  ModelConfig cfg_;
  std::vector<EncoderLayer> layers_;
};

}  // namespace venom::transformer
