#include "transformer/encoder.hpp"

#include <chrono>

#include "transformer/ops.hpp"

namespace venom::transformer {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<float> ones(std::size_t n) { return std::vector<float>(n, 1.0f); }
std::vector<float> zeros(std::size_t n) { return std::vector<float>(n, 0.0f); }

}  // namespace

EncoderLayer::EncoderLayer(const ModelConfig& cfg, Rng& rng)
    : hidden_(cfg.hidden),
      mha_(cfg.hidden, cfg.heads, rng, cfg.causal),
      ffn_in_(Linear::random(cfg.ffn_hidden, cfg.hidden, rng)),
      ffn_out_(Linear::random(cfg.hidden, cfg.ffn_hidden, rng)),
      ln1_gamma_(ones(cfg.hidden)), ln1_beta_(zeros(cfg.hidden)),
      ln2_gamma_(ones(cfg.hidden)), ln2_beta_(zeros(cfg.hidden)) {
  mha_.set_attention_window(cfg.attn_window);
}

void EncoderLayer::sparsify(VnmConfig cfg) {
  mha_.sparsify(cfg);
  ffn_in_.sparsify(cfg);
  ffn_out_.sparsify(cfg);
}

HalfMatrix EncoderLayer::forward(const HalfMatrix& x,
                                 TimingBreakdown* timing,
                                 ops::ExecContext* ctx) const {
  const std::size_t end = x.cols();
  return forward_batched(x, std::span<const std::size_t>(&end, 1), timing,
                         ctx);
}

HalfMatrix EncoderLayer::forward_batched(const HalfMatrix& x,
                                         std::span<const std::size_t> seq_ends,
                                         TimingBreakdown* timing,
                                         ops::ExecContext* ctx) const {
  const HalfMatrix attn = mha_.forward_batched(x, seq_ends, timing, ctx);
  return post_attention(x, attn, timing, ctx);
}

HalfMatrix EncoderLayer::forward_cached(const HalfMatrix& x,
                                        std::span<const std::size_t> seq_ends,
                                        std::span<KvCache* const> caches,
                                        std::size_t layer,
                                        TimingBreakdown* timing,
                                        ops::ExecContext* ctx) const {
  const HalfMatrix attn =
      mha_.forward_cached(x, seq_ends, caches, layer, timing, ctx);
  return post_attention(x, attn, timing, ctx);
}

HalfMatrix EncoderLayer::post_attention(const HalfMatrix& x,
                                        const HalfMatrix& attn,
                                        TimingBreakdown* timing,
                                        ops::ExecContext* ctx) const {
  // The context the linear layers resolve to (ops::resolve).
  ops::ExecContext* const run = ctx != nullptr ? ctx : ffn_in_.exec_context();
  constexpr float kEps = 1e-5f;

  auto t0 = std::chrono::steady_clock::now();
  HalfMatrix h = add_layer_norm(x, attn, ln1_gamma_, ln1_beta_, kEps, run);
  if (timing != nullptr) timing->other_s += seconds_since(t0);

  const HalfMatrix ff1 = ffn_in_.forward(h, timing, ctx);

  t0 = std::chrono::steady_clock::now();
  const HalfMatrix act = gelu(ff1, run);
  if (timing != nullptr) timing->other_s += seconds_since(t0);

  const HalfMatrix ff2 = ffn_out_.forward(act, timing, ctx);

  t0 = std::chrono::steady_clock::now();
  HalfMatrix out = add_layer_norm(h, ff2, ln2_gamma_, ln2_beta_, kEps, run);
  if (timing != nullptr) timing->other_s += seconds_since(t0);
  return out;
}

FloatMatrix EncoderLayer::backward(const HalfMatrix& x,
                                   const FloatMatrix& grad_out,
                                   EncoderLayerGrads* grads) const {
  const std::size_t end = x.cols();
  return backward_batched(x, std::span<const std::size_t>(&end, 1), grad_out,
                          grads);
}

FloatMatrix EncoderLayer::backward_batched(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    const FloatMatrix& grad_out, EncoderLayerGrads* grads) const {
  VENOM_CHECK(grad_out.rows() == hidden_ && grad_out.cols() == x.cols());
  EncoderLayerGrads local;
  EncoderLayerGrads& g = grads != nullptr ? *grads : local;
  g.ln1_gamma.assign(hidden_, 0.0f);
  g.ln1_beta.assign(hidden_, 0.0f);
  g.ln2_gamma.assign(hidden_, 0.0f);
  g.ln2_beta.assign(hidden_, 0.0f);

  // Recompute the forward intermediates (activation recomputation).
  const HalfMatrix attn = mha_.forward_batched(x, seq_ends);
  const HalfMatrix s1 = add(x, attn);
  const HalfMatrix h = layer_norm(s1, ln1_gamma_, ln1_beta_);
  const HalfMatrix ff1 = ffn_in_.forward(h);
  const HalfMatrix act = gelu(ff1);
  const HalfMatrix ff2 = ffn_out_.forward(act);
  const HalfMatrix s2 = add(h, ff2);

  // out = LN2(h + ff2): the residual feeds d_s2 both into the FFN
  // backward and straight through to h.
  const FloatMatrix d_s2 =
      layer_norm_backward(s2, ln2_gamma_, grad_out, g.ln2_gamma, g.ln2_beta);
  g.ffn_out = ffn_out_.backward(act, d_s2);
  const FloatMatrix d_ff1 = gelu_backward(ff1, g.ffn_out.input);
  g.ffn_in = ffn_in_.backward(h, d_ff1);
  const FloatMatrix d_h = add(d_s2, g.ffn_in.input);

  // h = LN1(x + attn): same residual split around the attention block.
  const FloatMatrix d_s1 =
      layer_norm_backward(s1, ln1_gamma_, d_h, g.ln1_gamma, g.ln1_beta);
  const FloatMatrix d_x_attn =
      mha_.backward_batched(x, seq_ends, d_s1, &g.mha);
  return add(d_s1, d_x_attn);
}

void EncoderLayer::apply_gradients(const EncoderLayerGrads& g, float lr) {
  mha_.apply_gradients(g.mha, lr);
  ffn_in_.apply_gradients(g.ffn_in, lr);
  ffn_out_.apply_gradients(g.ffn_out, lr);
  VENOM_CHECK(g.ln1_gamma.size() == hidden_ && g.ln2_gamma.size() == hidden_);
  for (std::size_t f = 0; f < hidden_; ++f) {
    ln1_gamma_[f] -= lr * g.ln1_gamma[f];
    ln1_beta_[f] -= lr * g.ln1_beta[f];
    ln2_gamma_[f] -= lr * g.ln2_gamma[f];
    ln2_beta_[f] -= lr * g.ln2_beta[f];
  }
}

Encoder::Encoder(const ModelConfig& cfg, Rng& rng, std::size_t layer_count)
    : cfg_(cfg) {
  const std::size_t n = layer_count == 0 ? cfg.layers : layer_count;
  layers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) layers_.emplace_back(cfg, rng);
}

void Encoder::sparsify(VnmConfig cfg) {
  for (auto& layer : layers_) layer.sparsify(cfg);
}

HalfMatrix Encoder::forward(const HalfMatrix& x, TimingBreakdown* timing,
                            ops::ExecContext* ctx) const {
  HalfMatrix h = x;
  for (const auto& layer : layers_) h = layer.forward(h, timing, ctx);
  return h;
}

HalfMatrix Encoder::forward_batched(const HalfMatrix& x,
                                    std::span<const std::size_t> seq_ends,
                                    TimingBreakdown* timing,
                                    ops::ExecContext* ctx) const {
  HalfMatrix h = x;
  for (const auto& layer : layers_)
    h = layer.forward_batched(h, seq_ends, timing, ctx);
  return h;
}

HalfMatrix Encoder::forward_cached(const HalfMatrix& x,
                                   std::span<const std::size_t> seq_ends,
                                   std::span<KvCache* const> caches,
                                   TimingBreakdown* timing,
                                   ops::ExecContext* ctx) const {
  for (const KvCache* cache : caches) {
    VENOM_CHECK_MSG(cache != nullptr && cache->layers() == layer_count(),
                    "each KvCache must hold one ring pair per encoder "
                    "layer (" << layer_count() << ")");
    VENOM_CHECK_MSG(cache->synchronized(),
                    "KvCache layers out of sync (a previous forward_cached "
                    "failed mid-stack; reset() the cache)");
  }
  HalfMatrix h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l)
    h = layers_[l].forward_cached(h, seq_ends, caches, l, timing, ctx);
  return h;
}

HalfMatrix Encoder::prefill(const HalfMatrix& prompt, KvCache& cache,
                            TimingBreakdown* timing,
                            ops::ExecContext* ctx) const {
  const std::size_t end = prompt.cols();
  KvCache* caches[] = {&cache};
  return forward_cached(prompt, std::span<const std::size_t>(&end, 1),
                        std::span<KvCache* const>(caches, 1), timing, ctx);
}

HalfMatrix Encoder::decode_step(const HalfMatrix& x, KvCache& cache,
                                TimingBreakdown* timing,
                                ops::ExecContext* ctx) const {
  VENOM_CHECK_MSG(x.cols() == 1,
                  "decode_step takes one token, got " << x.cols());
  return prefill(x, cache, timing, ctx);
}

FloatMatrix Encoder::backward(const HalfMatrix& x, const FloatMatrix& grad_out,
                              std::vector<EncoderLayerGrads>* grads) const {
  // Recover each layer's input by re-running the forward chain (the
  // memory-lean recomputation strategy; each layer recomputes its own
  // internals again in backward()).
  std::vector<HalfMatrix> inputs;
  inputs.reserve(layers_.size());
  HalfMatrix h = x;
  for (const auto& layer : layers_) {
    inputs.push_back(h);
    h = layer.forward(h);
  }
  std::vector<EncoderLayerGrads> local;
  std::vector<EncoderLayerGrads>& g = grads != nullptr ? *grads : local;
  g.clear();
  g.resize(layers_.size());
  FloatMatrix d = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;)
    d = layers_[i].backward(inputs[i], d, &g[i]);
  return d;
}

void Encoder::apply_gradients(const std::vector<EncoderLayerGrads>& grads,
                              float lr) {
  VENOM_CHECK(grads.size() == layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i)
    layers_[i].apply_gradients(grads[i], lr);
}

}  // namespace venom::transformer
