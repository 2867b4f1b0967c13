// Multi-head self-attention (the pruned MHA of Fig. 14).
//
// The four weight projections (WQ, WK, WV, WO) are Linear layers whose
// weights can be sparsified to V:N:M — the SpMM conversions of Fig. 14.
// The scores/softmax/context path stays dense by default, as in the
// paper; set_dynamic_score_sparsity() additionally enables DFSS-style
// dynamic N:M attention [Chen et al., PPoPP'23 — the paper's ref. 6]:
// after softmax, each probability row is pruned to the hardware 2:4 (or
// 1:2) pattern and the context matmul runs through the register-blocked
// sparse fast path (spatha::spmm_nm, bit-identical to the spmm_24
// baseline it replaced).
//
// forward_batched() evaluates several independent sequences packed along
// the token axis in one pass: the projections are token-wise (one big
// SpMM over the whole batch — the serving hot path), while the
// scores/softmax/context stage is evaluated per sequence so tokens never
// attend across request boundaries. Each sequence's output is
// bit-identical to running it through forward() alone.
//
// That stage is one kernel, AttentionCore (transformer/ops.hpp), for the
// batched forward, the KV-cached forward and the backward's recompute.
// It reads each sequence's keys as float K / V^T spans: the batched
// forward converts each head's Q, K and V rows into per-sequence panels
// once (V transposed); the cached forward reads the KV ring's window in
// place (KvCache holds it in the same layout) and converts only the new
// tokens. Scores and context run in register strips, with one pool task
// per (head, sequence, block of 32 query rows); small calls such as a
// decode step run inline. Each output element keeps the scalar oracles'
// fma chain, so the bits equal attention_scores + mask + softmax_rows +
// attention_context at any thread count.
#pragma once

#include <optional>
#include <span>

#include "format/nm.hpp"
#include "transformer/config.hpp"
#include "transformer/linear.hpp"

namespace venom::transformer {

class KvCache;

/// Parameter gradients of one attention block (the four projections).
struct MhaGrads {
  Linear::Grads wq, wk, wv, wo;
};

/// Multi-head self-attention over (hidden x tokens) activations.
class MultiHeadAttention {
 public:
  MultiHeadAttention() = default;
  /// `causal` enables the decoder-style mask: position i attends only to
  /// positions <= i (GPT models).
  MultiHeadAttention(std::size_t hidden, std::size_t heads, Rng& rng,
                     bool causal = false);

  /// Sparsifies all four projection weights to V:N:M.
  void sparsify(VnmConfig cfg);

  /// Attaches a shared execution context to all four projections and to
  /// the dynamic-attention SpMM dispatch (see Linear::set_exec_context).
  void set_exec_context(ops::ExecContext* ctx) {
    ctx_ = ctx;
    wq_.set_exec_context(ctx);
    wk_.set_exec_context(ctx);
    wv_.set_exec_context(ctx);
    wo_.set_exec_context(ctx);
  }

  /// Switches all four projection weights to the given storage precision
  /// (see Linear::set_weight_dtype; requires sparsified projections for
  /// the reduced dtypes).
  void set_weight_dtype(ops::Dtype dtype) {
    wq_.set_weight_dtype(dtype);
    wk_.set_weight_dtype(dtype);
    wv_.set_weight_dtype(dtype);
    wo_.set_weight_dtype(dtype);
  }

  /// Enables (or, with nullopt, disables) dynamic N:M pruning of the
  /// attention probabilities. Only the hardware patterns 2:4 and 1:2 are
  /// accepted (they are what mma.sp executes); the sequence length must
  /// divide M at forward time. Probability rows are renormalized after
  /// pruning so each query still distributes unit mass.
  void set_dynamic_score_sparsity(std::optional<NmPattern> pattern);
  std::optional<NmPattern> dynamic_score_sparsity() const {
    return score_pattern_;
  }

  /// Bounds the causal mask to a sliding window: query i attends to keys
  /// [max(0, i + 1 - w), i]. 0 (the default) is the unbounded causal
  /// mask. Only meaningful with `causal`; this is the full-forward twin
  /// of the KV ring's capacity — forward_cached over a ring of capacity
  /// w computes exactly this mask, bit for bit.
  void set_attention_window(std::size_t w) { attn_window_ = w; }
  std::size_t attention_window() const { return attn_window_; }

  HalfMatrix forward(const HalfMatrix& x, TimingBreakdown* timing = nullptr,
                     ops::ExecContext* ctx = nullptr) const;

  /// Incremental forward against per-sequence KV rings: projects the
  /// packed new tokens (one token per sequence when decoding, a prompt
  /// chunk when prefilling), appends each token's K/V to its cache at
  /// `layer`, and attends every query against the cached window only,
  /// read in place from the ring. A one-token item appends before the
  /// attention core runs, a longer chunk after it; every cache is
  /// validated before the first append, so a call that throws on a
  /// cache's shape leaves every cache as it was. The appends bill to
  /// timing->attn_matmul_s.
  /// Because the ring holds exactly the sliding window the causal mask
  /// admits, the output is bit-identical to forward_batched over the
  /// full accumulated sequence (masked terms contribute exact zeros and
  /// the live terms accumulate in the same order). Requires `causal`;
  /// incompatible with dynamic score sparsity. When an attention window
  /// is set each cache's capacity must equal it; with window 0 the
  /// sequence must fit the capacity (overflow throws rather than
  /// silently truncating history).
  HalfMatrix forward_cached(const HalfMatrix& x,
                            std::span<const std::size_t> seq_ends,
                            std::span<KvCache* const> caches,
                            std::size_t layer,
                            TimingBreakdown* timing = nullptr,
                            ops::ExecContext* ctx = nullptr) const;

  /// Batched forward over independent sequences packed along the token
  /// axis. `seq_ends` holds the exclusive end column of each sequence in
  /// ascending order; the last entry must equal x.cols() (so {T} is
  /// exactly forward()). Attention is masked to each [start, end) span.
  /// `ctx` overrides the attached context for this call (ops::resolve),
  /// so a const-shared attention block can serve replica-private contexts.
  HalfMatrix forward_batched(const HalfMatrix& x,
                             std::span<const std::size_t> seq_ends,
                             TimingBreakdown* timing = nullptr,
                             ops::ExecContext* ctx = nullptr) const;

  /// Backward pass: recomputes the forward intermediates (activation
  /// recomputation — no state is kept between passes), then
  /// differentiates context/softmax/scores per (head, sequence) and
  /// routes all four projection backwards through Linear::backward (the
  /// sparse ops when projections are pruned). Returns dL/dx; fills
  /// `grads` when non-null. Dynamic score sparsity has no backward —
  /// throws if enabled.
  FloatMatrix backward(const HalfMatrix& x, const FloatMatrix& grad_out,
                       MhaGrads* grads = nullptr) const;
  FloatMatrix backward_batched(const HalfMatrix& x,
                               std::span<const std::size_t> seq_ends,
                               const FloatMatrix& grad_out,
                               MhaGrads* grads = nullptr) const;

  /// SGD step over all four projections (see Linear::apply_gradients).
  void apply_gradients(const MhaGrads& g, float lr);

  std::size_t hidden() const { return hidden_; }
  std::size_t heads() const { return heads_; }
  bool causal() const { return causal_; }
  Linear& wq() { return wq_; }
  Linear& wk() { return wk_; }
  Linear& wv() { return wv_; }
  Linear& wo() { return wo_; }

 private:
  std::size_t hidden_ = 0;
  std::size_t heads_ = 0;
  bool causal_ = false;
  std::size_t attn_window_ = 0;  // 0 = unbounded causal mask
  std::optional<NmPattern> score_pattern_;
  ops::ExecContext* ctx_ = nullptr;  // not owned; nullptr = global()
  Linear wq_, wk_, wv_, wo_;
};

}  // namespace venom::transformer
