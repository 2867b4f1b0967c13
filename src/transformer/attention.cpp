#include "transformer/attention.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "ops/ops.hpp"
#include "transformer/kv_cache.hpp"
#include "transformer/ops.hpp"

namespace venom::transformer {

MultiHeadAttention::MultiHeadAttention(std::size_t hidden, std::size_t heads,
                                       Rng& rng, bool causal)
    : hidden_(hidden), heads_(heads), causal_(causal),
      wq_(Linear::random(hidden, hidden, rng)),
      wk_(Linear::random(hidden, hidden, rng)),
      wv_(Linear::random(hidden, hidden, rng)),
      wo_(Linear::random(hidden, hidden, rng)) {
  VENOM_CHECK_MSG(hidden % heads == 0, "hidden " << hidden
                                                 << " not divisible by heads "
                                                 << heads);
}

void MultiHeadAttention::sparsify(VnmConfig cfg) {
  wq_.sparsify(cfg);
  wk_.sparsify(cfg);
  wv_.sparsify(cfg);
  wo_.sparsify(cfg);
}

void MultiHeadAttention::set_dynamic_score_sparsity(
    std::optional<NmPattern> pattern) {
  if (pattern.has_value()) {
    VENOM_CHECK_MSG((pattern->n == 2 && pattern->m == 4) ||
                        (pattern->n == 1 && pattern->m == 2),
                    "dynamic attention supports the hardware patterns 2:4 "
                    "and 1:2, got "
                        << pattern->n << ':' << pattern->m);
  }
  score_pattern_ = pattern;
}

namespace {

/// DFSS-style dynamic pruning: keeps the N largest probabilities per
/// group of M and renormalizes each row to unit mass. `p` is a row-major
/// (rows x cols) probability matrix. Returns the pruned probabilities as
/// an N:M compressed matrix.
NmMatrix prune_probabilities(const float* p, std::size_t rows,
                             std::size_t cols, NmPattern pattern) {
  VENOM_CHECK_MSG(cols % pattern.m == 0,
                  "sequence length " << cols << " not divisible by M="
                                     << pattern.m);
  HalfMatrix pruned(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = p + i * cols;
    // Select per group; probabilities are non-negative so magnitude
    // selection is just "largest".
    for (std::size_t g = 0; g < cols / pattern.m; ++g) {
      // Insertion-select the top n of the group (n is 1 or 2).
      std::size_t best = g * pattern.m;
      for (std::size_t c = 1; c < pattern.m; ++c)
        if (row[g * pattern.m + c] > row[best]) best = g * pattern.m + c;
      pruned(i, best) = half_t(row[best]);
      if (pattern.n == 2) {
        std::size_t second = best == g * pattern.m ? g * pattern.m + 1
                                                   : g * pattern.m;
        for (std::size_t c = 0; c < pattern.m; ++c) {
          const std::size_t col = g * pattern.m + c;
          if (col != best && row[col] > row[second]) second = col;
        }
        pruned(i, second) = half_t(row[second]);
      }
    }
    // Renormalize the surviving mass.
    float sum = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) sum += pruned(i, c).to_float();
    if (sum > 0.0f) {
      const float inv = 1.0f / sum;
      for (std::size_t c = 0; c < cols; ++c)
        if (!pruned(i, c).is_zero())
          pruned(i, c) = half_t(pruned(i, c).to_float() * inv);
    }
  }
  return NmMatrix::compress(pruned, pattern);
}

/// Runs fn(), adding its wall time to timing->attn_matmul_s when
/// timing is non-null.
template <typename Fn>
void timed(TimingBreakdown* timing, Fn&& fn) {
  if (timing == nullptr) {
    fn();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  timing->attn_matmul_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

}  // namespace

HalfMatrix MultiHeadAttention::forward(const HalfMatrix& x,
                                       TimingBreakdown* timing,
                                       ops::ExecContext* ctx) const {
  const std::size_t end = x.cols();
  return forward_batched(x, std::span<const std::size_t>(&end, 1), timing,
                         ctx);
}

HalfMatrix MultiHeadAttention::forward_batched(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    TimingBreakdown* timing, ops::ExecContext* call_ctx) const {
  VENOM_CHECK(x.rows() == hidden_);
  VENOM_CHECK_MSG(!seq_ends.empty() && seq_ends.back() == x.cols(),
                  "sequence ends must cover all " << x.cols() << " tokens");
  if (x.cols() == 0) {
    // Zero tokens: attention over nothing is nothing (what the pre-batched
    // forward() returned for an empty activation).
    return HalfMatrix(hidden_, 0);
  }
  for (std::size_t i = 0; i + 1 < seq_ends.size(); ++i)
    VENOM_CHECK_MSG(seq_ends[i] < seq_ends[i + 1],
                    "sequence ends must be strictly increasing");
  VENOM_CHECK_MSG(seq_ends.front() > 0, "empty leading sequence");
  const std::size_t dh = hidden_ / heads_;

  // The projections are token-wise: one SpMM over the whole packed batch
  // (the weight-stationary reuse serving is after). Every output column
  // depends only on its own input column, so per-sequence bits match the
  // unbatched pass.
  const HalfMatrix q = wq_.forward(x, timing, call_ctx);
  const HalfMatrix k = wk_.forward(x, timing, call_ctx);
  const HalfMatrix v = wv_.forward(x, timing, call_ctx);

  ops::ExecContext& ctx = ops::resolve(call_ctx, ctx_);
  auto scratch = ctx.attn_scratch().acquire();
  AttentionCore core(heads_, dh, causal_, attn_window_,
                     AttentionCore::packed(seq_ends, *scratch), *scratch);
  core.load(q, k, v, ctx.pool(), timing);
  core.probabilities(ctx.pool(), timing);

  HalfMatrix context(hidden_, x.cols());
  if (!score_pattern_.has_value()) {
    core.context(context, ctx.pool(), timing);
    return wo_.forward(context, timing, call_ctx);
  }

  // Dynamic N:M attention: context^T = P_nm * V^T per (head, sequence),
  // dispatched through the ops layer, which selects the register-blocked
  // N:M fast path (bit-identical to the spmm_24 baseline).
  timed(timing, [&] {
    for (std::size_t h = 0; h < heads_; ++h) {
      std::size_t s0 = 0;
      for (std::size_t s = 0; s < seq_ends.size(); ++s) {
        const std::size_t ts = seq_ends[s] - s0;
        const NmMatrix p_nm =
            prune_probabilities(core.probs(h, s), ts, ts, *score_pattern_);
        HalfMatrix vt(ts, dh);
        for (std::size_t j = 0; j < ts; ++j)
          for (std::size_t d = 0; d < dh; ++d)
            vt(j, d) = v(h * dh + d, s0 + j);
        const FloatMatrix ctx_t =
            ops::matmul(ops::MatmulArgs::make(p_nm, vt), ctx);
        for (std::size_t d = 0; d < dh; ++d)
          for (std::size_t i = 0; i < ts; ++i)
            context(h * dh + d, s0 + i) = half_t(ctx_t(i, d));
        s0 = seq_ends[s];
      }
    }
  });
  return wo_.forward(context, timing, call_ctx);
}

HalfMatrix MultiHeadAttention::forward_cached(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    std::span<KvCache* const> caches, std::size_t layer,
    TimingBreakdown* timing, ops::ExecContext* call_ctx) const {
  VENOM_CHECK_MSG(causal_, "forward_cached requires a causal attention "
                           "block (a KV cache is a decode structure)");
  VENOM_CHECK_MSG(!score_pattern_.has_value(),
                  "dynamic N:M attention is incompatible with a KV cache "
                  "(pruning depends on the whole probability row)");
  VENOM_CHECK(x.rows() == hidden_);
  VENOM_CHECK_MSG(!seq_ends.empty() && seq_ends.back() == x.cols(),
                  "sequence ends must cover all " << x.cols() << " tokens");
  VENOM_CHECK_MSG(caches.size() == seq_ends.size(),
                  "one KvCache per sequence: got " << caches.size()
                                                   << " caches for "
                                                   << seq_ends.size()
                                                   << " sequences");
  for (std::size_t i = 0; i + 1 < seq_ends.size(); ++i)
    VENOM_CHECK_MSG(seq_ends[i] < seq_ends[i + 1],
                    "sequence ends must be strictly increasing");
  VENOM_CHECK_MSG(seq_ends.front() > 0, "empty leading sequence");
  // Sequence s's new tokens at positions [p0, p0 + n) attend, with the
  // windowed causal mask of the full forward, the keys [lo, p0 + n),
  // lo = max(0, p0 + 1 - w), read in place from the ring where they are
  // resident. A one-token (decode) item appends first and reads its whole
  // window [lo, p0] from the ring: the slot it overwrites held p0 - w,
  // outside the window. A longer (prefill) chunk reads the resident
  // [lo, p0) and its own keys from its panel, and appends only after the
  // core has run: its first queries still see keys its later tokens
  // evict. Every cache is checked before any is appended to, so a
  // rejected batch leaves all of them as they were.
  ops::ExecContext& ctx = ops::resolve(call_ctx, ctx_);
  auto scratch = ctx.attn_scratch().acquire();
  scratch->reset();
  auto* seqs = scratch->alloc<AttentionCore::Seq>(seq_ends.size());
  std::size_t s0 = 0;
  for (std::size_t s = 0; s < seq_ends.size(); ++s) {
    VENOM_CHECK_MSG(caches[s] != nullptr, "null KvCache for sequence " << s);
    const KvCache& cache = *caches[s];
    VENOM_CHECK_MSG(cache.hidden() == hidden_ && cache.heads() == heads_ &&
                        layer < cache.layers(),
                    "KvCache shape (" << cache.layers() << " layers, hidden "
                                      << cache.hidden() << ", "
                                      << cache.heads()
                                      << " heads) does not fit layer "
                                      << layer << " of hidden " << hidden_
                                      << ", " << heads_ << " heads");
    VENOM_CHECK_MSG(attn_window_ == 0 || cache.capacity() == attn_window_,
                    "attention window " << attn_window_
                                        << " != KvCache capacity "
                                        << cache.capacity()
                                        << " (the ring must hold exactly "
                                           "the window)");
    const std::size_t p0 = cache.layer_length(layer);
    const std::size_t n = seq_ends[s] - s0;
    VENOM_CHECK_MSG(attn_window_ != 0 || p0 + n <= cache.capacity(),
                    "KV cache overflow at position "
                        << cache.capacity() << " (capacity "
                        << cache.capacity()
                        << "): set an attention window to serve "
                           "sequences longer than the ring");
    const std::size_t lo =
        attn_window_ != 0 && p0 + 1 > attn_window_ ? p0 + 1 - attn_window_ : 0;
    seqs[s] = AttentionCore::Seq{s0, n, p0 - lo + n, {}};
    s0 = seq_ends[s];
  }

  // Projections over the whole packed batch — the same single SpMM per
  // weight as forward_batched, and the columns land bit-identically
  // because Linear's outputs are column-independent.
  const HalfMatrix q = wq_.forward(x, timing, call_ctx);
  const HalfMatrix k = wk_.forward(x, timing, call_ctx);
  const HalfMatrix v = wv_.forward(x, timing, call_ctx);

  const auto append = [&](bool decode) {
    timed(timing, [&] {
      for (std::size_t s = 0; s < seq_ends.size(); ++s)
        if ((seqs[s].queries == 1) == decode)
          caches[s]->append(layer, k, v, seqs[s].col, seqs[s].queries);
    });
  };
  append(/*decode=*/true);
  for (std::size_t s = 0; s < seq_ends.size(); ++s) {
    AttentionCore::Seq& seq = seqs[s];
    const std::size_t resident =
        seq.queries == 1 ? seq.keys : seq.keys - seq.queries;
    const std::size_t end = caches[s]->layer_length(layer);
    if (resident > 0)
      seq.resident = caches[s]->window(layer, end - resident, resident);
  }
  AttentionCore core(heads_, hidden_ / heads_, /*causal=*/true, attn_window_,
                     {seqs, seq_ends.size()}, *scratch);
  core.load(q, k, v, ctx.pool(), timing);
  core.probabilities(ctx.pool(), timing);
  HalfMatrix context(hidden_, x.cols());
  core.context(context, ctx.pool(), timing);
  append(/*decode=*/false);
  return wo_.forward(context, timing, call_ctx);
}

FloatMatrix MultiHeadAttention::backward(const HalfMatrix& x,
                                         const FloatMatrix& grad_out,
                                         MhaGrads* grads) const {
  const std::size_t end = x.cols();
  return backward_batched(x, std::span<const std::size_t>(&end, 1), grad_out,
                          grads);
}

FloatMatrix MultiHeadAttention::backward_batched(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    const FloatMatrix& grad_out, MhaGrads* grads) const {
  VENOM_CHECK(x.rows() == hidden_);
  VENOM_CHECK(grad_out.rows() == hidden_ && grad_out.cols() == x.cols());
  VENOM_CHECK_MSG(!seq_ends.empty() && seq_ends.back() == x.cols(),
                  "sequence ends must cover all " << x.cols() << " tokens");
  VENOM_CHECK_MSG(!score_pattern_.has_value(),
                  "dynamic N:M attention has no backward (the top-N "
                  "selection is not differentiable)");
  const std::size_t dh = hidden_ / heads_;
  const float scale = 1.0f / std::sqrt(float(dh));
  MhaGrads local;
  MhaGrads& g = grads != nullptr ? *grads : local;

  // Recompute the projections (activation recomputation), then the
  // per-(head, sequence) probability matrices and the packed context —
  // the context is wo's forward input, which its backward needs.
  const HalfMatrix q = wq_.forward(x);
  const HalfMatrix k = wk_.forward(x);
  const HalfMatrix v = wv_.forward(x);

  std::vector<FloatMatrix> probs;  // one per (head, sequence), pass order
  probs.reserve(heads_ * seq_ends.size());
  HalfMatrix context(hidden_, x.cols());
  {
    ops::ExecContext& ctx = ops::resolve(nullptr, ctx_);
    auto scratch = ctx.attn_scratch().acquire();
    AttentionCore core(heads_, dh, causal_, attn_window_,
                       AttentionCore::packed(seq_ends, *scratch), *scratch);
    core.load(q, k, v, ctx.pool(), nullptr);
    core.probabilities(ctx.pool(), nullptr);
    core.context(context, ctx.pool(), nullptr);
    for (std::size_t h = 0; h < heads_; ++h) {
      std::size_t s0 = 0;
      for (std::size_t s = 0; s < seq_ends.size(); ++s) {
        const std::size_t ts = seq_ends[s] - s0;
        FloatMatrix p(ts, ts);
        std::copy(core.probs(h, s), core.probs(h, s) + ts * ts,
                  p.flat().begin());
        probs.push_back(std::move(p));
        s0 = seq_ends[s];
      }
    }
  }

  // Output projection backward: grad_context flows into the per-head
  // attention backward below.
  g.wo = wo_.backward(context, grad_out);
  const FloatMatrix& grad_context = g.wo.input;

  FloatMatrix grad_q(hidden_, x.cols());
  FloatMatrix grad_k(hidden_, x.cols());
  FloatMatrix grad_v(hidden_, x.cols());
  std::size_t pi = 0;
  for (std::size_t h = 0; h < heads_; ++h) {
    std::size_t s0 = 0;
    for (const std::size_t s1 : seq_ends) {
      const std::size_t ts = s1 - s0;
      const FloatMatrix& p = probs[pi++];

      // ctx(d, i) = sum_j P(i, j) V(d, j):
      //   dL/dP(i, j) = sum_d gctx(d, i) V(d, j)
      //   dL/dV(d, j) = sum_i gctx(d, i) P(i, j)
      FloatMatrix grad_p(ts, ts);
      for (std::size_t i = 0; i < ts; ++i)
        for (std::size_t j = 0; j < ts; ++j) {
          float acc = 0.0f;
          for (std::size_t d = 0; d < dh; ++d)
            acc += grad_context(h * dh + d, s0 + i) *
                   v(h * dh + d, s0 + j).to_float();
          grad_p(i, j) = acc;
        }
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t j = 0; j < ts; ++j) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < ts; ++i)
            acc += grad_context(h * dh + d, s0 + i) * p(i, j);
          grad_v(h * dh + d, s0 + j) += acc;
        }

      // Softmax backward per query row: dS = P ⊙ (dP − <dP, P>). Masked
      // (causal) entries carry P = 0, so their gradient vanishes without
      // special-casing.
      FloatMatrix grad_s(ts, ts);
      for (std::size_t i = 0; i < ts; ++i) {
        float dot = 0.0f;
        for (std::size_t j = 0; j < ts; ++j) dot += grad_p(i, j) * p(i, j);
        for (std::size_t j = 0; j < ts; ++j)
          grad_s(i, j) = p(i, j) * (grad_p(i, j) - dot);
      }

      // scores(i, j) = scale * sum_d q(d, i) k(d, j):
      //   dL/dq(d, i) = scale * sum_j dS(i, j) k(d, j)
      //   dL/dk(d, j) = scale * sum_i dS(i, j) q(d, i)
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t i = 0; i < ts; ++i) {
          float acc = 0.0f;
          for (std::size_t j = 0; j < ts; ++j)
            acc += grad_s(i, j) * k(h * dh + d, s0 + j).to_float();
          grad_q(h * dh + d, s0 + i) += scale * acc;
        }
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t j = 0; j < ts; ++j) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < ts; ++i)
            acc += grad_s(i, j) * q(h * dh + d, s0 + i).to_float();
          grad_k(h * dh + d, s0 + j) += scale * acc;
        }
      s0 = s1;
    }
  }

  // Projection backwards (sparse ops when the projections are pruned);
  // the input gradient sums the three branches that consume x.
  g.wq = wq_.backward(x, grad_q);
  g.wk = wk_.backward(x, grad_k);
  g.wv = wv_.backward(x, grad_v);
  FloatMatrix grad_x = add(add(g.wq.input, g.wk.input), g.wv.input);
  return grad_x;
}

void MultiHeadAttention::apply_gradients(const MhaGrads& g, float lr) {
  wq_.apply_gradients(g.wq, lr);
  wk_.apply_gradients(g.wk, lr);
  wv_.apply_gradients(g.wv, lr);
  wo_.apply_gradients(g.wo, lr);
}

}  // namespace venom::transformer
