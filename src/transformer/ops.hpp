// Elementwise / normalization / attention-matmul operators.
//
// Activations flow as HalfMatrix with shape (features x tokens): the
// token dimension lies along columns, so a linear layer is exactly the
// paper's SpMM (sparse weight R x K times dense activation K x C).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "ops/timing.hpp"
#include "tensor/matrix.hpp"

namespace venom::ops {
class ExecContext;
}  // namespace venom::ops

namespace venom::transformer {

/// Row-wise softmax in place (each row is one attention query's scores):
/// fmath::softmax_n over each row, so its bits and its summation order
/// are fmath's. A matrix with no rows or no columns is left as it is.
void softmax_rows(FloatMatrix& scores);

// gelu, add, layer_norm and add_layer_norm: bulk-converted,
// pool-parallel kernels over common/lanes.hpp.
//
// Shape. gelu and add process fixed flat chunks of 2048 elements: each
// chunk converts its fp16 inputs with half_to_float_n, applies the
// per-element expression in lane registers, and rounds back with
// float_to_half_n. layer_norm processes fixed blocks of 128 columns
// (tokens), one lane per column: a block sweeps the rows f in ascending
// order three times (mean, variance, normalize), converting each row's
// segment of the block. Its columns run as whole registers of the
// widest lane type, then of 8 lanes, then one at a time: the widths the
// bulk converters store, so no lane load waits on a store-forwarding
// stall and a decode step's few columns compute no idle lanes.
// add_layer_norm is the same block body with a residual: the block
// first rounds fp16(x + y) into the output's columns, and the sweeps
// read the sum there, so the sum never exists as a matrix of its own
// and the encoder pays one allocation and one dispatch per norm instead
// of two.
//
// Threading. Chunks and column blocks run on ops::resolve(ctx).pool()
// via parallel_for_chunks, which counts an element as 16 multiply-adds
// for its inline rule: an op over fewer than 2^14 elements runs on the
// caller, so a decode step of a few sessions pays no dispatch. (On a
// 4-vCPU AVX-512 VM that delivers about one core, add_layer_norm at 256
// x {16, 64, 256, 1024} ran 10-19, 16-26, 42-45 and 179-186 us inline
// against 10-19, 16-26, 56-71 and 214-231 us on 2 or 4 workers: no
// crossover to move the weight to.) The chunk size, block width and
// element weight are fixed constants, not options. `ctx` works as in
// Linear::forward: the encoder passes the context its linear layers run
// on; nullptr means ExecContext::global().
//
// Bits. Every output element keeps the scalar loop's expression:
// fp16(x + y), fp16(fmath::gelu(v)), and per column the mean and
// variance summed over f ascending (var = fma(d, d, var) with d = v -
// mean), each divided by float(rows), then fp16(fma((v - mean) * inv,
// gamma[f], beta[f])) with inv = 1 / sqrt(var + eps). Every multiply-add
// is an explicit fma and this file is compiled with -ffp-contract=off,
// so the bits do not depend on the compiler's contraction; lanes are
// independent elements and threads only partition elements or columns,
// so neither the lane width nor the block width nor the thread count
// changes a bit. float_to_half_n rounds exactly as half_t(float), NaN
// included. Results are therefore bit-identical to the per-element
// to_float / half_t loops (with std::fma spelled as above) at any
// thread count. gelu's chunks run fmath::gelu_n, which is bit-identical
// to the scalar fmath::gelu on every input and at every position. gelu
// calls no libm function, and layer_norm's std::sqrt is IEEE-exact, so
// no bit depends on the host's libm.

/// LayerNorm over the feature dimension of (features x tokens), per
/// token (column), with scale gamma and shift beta (size = features).
HalfMatrix layer_norm(const HalfMatrix& x, std::span<const float> gamma,
                      std::span<const float> beta, float eps = 1e-5f,
                      ops::ExecContext* ctx = nullptr);

/// layer_norm(add(x, y), gamma, beta, eps) bit for bit, in one pass over
/// column blocks: the sum is rounded to fp16 per element inside a block
/// and never stored as a matrix of its own.
HalfMatrix add_layer_norm(const HalfMatrix& x, const HalfMatrix& y,
                          std::span<const float> gamma,
                          std::span<const float> beta, float eps = 1e-5f,
                          ops::ExecContext* ctx = nullptr);

/// GELU (tanh approximation) applied element-wise.
HalfMatrix gelu(const HalfMatrix& x, ops::ExecContext* ctx = nullptr);

/// x + y element-wise (residual connection).
HalfMatrix add(const HalfMatrix& x, const HalfMatrix& y,
               ops::ExecContext* ctx = nullptr);

/// dst[i] = m(r0 + i, c).to_float() for i in [0, n): one column's rows,
/// gathered in blocks and converted with half_to_float_n.
void column_to_float(const HalfMatrix& m, std::size_t c, std::size_t r0,
                     std::size_t n, float* dst);

/// Adds a per-feature bias to (features x tokens).
void add_bias(FloatMatrix& x, std::span<const float> bias);

/// scores(Tq x Tk) = Qh^T Kh * scale, with Qh, Kh of shape (dh x T):
/// each score chains std::fma over d ascending, then scales. Scalar
/// reference for AttentionCore (tests compare against it).
FloatMatrix attention_scores(const HalfMatrix& qh, const HalfMatrix& kh,
                             float scale);

/// context(dh x Tq) = Vh * P^T, with P(Tq x Tk) probabilities, Vh(dh x Tk):
/// each element chains std::fma over keys ascending, then rounds once to
/// fp16. Scalar reference for AttentionCore.
HalfMatrix attention_context(const FloatMatrix& p, const HalfMatrix& vh);

/// The multi-head attention core over packed sequences: scores, mask,
/// softmax and context for every (head, sequence) of one call. It is the
/// one kernel behind MultiHeadAttention's batched forward, its KV-cached
/// forward and its backward's recompute.
///
/// Operands. With dh = head_dim, keys and values are float operands in
/// one layout per head h: K rows [h][d][key] (row d holds feature d of
/// every key) and V^T rows [h][key][d] (one key's values). A KeySpan is
/// `count` consecutive keys in that layout with K row stride `stride`:
/// head h's K row d starts at k + (h * dh + d) * stride and its V^T row
/// of key j at vt + (h * stride + j) * dh. A sequence's m keys are at
/// most three spans, in ascending key order: its `resident` spans, read
/// in place (a KV ring's window, KvCache::window), then its own panel,
/// which holds the remaining keys, its own last tokens.
///
/// Panels. Per sequence with n queries and `own` = m - resident keys of
/// its own, the call's ScratchArena holds float panels for every head:
///   Q    [h][d][query]    head rows of the query projection
///   K    [h][d][key]      its own keys (a KeySpan of stride `own`)
///   V^T  [h][key][d]      its own values, transposed
///   P    [h][query][key]  scores, then probabilities (masked entries 0)
/// plus one staging row per head. Step 1 (load) converts the queries'
/// and the own keys' fp16 rows once, with half_to_float_n; a decode step
/// (one query, every key resident) converts only its query. Step 2
/// (probabilities) computes scores in register strips over keys, eight
/// vector registers of accumulators each: four query rows of two
/// registers, or a lone row (a decode query) of eight. Then it runs
/// fmath::softmax_n, softmax_rows' row function, over each row's
/// unmasked span. Step 3 (context) accumulates strips over d the same
/// way, carrying a strip's accumulators from span to span in ascending
/// key order. It converts each finished strip with float_to_half_n and
/// writes context(h*dh + d, col + i) for the strip's query rows as one
/// store of consecutive tokens per d.
///
/// Tasks. Load runs one task per (head, sequence); steps 2 and 3 run one
/// task per (head, sequence, block of 32 query rows), on the pool via
/// parallel_for_chunks. Every step passes the call's score work (n*m*dh
/// summed over heads and sequences) to the pool's inline rule, so a
/// decode step pays no dispatch. The three steps are timed separately:
/// load, scores and context add to attn_matmul_s, softmax to softmax_s.
///
/// Bits. Every output element keeps the scalar oracles' expression and
/// accumulation order: a score is (q*k chained through fma over d
/// ascending) * scale, a probability is softmax_rows' sequence over the
/// row, and a context element is p*v chained through fma over keys
/// ascending, rounded once to fp16 (float_to_half_n rounds as half_t,
/// NaN included). Every multiply-add is an explicit fma over
/// common/lanes.hpp, as in attention_scores and attention_context, so
/// the bits do not depend on the compiler's contraction; lanes are
/// independent elements, spans only cut a strip short and never reorder
/// a sum, and threads only partition rows. The result therefore equals
/// attention_scores + causal/window mask + softmax_rows +
/// attention_context bit for bit, at any thread count and for any split
/// of the keys into spans. Masked keys are skipped: the reference adds
/// their exact-zero probabilities, which leaves any finite sum
/// unchanged.
///
/// Mask. With `causal`, query r of a sequence sits at key m - n + r (its
/// own position; earlier keys come from a KV cache) and sees keys up to
/// it. A nonzero `window` also hides keys more than window - 1 behind.
class AttentionCore {
 public:
  /// `count` keys read in place, in the layout described above.
  struct KeySpan {
    const float* k = nullptr;
    const float* vt = nullptr;
    std::size_t stride = 0;
    std::size_t count = 0;
  };

  /// One packed sequence: `queries` tokens at output columns
  /// [col, col + queries), attending `keys` keys: first the `resident`
  /// spans' keys, oldest first, then the last keys - resident of its own
  /// tokens, which load() converts into its panel.
  struct Seq {
    std::size_t col = 0;
    std::size_t queries = 0;
    std::size_t keys = 0;
    std::array<KeySpan, 2> resident{};
  };

  /// Resets `arena` and lays out one Seq per packed sequence of
  /// seq_ends (exclusive end columns), each attending its own tokens.
  static std::span<const Seq> packed(std::span<const std::size_t> seq_ends,
                                     ScratchArena& arena);

  /// Lays out the panels in `arena`, after whatever the caller allocated
  /// there since its reset(). The arena keeps its high-water block, so a
  /// repeated call shape allocates nothing. The resident spans must stay
  /// valid and unchanged until the last step has run.
  AttentionCore(std::size_t heads, std::size_t head_dim, bool causal,
                std::size_t window, std::span<const Seq> seqs,
                ScratchArena& arena);

  /// Step 1 from packed (hidden x T) projections: every sequence's
  /// queries, and the keys of its own it does not read in place.
  void load(const HalfMatrix& q, const HalfMatrix& k, const HalfMatrix& v,
            ThreadPool& pool, ops::TimingBreakdown* timing);
  /// Step 2: masked scores, then softmax.
  void probabilities(ThreadPool& pool, ops::TimingBreakdown* timing);
  /// Head h, sequence s's (queries x keys) row-major probabilities.
  const float* probs(std::size_t h, std::size_t s) const;
  /// Step 3: context(h*dh + d, col + i) for every head and sequence.
  void context(HalfMatrix& out, ThreadPool& pool,
               ops::TimingBreakdown* timing) const;

 private:
  struct Layout {
    std::size_t col, n, m;  // Seq
    std::size_t own;        // keys in its own panel
    std::size_t panels;     // float offset of its Q, K, V^T, staging
    std::size_t scores;     // float offset of its P in each head
    std::size_t block0;     // its first row block among all sequences'
    std::array<KeySpan, 3> spans;  // resident spans, then its own panel
  };
  struct Task {
    const Layout& seq;
    std::size_t h, r0, r1;  // query rows [r0, r1)
  };

  float* q_panel(std::size_t h, const Layout& seq) const;
  float* p_panel(std::size_t h, const Layout& seq) const;
  /// Keys [lo, hi) that query row r of `seq` sees.
  std::pair<std::size_t, std::size_t> live(const Layout& seq,
                                           std::size_t r) const;
  Task task(std::size_t t) const;
  void load_task(std::size_t h, const Layout& seq, const HalfMatrix& q,
                 const HalfMatrix& k, const HalfMatrix& v);
  void score_task(const Task& t);
  void softmax_task(const Task& t);
  void context_task(const Task& t, HalfMatrix& out) const;

  std::size_t heads_, dh_;
  bool causal_;
  std::size_t window_;
  std::span<Layout> seqs_;
  std::size_t blocks_ = 0;        // row blocks per head
  std::size_t head_scores_ = 0;   // floats of P per head
  float* panels_ = nullptr;       // every sequence's panels
  float* scores_ = nullptr;       // heads_ * head_scores_
  std::size_t work_ = 0;          // score multiply-adds, every head
};

// ------------------------------------------------------------- backward
//
// Gradients of the elementwise / normalization operators above, for the
// sparse-training loop (fp32 gradient domain; the forward's fp16
// rounding is treated as identity, the standard mixed-precision
// convention).

/// x + y element-wise over fp32 gradients.
FloatMatrix add(const FloatMatrix& x, const FloatMatrix& y);

/// Backward of layer_norm over the *pre-normalization* input `x`: given
/// upstream dL/dy, returns dL/dx and accumulates dL/dgamma and dL/dbeta
/// (both size = features; callers zero them first).
FloatMatrix layer_norm_backward(const HalfMatrix& x,
                                std::span<const float> gamma,
                                const FloatMatrix& grad_y,
                                std::span<float> dgamma,
                                std::span<float> dbeta, float eps = 1e-5f);

/// Backward of the tanh-approximated GELU: dL/dx = dL/dy * gelu'(x).
FloatMatrix gelu_backward(const HalfMatrix& x, const FloatMatrix& grad_y);

}  // namespace venom::transformer
