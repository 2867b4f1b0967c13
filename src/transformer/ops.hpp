// Elementwise / normalization / attention-matmul operators.
//
// Activations flow as HalfMatrix with shape (features x tokens): the
// token dimension lies along columns, so a linear layer is exactly the
// paper's SpMM (sparse weight R x K times dense activation K x C).
#pragma once

#include <cstddef>
#include <functional>
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

// gelu, add and layer_norm: bulk-converted, pool-parallel kernels.
//
// Shape. gelu and add process fixed flat chunks of 2048 elements: each
// chunk converts its fp16 inputs with half_to_float_n, applies the
// per-element expression in float, and rounds back with float_to_half_n.
// layer_norm processes fixed blocks of 32 columns (tokens): a block
// sweeps the rows f in ascending order with one mean and one variance
// accumulator per column, converting each row's 32-column segment.
//
// Threading. Chunks and column blocks run on ops::resolve(ctx).pool()
// via parallel_for_chunks, which counts an element as 16 multiply-adds
// for its inline rule: an op over fewer than 2^14 elements runs on the
// caller, so a decode step of a few sessions pays no dispatch (on a
// 4-vCPU AVX-512 Xeon the pool first won at 2^14 elements: gelu 32 us
// inline vs 18 us pooled; add broke even). The chunk size, block width
// and element weight are fixed constants, not options.
// `ctx` works as in Linear::forward: the encoder passes the context its
// linear layers run on; nullptr means ExecContext::global().
//
// Bits. Every output element keeps the scalar loop's expression:
// fp16(x + y), fp16(fmath::gelu(v)), and per column the mean and
// variance summed over f ascending, each divided by float(rows), then
// fp16((v - mean) * inv * gamma[f] + beta[f]) with inv = 1 / sqrt(var +
// eps). gelu's chunks run fmath::gelu_n, which is bit-identical to the
// scalar fmath::gelu on every input and at every position. add and
// layer_norm evaluate each element with the scalar loop's expression, so
// the compiler contracts it as in the scalar loop; threads only
// partition elements or columns. Results are therefore
// bit-identical to the per-element to_float / half_t loops at any thread
// count, except that NaN outputs may carry a different payload (see
// float_to_half_n). gelu calls no libm function, so its bits do not
// depend on the host's libm (layer_norm's std::sqrt is IEEE-exact).

/// LayerNorm over the feature dimension of (features x tokens), per
/// token (column), with scale gamma and shift beta (size = features).
HalfMatrix layer_norm(const HalfMatrix& x, std::span<const float> gamma,
                      std::span<const float> beta, float eps = 1e-5f,
                      ops::ExecContext* ctx = nullptr);

/// GELU (tanh approximation) applied element-wise.
HalfMatrix gelu(const HalfMatrix& x, ops::ExecContext* ctx = nullptr);

/// x + y element-wise (residual connection).
HalfMatrix add(const HalfMatrix& x, const HalfMatrix& y,
               ops::ExecContext* ctx = nullptr);

/// Adds a per-feature bias to (features x tokens).
void add_bias(FloatMatrix& x, std::span<const float> bias);

/// scores(Tq x Tk) = Qh^T Kh * scale, with Qh, Kh of shape (dh x T).
/// Scalar reference for AttentionCore (tests compare against it).
FloatMatrix attention_scores(const HalfMatrix& qh, const HalfMatrix& kh,
                             float scale);

/// context(dh x Tq) = Vh * P^T, with P(Tq x Tk) probabilities, Vh(dh x Tk).
/// Scalar reference for AttentionCore.
HalfMatrix attention_context(const FloatMatrix& p, const HalfMatrix& vh);

/// The multi-head attention core over packed sequences: scores, mask,
/// softmax and context for every (head, sequence) of one call. It is the
/// one kernel behind MultiHeadAttention's batched forward, its KV-cached
/// forward and its backward's recompute.
///
/// Panels. Per (head h, sequence s), with dh = head_dim, n queries and
/// m keys, the call's ScratchArena holds float panels:
///   Q    dh x n   head rows of the query projection
///   K    dh x m   head rows of the key projection
///   V^T  m x dh   the value projection transposed, so a context strip
///                 over d is contiguous
///   P    n x m    scores, then probabilities (masked entries exactly 0)
/// Step 1 (load) converts each fp16 projection row once, with
/// half_to_float_n. Step 2 (probabilities) computes scores in 16-lane
/// register strips over keys, four query rows at a time, then runs
/// fmath::softmax_n, softmax_rows' row function, over each row's
/// unmasked span. Step 3 (context) accumulates 16-lane strips over d and
/// writes context(h*dh + d, col + i) directly.
///
/// Tasks. Load runs one task per (head, sequence); steps 2 and 3 run one
/// task per (head, sequence, block of 32 query rows), on the pool via
/// parallel_for_chunks. Every step passes the call's score work (n*m*dh
/// summed over heads and sequences) to the pool's inline rule, so a
/// decode step pays no dispatch. The three steps are timed separately:
/// load, scores and context add to attn_matmul_s, softmax to softmax_s.
///
/// Bits. Every output element keeps the scalar loops' expression and
/// accumulation order: a score is (sum over d ascending of q*k) * scale,
/// a probability is softmax_rows' sequence over the row, and a context
/// element is the sum over keys ascending of p*v, rounded once to fp16.
/// Vector lanes are independent elements written as the same `acc += a*b`
/// expression, so the compiler applies the same FP contraction as in the
/// scalar loops. Threads only partition rows. The result therefore equals
/// attention_scores + causal/window mask + softmax_rows +
/// attention_context bit for bit, at any thread count. Masked keys are
/// skipped: the reference adds their exact-zero probabilities, which
/// leaves any finite sum unchanged.
///
/// Mask. With `causal`, query r of a sequence sits at key m - n + r (its
/// own position; earlier keys come from a KV cache) and sees keys up to
/// it. A nonzero `window` also hides keys more than window - 1 behind.
class AttentionCore {
 public:
  /// One packed sequence: `queries` tokens at output columns
  /// [col, col + queries), attending `keys` keys, the last `queries` of
  /// which are its own tokens.
  struct Seq {
    std::size_t col = 0;
    std::size_t queries = 0;
    std::size_t keys = 0;
  };

  /// Resets `arena` and lays out one Seq per packed sequence of
  /// seq_ends (exclusive end columns), each attending its own tokens.
  static std::span<const Seq> packed(std::span<const std::size_t> seq_ends,
                                     ScratchArena& arena);

  /// Lays out the panels in `arena`, after whatever the caller allocated
  /// there since its reset(). The arena keeps its high-water block, so a
  /// repeated call shape allocates nothing.
  AttentionCore(std::size_t heads, std::size_t head_dim, bool causal,
                std::size_t window, std::span<const Seq> seqs,
                ScratchArena& arena);

  /// Step 1 from packed (hidden x T) projections; every sequence's keys
  /// are its own queries.
  void load(const HalfMatrix& q, const HalfMatrix& k, const HalfMatrix& v,
            ThreadPool& pool, ops::TimingBreakdown* timing);
  /// Step 1, general form: runs fill(h, s) once per (head, sequence);
  /// fill calls load_queries and load_keys.
  void load(const std::function<void(std::size_t, std::size_t)>& fill,
            ThreadPool& pool, ops::TimingBreakdown* timing);
  /// Converts head h's rows of q, sequence s's columns, into its Q panel.
  void load_queries(std::size_t h, std::size_t s, const HalfMatrix& q);
  /// Converts head h's rows of k and v, columns [src, src + count), into
  /// keys [key0, key0 + count) of sequence s's K and V^T panels.
  void load_keys(std::size_t h, std::size_t s, const HalfMatrix& k,
                 const HalfMatrix& v, std::size_t src, std::size_t count,
                 std::size_t key0);

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
    std::size_t panels;     // float offset of its Q, K, V^T, staging row
    std::size_t scores;     // float offset of its P
    std::size_t block0;     // its first row block among all sequences'
  };
  struct Task {
    const Layout& seq;
    std::size_t h, r0, r1;  // query rows [r0, r1)
  };

  /// Start of head h's panels for `seq`: Q, then K, V^T, staging row.
  float* q_panel(std::size_t h, const Layout& seq) const;
  float* p_panel(std::size_t h, const Layout& seq) const;
  /// Keys [lo, hi) that query row r of `seq` sees.
  std::pair<std::size_t, std::size_t> live(const Layout& seq,
                                           std::size_t r) const;
  Task task(std::size_t t) const;
  void score_task(const Task& t);
  void softmax_task(const Task& t);
  void context_task(const Task& t, HalfMatrix& out) const;

  std::size_t heads_, dh_;
  bool causal_;
  std::size_t window_;
  std::span<Layout> seqs_;
  std::size_t blocks_ = 0;        // row blocks per head
  std::size_t head_panels_ = 0;   // floats of Q, K, V^T, staging per head
  std::size_t head_scores_ = 0;   // floats of P per head
  float* panels_ = nullptr;       // heads_ * head_panels_
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
