#include "transformer/ops.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/fmath.hpp"
#include "common/lanes.hpp"
#include "ops/context.hpp"

namespace venom::transformer {

namespace {

using Lane = lanes::Native;
constexpr std::size_t kChunk = 2048;    // gelu / add: flat elements per task
constexpr std::size_t kColBlock = 128;  // layer_norm: columns per task
/// Multiply-adds one element counts for in the pool's inline rule, so an
/// op over fewer than 2^14 elements (16 x 2^14 = kInlineWork) runs on
/// the caller.
constexpr std::size_t kElemWork = 16;

/// fn(i, len) over the flat chunks [i, i + len) of n elements, each at
/// most kChunk long.
template <typename Fn>
void flat_chunks(ops::ExecContext* ctx, std::size_t n, Fn&& fn) {
  ops::resolve(ctx).pool().parallel_for_chunks(
      (n + kChunk - 1) / kChunk,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t c = b; c < e; ++c)
          fn(c * kChunk, std::min(kChunk, n - c * kChunk));
      },
      0, n * kElemWork);
}

/// fn(L{}, j0, j1) over [0, n) in pieces of whole L registers: the
/// widest lane type first, then Lane8, then one lane at a time. These are
/// the widths the bulk converters store, so each lane load of a
/// converted float is forwarded from one store (a load that spans
/// several narrower stores waits for them to reach the cache).
template <typename Fn>
void by_width(std::size_t n, Fn&& fn) {
  std::size_t j = 0;
  const auto piece = [&]<typename L>(L) {
    const std::size_t end = j + (n - j) / L::kWidth * L::kWidth;
    if (end != j) fn(L{}, j, end);
    j = end;
  };
  piece(Lane{});
#if defined(__AVX2__) && defined(__FMA__)
  piece(lanes::Lane8{});
#endif
  piece(lanes::Lane1{});
}

/// dst[j] = fp16(x[j] + y[j]) for j in [0, n), kChunk elements at a
/// time: one IEEE add per element in lane registers.
void add_halves(const half_t* x, const half_t* y, half_t* dst,
                std::size_t n) {
  float a[kChunk], b[kChunk];
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    half_to_float_n(x + i, a, len);
    half_to_float_n(y + i, b, len);
    by_width(len, [&]<typename L>(L, std::size_t j0, std::size_t j1) {
      for (std::size_t j = j0; j < j1; j += L::kWidth)
        L::store(a + j, L::add(L::load(a + j), L::load(b + j)));
    });
    float_to_half_n(a, dst + i, len);
  }
}

/// layer_norm of columns [t0, t0 + w) of src into the same columns of
/// out (src may be out); w is at most kColBlock and a multiple of
/// L::kWidth. Column t0 + u is lane u of the group's registers; the rows
/// are swept in ascending f three times (mean, variance, normalize), so
/// each column sums in the scalar loop's order.
template <typename L>
void layer_norm_columns(const HalfMatrix& src, std::span<const float> gamma,
                        std::span<const float> beta, float eps,
                        std::size_t t0, std::size_t w, HalfMatrix& out) {
  constexpr std::size_t kW = L::kWidth;
  const std::size_t rows = src.rows(), regs = w / kW;
  alignas(64) float v[kColBlock];
  typename L::F mean[kColBlock / kW], var[kColBlock / kW],
      inv[kColBlock / kW];
  for (std::size_t c = 0; c < regs; ++c) mean[c] = var[c] = L::set(0.0f);
  for (std::size_t f = 0; f < rows; ++f) {
    half_to_float_n(&src(f, t0), v, w);
    for (std::size_t c = 0; c < regs; ++c)
      mean[c] = L::add(mean[c], L::load(v + c * kW));
  }
  const typename L::F n = L::set(float(rows));
  for (std::size_t c = 0; c < regs; ++c) mean[c] = L::div(mean[c], n);
  for (std::size_t f = 0; f < rows; ++f) {
    half_to_float_n(&src(f, t0), v, w);
    for (std::size_t c = 0; c < regs; ++c) {
      const typename L::F d = L::sub(L::load(v + c * kW), mean[c]);
      var[c] = L::fma(d, d, var[c]);
    }
  }
  for (std::size_t c = 0; c < regs; ++c)
    L::store(v + c * kW, L::div(var[c], n));
  for (std::size_t u = 0; u < w; ++u) v[u] = 1.0f / std::sqrt(v[u] + eps);
  for (std::size_t c = 0; c < regs; ++c) inv[c] = L::load(v + c * kW);
  for (std::size_t f = 0; f < rows; ++f) {
    half_to_float_n(&src(f, t0), v, w);
    const typename L::F g = L::set(gamma[f]), b = L::set(beta[f]);
    for (std::size_t c = 0; c < regs; ++c) {
      const typename L::F d = L::sub(L::load(v + c * kW), mean[c]);
      L::store(v + c * kW, L::fma(L::mul(d, inv[c]), g, b));
    }
    float_to_half_n(v, &out(f, t0), w);
  }
}

/// layer_norm of columns [t0, t0 + kColBlock) (clipped to x.cols()) of
/// x, or with a residual y of fp16(x + y): the block first rounds the
/// sum into out's columns (one flat span when the block is whole rows),
/// and the sweeps then read it there.
void layer_norm_block(const HalfMatrix& x, const HalfMatrix* y,
                      std::span<const float> gamma,
                      std::span<const float> beta, float eps, std::size_t t0,
                      HalfMatrix& out) {
  const std::size_t w = std::min(kColBlock, x.cols() - t0);
  if (y != nullptr && w == x.cols()) {
    add_halves(&x(0, 0), &(*y)(0, 0), &out(0, 0), x.size());
  } else if (y != nullptr) {
    for (std::size_t f = 0; f < x.rows(); ++f)
      add_halves(&x(f, t0), &(*y)(f, t0), &out(f, t0), w);
  }
  const HalfMatrix& src = y != nullptr ? out : x;
  by_width(w, [&]<typename L>(L, std::size_t u0, std::size_t u1) {
    layer_norm_columns<L>(src, gamma, beta, eps, t0 + u0, u1 - u0, out);
  });
}

/// layer_norm over column blocks on the pool; y is the residual or null.
HalfMatrix layer_norm_blocks(const HalfMatrix& x, const HalfMatrix* y,
                             std::span<const float> gamma,
                             std::span<const float> beta, float eps,
                             ops::ExecContext* ctx) {
  VENOM_CHECK(gamma.size() == x.rows() && beta.size() == x.rows());
  VENOM_CHECK(y == nullptr || (y->rows() == x.rows() && y->cols() == x.cols()));
  HalfMatrix out(x.rows(), x.cols());
  ops::resolve(ctx).pool().parallel_for_chunks(
      (x.cols() + kColBlock - 1) / kColBlock,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t blk = b; blk < e; ++blk)
          layer_norm_block(x, y, gamma, beta, eps, blk * kColBlock, out);
      },
      0, x.size() * kElemWork);
  return out;
}

}  // namespace

void softmax_rows(FloatMatrix& scores) {
  for (std::size_t r = 0; r < scores.rows(); ++r)
    fmath::softmax_n(scores.row(r).data(), scores.cols());
}

HalfMatrix layer_norm(const HalfMatrix& x, std::span<const float> gamma,
                      std::span<const float> beta, float eps,
                      ops::ExecContext* ctx) {
  return layer_norm_blocks(x, nullptr, gamma, beta, eps, ctx);
}

HalfMatrix add_layer_norm(const HalfMatrix& x, const HalfMatrix& y,
                          std::span<const float> gamma,
                          std::span<const float> beta, float eps,
                          ops::ExecContext* ctx) {
  return layer_norm_blocks(x, &y, gamma, beta, eps, ctx);
}

HalfMatrix gelu(const HalfMatrix& x, ops::ExecContext* ctx) {
  HalfMatrix out(x.rows(), x.cols());
  const half_t* src = x.flat().data();
  half_t* dst = out.flat().data();
  flat_chunks(ctx, x.size(), [&](std::size_t i, std::size_t len) {
    float buf[kChunk];
    half_to_float_n(src + i, buf, len);
    fmath::gelu_n(buf, buf, len);
    float_to_half_n(buf, dst + i, len);
  });
  return out;
}

HalfMatrix add(const HalfMatrix& x, const HalfMatrix& y,
               ops::ExecContext* ctx) {
  VENOM_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  HalfMatrix out(x.rows(), x.cols());
  const half_t* xs = x.flat().data();
  const half_t* ys = y.flat().data();
  half_t* dst = out.flat().data();
  flat_chunks(ctx, x.size(), [&](std::size_t i, std::size_t len) {
    add_halves(xs + i, ys + i, dst + i, len);
  });
  return out;
}

void column_to_float(const HalfMatrix& m, std::size_t c, std::size_t r0,
                     std::size_t n, float* dst) {
  constexpr std::size_t kBlock = 64;
  half_t col[kBlock];
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t len = std::min(kBlock, n - i);
    for (std::size_t u = 0; u < len; ++u) col[u] = m(r0 + i + u, c);
    half_to_float_n(col, dst + i, len);
  }
}

void add_bias(FloatMatrix& x, std::span<const float> bias) {
  VENOM_CHECK(bias.size() == x.rows());
  for (std::size_t f = 0; f < x.rows(); ++f)
    for (std::size_t t = 0; t < x.cols(); ++t) x(f, t) += bias[f];
}

FloatMatrix attention_scores(const HalfMatrix& qh, const HalfMatrix& kh,
                             float scale) {
  VENOM_CHECK(qh.rows() == kh.rows());
  FloatMatrix scores(qh.cols(), kh.cols());
  for (std::size_t i = 0; i < qh.cols(); ++i)
    for (std::size_t j = 0; j < kh.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t d = 0; d < qh.rows(); ++d)
        acc = std::fma(qh(d, i).to_float(), kh(d, j).to_float(), acc);
      scores(i, j) = acc * scale;
    }
  return scores;
}

FloatMatrix add(const FloatMatrix& x, const FloatMatrix& y) {
  VENOM_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  FloatMatrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.flat()[i] = x.flat()[i] + y.flat()[i];
  return out;
}

FloatMatrix layer_norm_backward(const HalfMatrix& x,
                                std::span<const float> gamma,
                                const FloatMatrix& grad_y,
                                std::span<float> dgamma,
                                std::span<float> dbeta, float eps) {
  const std::size_t features = x.rows();
  VENOM_CHECK(gamma.size() == features && dgamma.size() == features &&
              dbeta.size() == features);
  VENOM_CHECK(grad_y.rows() == features && grad_y.cols() == x.cols());
  FloatMatrix dx(features, x.cols());
  const float inv_f = 1.0f / float(features);
  std::vector<float> xhat(features), dyh(features);
  for (std::size_t t = 0; t < x.cols(); ++t) {
    // Recompute the per-token statistics exactly as the forward does.
    float mean = 0.0f;
    for (std::size_t f = 0; f < features; ++f) mean += x(f, t).to_float();
    mean *= inv_f;
    float var = 0.0f;
    for (std::size_t f = 0; f < features; ++f) {
      const float d = x(f, t).to_float() - mean;
      var = std::fma(d, d, var);
    }
    var *= inv_f;
    const float inv = 1.0f / std::sqrt(var + eps);

    // dL/dxhat = dL/dy * gamma; then the two projection terms that make
    // the normalization's Jacobian: subtract the mean of dL/dxhat and
    // the xhat-weighted mean along the feature axis.
    float mean_dyh = 0.0f, mean_dyh_xhat = 0.0f;
    for (std::size_t f = 0; f < features; ++f) {
      xhat[f] = (x(f, t).to_float() - mean) * inv;
      dyh[f] = grad_y(f, t) * gamma[f];
      dgamma[f] += grad_y(f, t) * xhat[f];
      dbeta[f] += grad_y(f, t);
      mean_dyh += dyh[f];
      mean_dyh_xhat += dyh[f] * xhat[f];
    }
    mean_dyh *= inv_f;
    mean_dyh_xhat *= inv_f;
    for (std::size_t f = 0; f < features; ++f)
      dx(f, t) = inv * (dyh[f] - mean_dyh - xhat[f] * mean_dyh_xhat);
  }
  return dx;
}

FloatMatrix gelu_backward(const HalfMatrix& x, const FloatMatrix& grad_y) {
  VENOM_CHECK(grad_y.rows() == x.rows() && grad_y.cols() == x.cols());
  FloatMatrix dx(x.rows(), x.cols());
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  constexpr float kCubic = 0.044715f;
  float v[kChunk], t[kChunk];
  for (std::size_t i = 0; i < x.size(); i += kChunk) {
    const std::size_t len = std::min(kChunk, x.size() - i);
    half_to_float_n(x.flat().data() + i, v, len);
    for (std::size_t j = 0; j < len; ++j)
      t[j] = kSqrt2OverPi * (v[j] + kCubic * v[j] * v[j] * v[j]);
    fmath::tanh_n(t, t, len);
    for (std::size_t j = 0; j < len; ++j) {
      const float du = kSqrt2OverPi * (1.0f + 3.0f * kCubic * v[j] * v[j]);
      const float d =
          0.5f * (1.0f + t[j]) + 0.5f * v[j] * (1.0f - t[j] * t[j]) * du;
      dx.flat()[i + j] = grad_y.flat()[i + j] * d;
    }
  }
  return dx;
}

HalfMatrix attention_context(const FloatMatrix& p, const HalfMatrix& vh) {
  VENOM_CHECK(p.cols() == vh.cols());
  HalfMatrix ctx(vh.rows(), p.rows());
  for (std::size_t d = 0; d < vh.rows(); ++d)
    for (std::size_t i = 0; i < p.rows(); ++i) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < p.cols(); ++j)
        acc = std::fma(p(i, j), vh(d, j).to_float(), acc);
      ctx(d, i) = half_t(acc);
    }
  return ctx;
}

// ------------------------------------------------------- attention core

namespace {

constexpr std::size_t kRows = 4;       // query rows sharing a loaded strip
constexpr std::size_t kTaskRows = 32;  // query rows per task

/// Adds the wall time of fn() to *slot (no clock reads when null).
template <typename Fn>
void timed(double* slot, Fn&& fn) {
  if (slot == nullptr) {
    fn();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  *slot += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
}

/// The accumulators of R rows of one strip: lane u of row r is one
/// output element. R rows of kRegs registers make eight vector
/// registers, enough independent fma chains to cover the fma latency
/// whether four query rows share a strip or one decode query runs alone
/// (and few enough for AVX2's sixteen registers); a strip is at least 16
/// lanes wide. Value-initialized, every lane is +0.
template <std::size_t R>
struct Strip {
  static constexpr std::size_t kWidth = std::max<std::size_t>(
      8 / R * Lane::kWidth, 16);
  static constexpr std::size_t kRegs = kWidth / Lane::kWidth;
  Lane::F acc[R][kRegs];
};

/// madd_strip over the first Regs registers of each row; the last loads
/// only its lanes under `tail`. The loop runs on a local copy of the
/// accumulators: the lane types may alias floats, so writing `s` in the
/// loop would store it back to memory after every step.
template <std::size_t R, std::size_t Regs>
[[gnu::always_inline]] inline void madd_regs(Strip<R>& s, const float* a,
                                             std::size_t a_step,
                                             std::size_t a_row,
                                             const float* b,
                                             std::size_t b_step,
                                             std::size_t len, Lane::M tail) {
  constexpr std::size_t kW = Lane::kWidth;
  Lane::F acc[R][Regs];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 64
    for (std::size_t c = 0; c < Regs; ++c) acc[r][c] = s.acc[r][c];
  for (std::size_t x = 0; x < len; ++x) {
    const float* bp = b + x * b_step;
    Lane::F bv[Regs];
#pragma GCC unroll 64
    for (std::size_t c = 0; c + 1 < Regs; ++c) bv[c] = Lane::load(bp + c * kW);
    bv[Regs - 1] = Lane::load_mask(bp + (Regs - 1) * kW, tail);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const Lane::F av = Lane::set(a[x * a_step + r * a_row]);
#pragma GCC unroll 64
      for (std::size_t c = 0; c < Regs; ++c)
        acc[r][c] = Lane::fma(av, bv[c], acc[r][c]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 64
    for (std::size_t c = 0; c < Regs; ++c) s.acc[r][c] = acc[r][c];
}

/// The core's one register micro-kernel, in spatha/microkernel.hpp's
/// idiom: for x ascending in [0, len), lane u of row r takes
/// fma(a[x * a_step + r * a_row], b[x * b_step + u], acc), for the
/// strip's first w lanes. Starting from a zeroed Strip this is the
/// oracle's fma chain in its order; handed the Strip of the keys before,
/// it continues that chain across spans. A ragged strip runs only the
/// registers that hold lanes below w, and its last register loads the
/// lanes past w as +0 through a masked load, which reads no memory
/// there. R rows share each loaded strip of b. Always inlined, so the
/// accumulators stay in registers.
template <std::size_t R>
[[gnu::always_inline]] inline void madd_strip(Strip<R>& s, const float* a,
                                              std::size_t a_step,
                                              std::size_t a_row,
                                              const float* b,
                                              std::size_t b_step,
                                              std::size_t len, std::size_t w) {
  constexpr std::size_t kW = Lane::kWidth;
  const std::size_t regs = (w + kW - 1) / kW;
  const Lane::M tail = Lane::mask_bits((1u << (w - (regs - 1) * kW)) - 1u);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((regs == I + 1
          ? madd_regs<R, I + 1>(s, a, a_step, a_row, b, b_step, len, tail)
          : void()),
     ...);
  }(std::make_index_sequence<Strip<R>::kRegs>{});
}

/// dst[u] = lane u of `row` * scale for the first w lanes.
template <std::size_t Regs>
void store_row(const Lane::F (&row)[Regs], std::size_t w, float scale,
               float* dst) {
  const Lane::F sc = Lane::set(scale);
  for (std::size_t c = 0; c < Regs && c * Lane::kWidth < w; ++c) {
    const std::size_t u0 = c * Lane::kWidth;
    const Lane::F v = Lane::mul(row[c], sc);
    if (u0 + Lane::kWidth <= w) {
      Lane::store(dst + u0, v);
    } else {
      float vals[Lane::kWidth];
      Lane::store(vals, v);
      std::copy(vals, vals + (w - u0), dst + u0);
    }
  }
}

/// fn(span, x0, lo, hi) for each of `spans` that meets keys [j0, j1):
/// keys [lo, hi) of the sequence, which start at key x0 of the span.
template <typename Fn>
void for_each_span(std::span<const AttentionCore::KeySpan> spans,
                   std::size_t j0, std::size_t j1, Fn&& fn) {
  std::size_t key0 = 0;
  for (const AttentionCore::KeySpan& s : spans) {
    const std::size_t lo = std::max(j0, key0);
    const std::size_t hi = std::min(j1, key0 + s.count);
    if (lo < hi) fn(s, lo - key0, lo, hi);
    key0 += s.count;
  }
}

/// Scores of query rows [i, i + R) of head h against keys [j0, j1), in
/// strips over keys within each span: p[(i + r) * m + j] = (sum over d
/// of q[d * n + i + r] * k_j[d]) * scale, attention_scores' expression.
template <std::size_t R>
void score_rows(std::span<const AttentionCore::KeySpan> spans, std::size_t h,
                std::size_t dh, const float* q, std::size_t n, std::size_t m,
                std::size_t i, std::size_t j0, std::size_t j1, float scale,
                float* p) {
  for_each_span(spans, j0, j1,
                [&](const AttentionCore::KeySpan& s, std::size_t x0,
                    std::size_t lo, std::size_t hi) {
                  const float* k = s.k + h * dh * s.stride + x0;
                  for (std::size_t j = lo; j < hi; j += Strip<R>::kWidth) {
                    const std::size_t w = std::min(Strip<R>::kWidth, hi - j);
                    Strip<R> acc{};
                    madd_strip<R>(acc, q + i, n, 1, k + (j - lo), s.stride,
                                  dh, w);
                    for (std::size_t r = 0; r < R; ++r)
                      store_row(acc.acc[r], w, scale, p + (i + r) * m + j);
                  }
                });
}

/// Context of query rows [i, i + R) of head h over keys [j0, j1), in
/// strips over d: out(h * dh + d, col + i + r) = fp16(sum over j of
/// p[(i + r) * m + j] * v_j[d]), attention_context's expression, one
/// chain carried across the spans.
template <std::size_t R>
void context_rows(std::span<const AttentionCore::KeySpan> spans,
                  std::size_t h, std::size_t dh, const float* p,
                  std::size_t m, std::size_t i, std::size_t j0,
                  std::size_t j1, HalfMatrix& out, std::size_t col) {
  for (std::size_t d = 0; d < dh; d += Strip<R>::kWidth) {
    const std::size_t w = std::min(Strip<R>::kWidth, dh - d);
    Strip<R> acc{};
    for_each_span(spans, j0, j1,
                  [&](const AttentionCore::KeySpan& s, std::size_t x0,
                      std::size_t lo, std::size_t hi) {
                    madd_strip<R>(acc, p + i * m + lo, 1, m,
                                  s.vt + (h * s.stride + x0) * dh + d, dh,
                                  hi - lo, w);
                  });
    // Convert the finished strip at once, then store each d's R
    // consecutive tokens together.
    float vals[R][Strip<R>::kWidth];
    half_t halves[R][Strip<R>::kWidth];
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t c = 0; c < Strip<R>::kRegs; ++c)
        Lane::store(vals[r] + c * Lane::kWidth, acc.acc[r][c]);
    float_to_half_n(vals[0], halves[0], (R - 1) * Strip<R>::kWidth + w);
    for (std::size_t u = 0; u < w; ++u) {
      half_t tokens[R];
      for (std::size_t r = 0; r < R; ++r) tokens[r] = halves[r][u];
      std::memcpy(&out(h * dh + d + u, col + i), tokens, sizeof tokens);
    }
  }
}

}  // namespace

std::span<const AttentionCore::Seq> AttentionCore::packed(
    std::span<const std::size_t> seq_ends, ScratchArena& arena) {
  arena.reset();
  Seq* seqs = arena.alloc<Seq>(seq_ends.size());
  std::size_t s0 = 0;
  for (std::size_t s = 0; s < seq_ends.size(); ++s) {
    seqs[s] = Seq{s0, seq_ends[s] - s0, seq_ends[s] - s0, {}};
    s0 = seq_ends[s];
  }
  return {seqs, seq_ends.size()};
}

AttentionCore::AttentionCore(std::size_t heads, std::size_t head_dim,
                             bool causal, std::size_t window,
                             std::span<const Seq> seqs, ScratchArena& arena)
    : heads_(heads), dh_(head_dim), causal_(causal), window_(window) {
  VENOM_CHECK(heads >= 1 && head_dim >= 1 && !seqs.empty());
  Layout* table = arena.alloc<Layout>(seqs.size());
  std::size_t panels = 0, work = 0;
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    const Seq& in = seqs[s];
    const std::size_t resident = in.resident[0].count + in.resident[1].count;
    VENOM_CHECK_MSG(in.queries >= 1 && in.keys >= in.queries &&
                        resident <= in.keys &&
                        in.keys - resident <= in.queries,
                    "attention sequence " << s << " has " << in.queries
                                          << " queries over " << in.keys
                                          << " keys, " << resident
                                          << " of them resident");
    const std::size_t own = in.keys - resident;
    table[s] = Layout{in.col,       in.queries, in.keys,
                      own,          panels,     head_scores_,
                      blocks_,      {in.resident[0], in.resident[1], {}}};
    panels += heads_ * (dh_ * (in.queries + 2 * own) + own);
    head_scores_ += in.queries * in.keys;
    blocks_ += (in.queries + kTaskRows - 1) / kTaskRows;
    work += in.queries * in.keys * dh_;
  }
  seqs_ = {table, seqs.size()};
  panels_ = arena.alloc<float>(panels);
  scores_ = arena.alloc<float>(heads_ * head_scores_);
  work_ = heads_ * work;
  for (Layout& seq : seqs_) {
    const float* k = panels_ + seq.panels + heads_ * dh_ * seq.n;
    seq.spans[2] = KeySpan{k, k + heads_ * dh_ * seq.own, seq.own, seq.own};
  }
}

float* AttentionCore::q_panel(std::size_t h, const Layout& seq) const {
  return panels_ + seq.panels + h * dh_ * seq.n;
}

float* AttentionCore::p_panel(std::size_t h, const Layout& seq) const {
  return scores_ + h * head_scores_ + seq.scores;
}

std::pair<std::size_t, std::size_t> AttentionCore::live(
    const Layout& seq, std::size_t r) const {
  if (!causal_) return {0, seq.m};
  const std::size_t hi = seq.m - seq.n + r + 1;
  return {window_ != 0 && hi > window_ ? hi - window_ : 0, hi};
}

AttentionCore::Task AttentionCore::task(std::size_t t) const {
  const std::size_t b = t % blocks_;
  const Layout& seq =
      *(std::upper_bound(seqs_.begin(), seqs_.end(), b,
                         [](std::size_t v, const Layout& l) {
                           return v < l.block0;
                         }) -
        1);
  const std::size_t r0 = (b - seq.block0) * kTaskRows;
  return Task{seq, t / blocks_, r0, std::min(seq.n, r0 + kTaskRows)};
}

void AttentionCore::load(const HalfMatrix& q, const HalfMatrix& k,
                         const HalfMatrix& v, ThreadPool& pool,
                         ops::TimingBreakdown* timing) {
  VENOM_CHECK(q.rows() == heads_ * dh_ && k.rows() == q.rows() &&
              v.rows() == q.rows());
  const std::size_t seqs = seqs_.size();
  timed(timing != nullptr ? &timing->attn_matmul_s : nullptr, [&] {
    pool.parallel_for_chunks(
        heads_ * seqs,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t x = b; x < e; ++x)
            load_task(x / seqs, seqs_[x % seqs], q, k, v);
        },
        0, work_);
  });
}

void AttentionCore::load_task(std::size_t h, const Layout& seq,
                              const HalfMatrix& q, const HalfMatrix& k,
                              const HalfMatrix& v) {
  float* qp = q_panel(h, seq);
  if (seq.n == 1) {
    column_to_float(q, seq.col, h * dh_, dh_, qp);  // a decode query
  } else {
    for (std::size_t d = 0; d < dh_; ++d)
      half_to_float_n(&q(h * dh_ + d, seq.col), qp + d * seq.n, seq.n);
  }
  const std::size_t own = seq.own;
  if (own == 0) return;
  float* kp = panels_ + seq.panels + heads_ * dh_ * seq.n;
  float* vt = kp + heads_ * dh_ * own + h * own * dh_;
  float* stage = kp + 2 * heads_ * dh_ * own + h * own;
  kp += h * dh_ * own;
  const std::size_t src = seq.col + seq.n - own;
  for (std::size_t d = 0; d < dh_; ++d) {
    half_to_float_n(&k(h * dh_ + d, src), kp + d * own, own);
    half_to_float_n(&v(h * dh_ + d, src), stage, own);
    for (std::size_t j = 0; j < own; ++j) vt[j * dh_ + d] = stage[j];
  }
}

void AttentionCore::probabilities(ThreadPool& pool,
                                  ops::TimingBreakdown* timing) {
  const std::size_t tasks = heads_ * blocks_;
  timed(timing != nullptr ? &timing->attn_matmul_s : nullptr, [&] {
    pool.parallel_for_chunks(
        tasks,
        [this](std::size_t b, std::size_t e) {
          for (std::size_t t = b; t < e; ++t) score_task(task(t));
        },
        0, work_);
  });
  timed(timing != nullptr ? &timing->softmax_s : nullptr, [&] {
    pool.parallel_for_chunks(
        tasks,
        [this](std::size_t b, std::size_t e) {
          for (std::size_t t = b; t < e; ++t) softmax_task(task(t));
        },
        0, work_);
  });
}

const float* AttentionCore::probs(std::size_t h, std::size_t s) const {
  return p_panel(h, seqs_[s]);
}

void AttentionCore::context(HalfMatrix& out, ThreadPool& pool,
                            ops::TimingBreakdown* timing) const {
  VENOM_CHECK(out.rows() == heads_ * dh_);
  timed(timing != nullptr ? &timing->attn_matmul_s : nullptr, [&] {
    pool.parallel_for_chunks(
        heads_ * blocks_,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t t = b; t < e; ++t) context_task(task(t), out);
        },
        0, work_);
  });
}

void AttentionCore::score_task(const Task& t) {
  const Layout& seq = t.seq;
  const float* q = q_panel(t.h, seq);
  float* p = p_panel(t.h, seq);
  const float scale = 1.0f / std::sqrt(float(dh_));
  std::size_t i = t.r0;
  for (; i + kRows <= t.r1; i += kRows)
    score_rows<kRows>(seq.spans, t.h, dh_, q, seq.n, seq.m, i,
                      live(seq, i).first, live(seq, i + kRows - 1).second,
                      scale, p);
  for (; i < t.r1; ++i)
    score_rows<1>(seq.spans, t.h, dh_, q, seq.n, seq.m, i, live(seq, i).first,
                  live(seq, i).second, scale, p);
}

void AttentionCore::softmax_task(const Task& t) {
  float* p = p_panel(t.h, t.seq);
  for (std::size_t i = t.r0; i < t.r1; ++i) {
    const auto [lo, hi] = live(t.seq, i);
    float* row = p + i * t.seq.m;
    std::fill(row, row + lo, 0.0f);
    fmath::softmax_n(row + lo, hi - lo);
    std::fill(row + hi, row + t.seq.m, 0.0f);
  }
}

void AttentionCore::context_task(const Task& t, HalfMatrix& out) const {
  const Layout& seq = t.seq;
  const float* p = p_panel(t.h, seq);
  // The rows of a register block share the union of their live spans; a
  // key one row does not see holds probability 0 in that row.
  std::size_t i = t.r0;
  for (; i + kRows <= t.r1; i += kRows)
    context_rows<kRows>(seq.spans, t.h, dh_, p, seq.m, i, live(seq, i).first,
                        live(seq, i + kRows - 1).second, out, seq.col);
  for (; i < t.r1; ++i)
    context_rows<1>(seq.spans, t.h, dh_, p, seq.m, i, live(seq, i).first,
                    live(seq, i).second, out, seq.col);
}

}  // namespace venom::transformer
