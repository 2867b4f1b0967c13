#include "transformer/linear.hpp"

#include <chrono>
#include <cmath>

#include "baselines/gemm.hpp"
#include "ops/ops.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/plan.hpp"
#include "spatha/spmm.hpp"
#include "transformer/ops.hpp"

namespace venom::transformer {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Linear::Linear(HalfMatrix weight, std::vector<float> bias)
    : out_(weight.rows()), in_(weight.cols()), weight_(std::move(weight)),
      bias_(std::move(bias)) {
  VENOM_CHECK(bias_.size() == out_);
}

Linear Linear::random(std::size_t out, std::size_t in, Rng& rng) {
  const float sigma = 1.0f / std::sqrt(float(in));
  HalfMatrix w = random_half_matrix(out, in, rng, sigma);
  std::vector<float> b(out);
  for (auto& v : b) v = sigma * rng.normal();
  return Linear(std::move(w), std::move(b));
}

void Linear::sparsify(VnmConfig cfg) {
  sparse_ = std::make_shared<const VnmMatrix>(
      VnmMatrix::from_dense_magnitude(weight_, cfg));
  sparse_fingerprint_ = spatha::weight_fingerprint(*sparse_);
  requantize();
}

void Linear::set_weight_dtype(ops::Dtype dtype) {
  if (dtype != ops::Dtype::kF16)
    VENOM_CHECK_MSG(sparse_ != nullptr,
                    "quantized weights require a sparsified layer (call "
                    "sparsify() before set_weight_dtype)");
  if (dtype == weight_dtype_) return;  // the current image is up to date
  weight_dtype_ = dtype;
  requantize();
}

void Linear::requantize() {
  packed_.reset();
  qweight_.reset();
  f8weight_.reset();
  if (sparse_ == nullptr) return;
  switch (weight_dtype_) {
    case ops::Dtype::kF16:
      packed_ = std::make_shared<const spatha::PackedVnm>(sparse_);
      break;
    case ops::Dtype::kI8:
      qweight_ = std::make_shared<const quant::QuantizedVnmMatrix>(
          quant::QuantizedVnmMatrix::quantize(*sparse_));
      break;
    case ops::Dtype::kF8E5M2:
    case ops::Dtype::kF8E4M3:
      f8weight_ = std::make_shared<const quant::Fp8VnmMatrix>(
          quant::Fp8VnmMatrix::quantize(*sparse_,
                                        weight_dtype_ == ops::Dtype::kF8E5M2
                                            ? Fp8Format::kE5M2
                                            : Fp8Format::kE4M3));
      packed_ = std::make_shared<const spatha::PackedVnm>(
          quant::pack_decoded(*f8weight_));
      break;
  }
}

HalfMatrix Linear::forward(const HalfMatrix& x, TimingBreakdown* timing,
                           ops::ExecContext* ctx_override) const {
  VENOM_CHECK_MSG(x.rows() == in_, "Linear expects " << in_ << " features, got "
                                                     << x.rows());
  const auto t0 = std::chrono::steady_clock::now();
  ops::ExecContext& ctx = ops::resolve(ctx_override, ctx_);
  const bool have_ctx = ctx_override != nullptr || ctx_ != nullptr;
  // Bias fused into the write-back stage of whichever backend dispatch
  // selects: the Spatha V:N:M backend for a sparsified weight, the
  // dense GEMM backend otherwise. The fingerprinted shared handle (the
  // context's PlanCache entry for this weight) is passed only when a
  // context was attached: a context-less forward must not pin this
  // layer's weight in the process-global cache beyond its lifetime.
  // Both routes run over the layer's own packed weight (the cache adopts
  // it), so neither packs per call; so does an fp8 layer, whose packed
  // form is the decode of its fp8 image. The fused epilogue is
  // bit-identical to a separate bias+convert pass by construction, so
  // both routes agree bitwise.
  spatha::Epilogue epilogue;
  epilogue.bias = bias_;
  ops::MatmulArgs args;
  if (qweight_ != nullptr) {
    // Quantized-weight mode: the layer-owned int8/fp8 image rides its
    // shared handle, and dispatch selects the quantized backend off the
    // desc's dtype.
    args = ops::MatmulArgs::make(qweight_, x);
  } else if (f8weight_ != nullptr) {
    args = ops::MatmulArgs::make(f8weight_, x);
  } else if (sparse_ != nullptr) {
    args = have_ctx ? ops::MatmulArgs::make(sparse_, sparse_fingerprint_, x)
                    : ops::MatmulArgs::make(*sparse_, x);
  } else {
    args = ops::MatmulArgs::make(weight_, x);
  }
  args.vnm_packed = packed_;  // the fp16 or fp8 datapath's; else null
  HalfMatrix y = ops::matmul_fused(args, epilogue, ctx);
  if (timing != nullptr) timing->gemm_s += seconds_since(t0);
  return y;
}

Linear::Grads Linear::backward(const HalfMatrix& x,
                               const FloatMatrix& grad_y) const {
  VENOM_CHECK_MSG(x.rows() == in_ && grad_y.rows() == out_ &&
                      x.cols() == grad_y.cols(),
                  "backward shapes: x " << x.rows() << 'x' << x.cols()
                                        << ", grad_y " << grad_y.rows() << 'x'
                                        << grad_y.cols());
  ops::ExecContext& ctx = ctx_ != nullptr ? *ctx_ : ops::ExecContext::global();
  Grads g;
  const HalfMatrix grad_y_half = to_half(grad_y);
  const HalfMatrix xt = transpose(x);

  // dL/dx = W^T dL/dy — the kMatmulTransposed registry family: the
  // scatter-based V:N:M kernel for a pruned weight, the explicit
  // transpose + dense GEMM otherwise.
  g.input = ops::matmul_transposed(
      sparse_ != nullptr
          ? ops::MatmulArgs::make_transposed(*sparse_, grad_y_half)
          : ops::MatmulArgs::make_transposed(weight_, grad_y_half),
      ctx);

  if (sparse_ != nullptr) {
    // dL/dW = dL/dy x^T sampled at the surviving pattern (the kSddmm
    // family): pruned coordinates are never computed, so the gradient is
    // masked by construction and updates cannot resurrect dead weights.
    g.weight_vnm = std::make_shared<const VnmMatrix>(ops::sddmm(
        ops::MatmulArgs::make_sddmm(*sparse_, grad_y_half, xt), ctx));
    const HalfMatrix dense_grad = g.weight_vnm->to_dense();
    g.weight = FloatMatrix(out_, in_);
    for (std::size_t i = 0; i < dense_grad.size(); ++i)
      g.weight.flat()[i] = dense_grad.flat()[i].to_float();
  } else {
    // Dense: gradients flow to every coordinate; STen keeps dense weight
    // grads so the sparsifier can re-select later.
    g.weight = ops::matmul(ops::MatmulArgs::make(grad_y_half, xt), ctx);
  }

  // dL/db = row sums of dL/dy.
  g.bias.assign(out_, 0.0f);
  for (std::size_t o = 0; o < out_; ++o)
    for (std::size_t t = 0; t < grad_y.cols(); ++t)
      g.bias[o] += grad_y(o, t);
  return g;
}

void Linear::apply_gradients(const Grads& g, float lr) {
  VENOM_CHECK_MSG(g.weight.rows() == out_ && g.weight.cols() == in_ &&
                      g.bias.size() == out_,
                  "gradient shapes do not match a " << out_ << 'x' << in_
                                                    << " layer");
  if (sparse_ != nullptr) {
    // Projected step: only surviving coordinates move, then the weight
    // recompresses under its fixed pattern (still conforming — a pruned
    // zero stays zero, and a surviving value stepping to exact zero only
    // tightens the pattern).
    HalfMatrix w = sparse_->to_dense();
    for (std::size_t r = 0; r < out_; ++r)
      for (std::size_t c = 0; c < in_; ++c)
        if (!w(r, c).is_zero())
          w(r, c) = half_t(w(r, c).to_float() - lr * g.weight(r, c));
    const VnmConfig cfg = sparse_->config();
    weight_ = w;
    sparse_ = std::make_shared<const VnmMatrix>(VnmMatrix::compress(w, cfg));
    sparse_fingerprint_ = spatha::weight_fingerprint(*sparse_);
    requantize();
  } else {
    for (std::size_t i = 0; i < weight_.size(); ++i)
      weight_.flat()[i] = half_t(weight_.flat()[i].to_float() -
                                 lr * g.weight.flat()[i]);
  }
  for (std::size_t o = 0; o < out_; ++o) bias_[o] -= lr * g.bias[o];
}

void Linear::mask_gradient_to_pattern(FloatMatrix& grad_weight) const {
  VENOM_CHECK(grad_weight.rows() == out_ && grad_weight.cols() == in_);
  if (sparse_ == nullptr) return;
  const HalfMatrix pattern = sparse_->to_dense();
  for (std::size_t r = 0; r < out_; ++r)
    for (std::size_t c = 0; c < in_; ++c)
      if (pattern(r, c).is_zero()) grad_weight(r, c) = 0.0f;
}

}  // namespace venom::transformer
