// Linear layer with a dense or V:N:M-sparse weight backend.
//
// This is the CPU analogue of the paper's STen integration (Listing 1):
// a dense nn.Linear is replaced by an Spmm module holding the VNMTensor
// (values / columns / metadata). Calling sparsify() converts the dense
// weight into a VnmMatrix; forward() routes both weight states through
// the venom::ops dispatcher (ops::matmul_fused), which selects the
// Spatha V:N:M backend for sparse weights and the dense GEMM backend
// otherwise — Linear no longer picks kernels or threads pools/caches by
// hand.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "format/vnm.hpp"
#include "ops/matmul.hpp"
#include "ops/timing.hpp"
#include "quant/quantized_vnm.hpp"
#include "tensor/matrix.hpp"

namespace venom::ops {
class ExecContext;
}

namespace venom::transformer {

/// Compatibility alias: the timing sink moved to the ops layer (it is a
/// cross-layer concern attention and serving fill too).
using TimingBreakdown = ops::TimingBreakdown;

/// y(out x tokens) = W(out x in) * x(in x tokens) + bias.
class Linear {
 public:
  Linear() = default;
  /// Takes ownership of a dense weight (out x in) and bias (size out).
  Linear(HalfMatrix weight, std::vector<float> bias);

  /// Random-initialized layer, sigma = 1/sqrt(in).
  static Linear random(std::size_t out, std::size_t in, Rng& rng);

  /// Converts the weight to the V:N:M format (magnitude pruning). After
  /// this call forward() dispatches to Spatha. Throws if shapes do not
  /// divide.
  void sparsify(VnmConfig cfg);

  /// Routes forwards through `ctx` — its thread pool, plan cache (kernel
  /// configs selected once per shape x weight, packed-panel scratch kept
  /// warm across calls), and tuning cache. nullptr (the default) uses
  /// ops::ExecContext::global(). The context must outlive the layer's
  /// forwards; it may be shared across threads (its caches are
  /// thread-safe) — the serving engine attaches its own context to every
  /// layer of the encoder it owns.
  void set_exec_context(ops::ExecContext* ctx) { ctx_ = ctx; }
  ops::ExecContext* exec_context() const { return ctx_; }

  /// Switches the storage precision of the sparse weight: kF16 restores
  /// the fp16 datapath; kI8 / kF8E5M2 / kF8E4M3 quantize the compressed
  /// weight eagerly (the layer owns the image — a context-less forward
  /// never pins the global plan cache) and route forward() through the
  /// matching quantized backend. Requires a sparsified layer for the
  /// reduced dtypes; throws venom::Error otherwise. Training keeps fp16
  /// masters: backward() differentiates the fp16 weight, and
  /// apply_gradients() / sparsify() re-quantize after each update.
  void set_weight_dtype(ops::Dtype dtype);
  ops::Dtype weight_dtype() const { return weight_dtype_; }

  /// The current quantized image (nullptr unless the matching dtype is
  /// set) — size/scale introspection for tools and tests.
  const quant::QuantizedVnmMatrix* int8_weight() const {
    return qweight_.get();
  }
  const quant::Fp8VnmMatrix* fp8_weight() const { return f8weight_.get(); }

  bool is_sparse() const { return sparse_ != nullptr; }
  std::size_t out_features() const { return out_; }
  std::size_t in_features() const { return in_; }
  const HalfMatrix& dense_weight() const { return weight_; }
  const VnmMatrix& sparse_weight() const { return *sparse_; }
  std::span<const float> bias() const { return bias_; }

  /// Forward pass; if `timing` is non-null, the GEMM time is added.
  /// `ctx` overrides the attached context for this call only (see
  /// ops::resolve) — the replicated-serving path, where N engines share
  /// one const encoder but dispatch through private contexts.
  HalfMatrix forward(const HalfMatrix& x, TimingBreakdown* timing = nullptr,
                     ops::ExecContext* ctx = nullptr) const;

  /// Gradients of a linear layer (the sparse-training path of §9a). For
  /// a sparse weight, backward() dispatches both halves through the
  /// venom::ops registry: the input gradient through the transposed
  /// V:N:M SpMM (ops::matmul_transposed) and the weight gradient through
  /// the masked SDDMM (ops::sddmm), so only the surviving pattern's
  /// coordinates are ever computed — `weight` is then the dense
  /// expansion of `weight_vnm` (zero at pruned positions).
  struct Grads {
    FloatMatrix input;        ///< dL/dx (in x tokens)
    FloatMatrix weight;       ///< dL/dW (out x in; masked when sparse)
    std::vector<float> bias;  ///< dL/db (out)
    /// Compressed dL/dW sharing the weight's structure (sparse layers
    /// only) — feeds straight into a compressed-domain optimizer.
    std::shared_ptr<const VnmMatrix> weight_vnm;
  };

  /// Backward pass for y = W x + b given dL/dy and the forward input.
  Grads backward(const HalfMatrix& x, const FloatMatrix& grad_y) const;

  /// One SGD step: w -= lr * dL/dW, b -= lr * dL/db. Sparse layers
  /// update only the surviving coordinates and recompress in place (the
  /// pattern is fixed by sparsify(); the plan-cache fingerprint
  /// refreshes so a stale cache entry cannot alias the updated weight).
  void apply_gradients(const Grads& g, float lr);

  /// Zeroes the entries of a weight gradient that the sparse pattern
  /// pruned, so updates cannot resurrect dead weights (masked training).
  /// No-op while the layer is dense. (backward() already returns masked
  /// gradients for sparse layers; this remains for externally computed
  /// dense gradients.)
  void mask_gradient_to_pattern(FloatMatrix& grad_weight) const;

 private:
  /// Rebuilds the kernel images of the weight for the current dtype (see
  /// packed_ and the quantized images). Called wherever the compressed
  /// weight or the dtype changes.
  void requantize();

  std::size_t out_ = 0;
  std::size_t in_ = 0;
  HalfMatrix weight_;
  std::vector<float> bias_;
  // Shared so plan-cache entries (one per batch width under dynamic
  // batching) alias this copy instead of duplicating O(nnz) storage;
  // immutable once built.
  std::shared_ptr<const VnmMatrix> sparse_;
  // Content hash of sparse_, computed once at sparsify() (the compressed
  // weight is immutable afterwards) so plan-cache lookups in the serving
  // hot path skip the per-call O(nnz) fingerprint.
  std::uint64_t sparse_fingerprint_ = 0;
  // The packed float image of sparse_ (kF16; the plan cache adopts it)
  // or of f8weight_'s decode (fp8), built with it so no forward packs.
  std::shared_ptr<const spatha::PackedVnm> packed_;
  // Reduced-precision weight images; at most one is set, matching
  // weight_dtype_. Shared so MatmulArgs can alias them across calls.
  ops::Dtype weight_dtype_ = ops::Dtype::kF16;
  std::shared_ptr<const quant::QuantizedVnmMatrix> qweight_;
  std::shared_ptr<const quant::Fp8VnmMatrix> f8weight_;
  ops::ExecContext* ctx_ = nullptr;  // not owned; nullptr = global()
};

}  // namespace venom::transformer
