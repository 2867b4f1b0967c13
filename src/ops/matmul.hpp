// The unified matmul operator: one dispatch surface over every kernel
// family in the repository.
//
// The paper's Spatha layer exposes a single SpMM concept; this layer is
// its API. Each kernel family (the Spatha V:N:M pipeline and its scalar
// and mma.sp fidelity paths, the row-wise N:M fast path, the 2:4 /
// CVSE / CSR baseline stand-ins, the dense GEMM) registers a Matmul
// backend into a process-wide BackendRegistry; callers describe the
// product once (MatmulArgs) and dispatch picks the best registered
// backend for the operand format, the problem shape, and this build's
// CPU feature fingerprint — consulting the ExecContext's tuning cache
// for the kernel configuration. New formats and backends become registry
// entries instead of cross-tree edits.
//
// Selection is overridable for experiments and A/B measurement:
//   * VENOM_BACKEND=<name> in the environment, or
//   * ops::force_backend(name) / the RAII ops::ScopedBackend.
// A forced backend that does not support the problem is ignored and
// dispatch falls back to normal selection, so an override can never turn
// a valid product into an error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "format/csr.hpp"
#include "format/cvse.hpp"
#include "format/nm.hpp"
#include "format/vnm.hpp"
#include "ops/context.hpp"
#include "ops/dtype.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/packed.hpp"
#include "tensor/matrix.hpp"

namespace venom::ops {

/// Storage format of the (possibly sparse) left operand.
enum class OperandFormat : std::uint8_t { kDense, kVnm, kNm, kCvse, kCsr };

const char* to_string(OperandFormat f);

/// Which product the dispatch is for. Backends declare support per kind,
/// so the forward SpMM, its transpose (the input-gradient dL/dX = Aᵀ·B),
/// and the sampled product (the weight-gradient SDDMM) are all registry
/// entries with working overrides rather than cross-tree direct calls.
enum class OpKind : std::uint8_t { kMatmul, kMatmulTransposed, kSddmm };

const char* to_string(OpKind k);

/// Shape + format summary of a product — what supports() and backend
/// selection look at (no operand data access).
struct MatmulDesc {
  std::size_t rows = 0;    ///< left-operand rows (R)
  std::size_t cols = 0;    ///< left-operand cols (K)
  std::size_t b_cols = 0;  ///< dense right-operand cols (C)
  std::size_t depth = 0;   ///< SDDMM reduction depth (kind == kSddmm)
  OpKind kind = OpKind::kMatmul;
  OperandFormat format = OperandFormat::kDense;
  Dtype dtype = Dtype::kF16;  ///< left-operand value precision
  VnmConfig vnm;  ///< valid when format == kVnm
  NmPattern nm;   ///< valid when format == kNm
};

/// Argument pack for one C = A * B (or Aᵀ * B, or an SDDMM — see
/// `kind`). Exactly one left-operand pointer is set (matching the format
/// the make() overloads record); all pointees must outlive the run()
/// call. For kSddmm, `vnm` is the sampling structure and `dense` carries
/// the rows x depth A operand.
struct MatmulArgs {
  OpKind kind = OpKind::kMatmul;
  const HalfMatrix* dense = nullptr;
  const VnmMatrix* vnm = nullptr;
  const NmMatrix* nm = nullptr;
  const CvseMatrix* cvse = nullptr;
  const CsrMatrix* csr = nullptr;
  const quant::QuantizedVnmMatrix* qvnm = nullptr;
  const quant::Fp8VnmMatrix* f8vnm = nullptr;
  const HalfMatrix* b = nullptr;

  /// Optional explicit kernel configuration for V:N:M backends (benches
  /// and ablations). Null lets the backend select one per call from the
  /// context's tuning cache. Either way the weight's prepared operands
  /// still come from the context's PlanCache when `vnm_shared` is set.
  const spatha::SpmmConfig* config = nullptr;

  /// Optional shared handle to the V:N:M operand plus its precomputed
  /// weight_fingerprint(). A holder of an immutable compressed weight
  /// (transformer::Linear) supplies both, so dispatch keeps the weight's
  /// packed form and quantized images in the context's PlanCache, one
  /// entry per weight at every batch width, without re-hashing O(nnz)
  /// structures per call.
  std::shared_ptr<const VnmMatrix> vnm_shared;
  std::uint64_t vnm_fingerprint = 0;

  /// Optional packed float image of the left operand, fp16 or decoded
  /// fp8, built once by the weight's holder (transformer::Linear). With
  /// `vnm` its source() is *vnm: vnm-fast runs over it instead of
  /// packing, and the PlanCache entry adopts it. With `f8vnm` it is
  /// quant::pack_decoded(*f8vnm): vnm-fp8 runs over it instead of
  /// decoding, after checking its shape and format.
  std::shared_ptr<const spatha::PackedVnm> vnm_packed;

  /// Shared handles keeping caller-owned quantized operands alive (the
  /// quantized analogues of vnm_shared; transformer::Linear's
  /// quantized-weight mode supplies these).
  std::shared_ptr<const quant::QuantizedVnmMatrix> qvnm_shared;
  std::shared_ptr<const quant::Fp8VnmMatrix> f8vnm_shared;

  static MatmulArgs make(const HalfMatrix& a, const HalfMatrix& b);
  static MatmulArgs make(const VnmMatrix& a, const HalfMatrix& b);
  static MatmulArgs make(const NmMatrix& a, const HalfMatrix& b);
  static MatmulArgs make(const CvseMatrix& a, const HalfMatrix& b);
  static MatmulArgs make(const CsrMatrix& a, const HalfMatrix& b);
  /// Fingerprinted V:N:M form, prepared once per weight (see vnm_shared).
  static MatmulArgs make(std::shared_ptr<const VnmMatrix> a,
                         std::uint64_t fingerprint, const HalfMatrix& b);

  /// Pre-quantized left operands: desc().dtype reports the reduced
  /// precision and dispatch selects the matching quantized backend.
  static MatmulArgs make(const quant::QuantizedVnmMatrix& a,
                         const HalfMatrix& b);
  static MatmulArgs make(const quant::Fp8VnmMatrix& a, const HalfMatrix& b);
  /// Shared-handle forms (the quantized vnm_shared analogues).
  static MatmulArgs make(std::shared_ptr<const quant::QuantizedVnmMatrix> a,
                         const HalfMatrix& b);
  static MatmulArgs make(std::shared_ptr<const quant::Fp8VnmMatrix> a,
                         const HalfMatrix& b);

  /// Transposed product C(K x C) = Aᵀ(K x R) * B(R x C): the
  /// input-gradient of a (sparse or dense) linear layer.
  static MatmulArgs make_transposed(const VnmMatrix& a, const HalfMatrix& b);
  static MatmulArgs make_transposed(const HalfMatrix& a, const HalfMatrix& b);

  /// SDDMM: (A * B) sampled at `structure`'s nonzero positions, with
  /// A(rows x depth) and B(depth x cols) matching the structure's shape —
  /// the masked weight-gradient of a sparse linear layer.
  static MatmulArgs make_sddmm(const VnmMatrix& structure,
                               const HalfMatrix& a, const HalfMatrix& b);

  /// The shape/format summary selection dispatches on.
  MatmulDesc desc() const;
};

/// One registered matmul implementation.
class Matmul {
 public:
  virtual ~Matmul() = default;

  /// Stable registry key ("vnm-fast", "csr", ...).
  virtual std::string_view name() const = 0;
  /// One-line human description (venomtool backends).
  virtual std::string describe() const = 0;
  /// Selection rank among the backends that support a problem; larger
  /// wins. Production paths sit above oracle/fidelity paths so default
  /// dispatch always matches the pre-ops hand-picked kernel.
  virtual int priority() const = 0;
  /// Whether this backend can run the described problem as compiled for
  /// `cpu_features` (see common/cpu_features.hpp).
  virtual bool supports(const MatmulDesc& desc,
                        const std::string& cpu_features) const = 0;
  /// C = A * B with fp32 output.
  virtual FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const = 0;
  /// Fused-epilogue run (bias / activation, fp16 output). The default
  /// computes run() and applies the epilogue row-wise afterwards — the
  /// same float-domain bias+activation followed by one bulk fp16
  /// conversion per row the fused Spatha stage 3 performs, so results
  /// are bit-identical whether or not a backend overrides this.
  virtual HalfMatrix run_fused(const MatmulArgs& args,
                               const spatha::Epilogue& epilogue,
                               ExecContext& ctx) const;
  /// SDDMM run (kind == kSddmm): the sampled product in the structure's
  /// own compressed format. The default throws — only backends whose
  /// supports() accepts kSddmm descs implement it.
  virtual VnmMatrix run_sddmm(const MatmulArgs& args, ExecContext& ctx) const;
};

/// Process-wide registry of matmul backends. The built-in kernel
/// families self-register on first access; add() accepts additional
/// backends at runtime (a registered name is permanent — entries are
/// never removed, so callers may cache the returned pointers).
class BackendRegistry {
 public:
  static BackendRegistry& instance();

  /// Registers a backend. Throws venom::Error on a duplicate name.
  void add(std::unique_ptr<Matmul> backend) VENOM_EXCLUDES(mutex_);

  /// The backend named `name`, or nullptr.
  const Matmul* find(std::string_view name) const VENOM_EXCLUDES(mutex_);

  /// All registered backends in registration order.
  std::vector<const Matmul*> backends() const VENOM_EXCLUDES(mutex_);

  /// The backend dispatch would run for `desc`: the forced backend
  /// (ops::force_backend, else $VENOM_BACKEND) when it exists and
  /// supports the problem, else the highest-priority supporting backend
  /// (ties break toward earlier registration). Throws venom::Error when
  /// no registered backend supports the problem.
  const Matmul& select(const MatmulDesc& desc) const;

  /// select() plus why: `forced_ignored` names an override that was
  /// requested but skipped (unknown name or supports() rejection).
  struct Selection {
    const Matmul* backend = nullptr;
    std::string forced_ignored;
  };
  Selection select_explained(const MatmulDesc& desc) const
      VENOM_EXCLUDES(mutex_);

 private:
  BackendRegistry() = default;

  // Read-mostly: every dispatch takes a reader lock; add() (rare,
  // append-only) takes the writer one.
  mutable SharedMutex mutex_;
  std::vector<std::unique_ptr<Matmul>> backends_ VENOM_GUARDED_BY(mutex_);
};

/// Programmatically forces dispatch to the named backend (subject to
/// supports(); see BackendRegistry::select). Empty clears. Returns the
/// previous value. Takes precedence over $VENOM_BACKEND.
std::string force_backend(std::string name);

/// The current programmatic override (empty = none).
std::string forced_backend();

/// RAII scope for force_backend — benches pin the kernel family they
/// measure and restore the previous override on exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(std::string name)
      : previous_(force_backend(std::move(name))) {}
  ~ScopedBackend() { force_backend(std::move(previous_)); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  std::string previous_;
};

/// Dispatches C = A * B through the selected backend.
FloatMatrix matmul(const MatmulArgs& args, ExecContext& ctx);
/// Same against the process-wide ExecContext::global().
FloatMatrix matmul(const MatmulArgs& args);

/// Dispatches the fused-epilogue product (fp16 output).
HalfMatrix matmul_fused(const MatmulArgs& args,
                        const spatha::Epilogue& epilogue, ExecContext& ctx);
HalfMatrix matmul_fused(const MatmulArgs& args,
                        const spatha::Epilogue& epilogue);

/// Dispatches C = Aᵀ * B (args from make_transposed) through the
/// selected kMatmulTransposed backend.
FloatMatrix matmul_transposed(const MatmulArgs& args, ExecContext& ctx);
FloatMatrix matmul_transposed(const MatmulArgs& args);

/// Dispatches the sampled product (args from make_sddmm) through the
/// selected kSddmm backend.
VnmMatrix sddmm(const MatmulArgs& args, ExecContext& ctx);
VnmMatrix sddmm(const MatmulArgs& args);

}  // namespace venom::ops
