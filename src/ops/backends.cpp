// Built-in matmul backends: every kernel family in the repository
// registered behind the unified venom::ops dispatch.
//
// Priorities encode the pre-ops hand-picked kernel choice so dispatch is
// selection-identical to the code it replaced: the production paths
// (vnm-fast, nm, cvse, csr, dense-gemm) outrank the oracle and fidelity
// paths (vnm-scalar, vnm-mma, spmm-24), which remain reachable through
// VENOM_BACKEND / ops::force_backend for parity tests and A/B benches.
#include <memory>
#include <sstream>

#include "baselines/gemm.hpp"
#include "baselines/spmm_24.hpp"
#include "baselines/spmm_csr.hpp"
#include "baselines/spmm_cvse.hpp"
#include "common/error.hpp"
#include "ops/matmul.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/sddmm.hpp"
#include "spatha/spmm.hpp"

namespace venom::ops {

namespace {

/// vnm-fast's kernels (spmm_vnm / spmm_vnm_fused: wide register-blocked
/// and narrow rows-as-lanes stage 2) over a packed float operand,
/// prepared once per weight. The fp16 and fp8 datapaths differ only in
/// where that operand comes from and whose tuning entries pick the
/// kernel configuration, which is chosen per call.
class PackedVnmBackend : public Matmul {
 public:
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const final {
    const auto a = packed(args, ctx);
    return spatha::spmm_vnm(*a, *args.b, config(*a, args, ctx), &ctx.pool(),
                            &ctx.scratch());
  }
  HalfMatrix run_fused(const MatmulArgs& args,
                       const spatha::Epilogue& epilogue,
                       ExecContext& ctx) const final {
    const auto a = packed(args, ctx);
    return spatha::spmm_vnm_fused(*a, *args.b, epilogue,
                                  config(*a, args, ctx), &ctx.pool(),
                                  &ctx.scratch());
  }

 private:
  virtual std::shared_ptr<const spatha::PackedVnm> packed(
      const MatmulArgs& args, ExecContext& ctx) const = 0;
  /// The datapath whose tuning-cache entries pick the configuration.
  virtual Dtype dtype(const MatmulArgs& args) const = 0;
  spatha::SpmmConfig config(const spatha::PackedVnm& a,
                            const MatmulArgs& args,
                            const ExecContext& ctx) const {
    if (args.config != nullptr) return *args.config;
    return ctx.select_config(a.config(), a.rows(), a.cols(), args.b->cols(),
                             dtype(args));
  }
};

/// The production Spatha V:N:M pipeline over the packed fp16 weight.
class VnmFastBackend final : public PackedVnmBackend {
 public:
  std::string_view name() const override { return "vnm-fast"; }
  std::string describe() const override {
    return "Spatha V:N:M SpMM over the packed weight, register-blocked "
           "wide / rows-as-lanes narrow (production)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kVnm && desc.dtype == Dtype::kF16;
  }

 private:
  /// The caller's packed operand (transformer::Linear packs at
  /// sparsify()), else the context's cached one for a fingerprinted
  /// weight, else a pack for this call alone. A fingerprinted weight
  /// always goes through the cache, which adopts the caller's packed
  /// form and counts the lookup.
  std::shared_ptr<const spatha::PackedVnm> packed(
      const MatmulArgs& args, ExecContext& ctx) const override {
    VENOM_CHECK_MSG(args.vnm_packed == nullptr ||
                        &args.vnm_packed->source() == args.vnm,
                    "vnm_packed was not packed from vnm");
    if (args.vnm_shared != nullptr)
      return ctx.plan_cache().packed(args.vnm_shared, args.vnm_fingerprint,
                                     args.vnm_packed);
    if (args.vnm_packed != nullptr) return args.vnm_packed;
    return std::make_shared<const spatha::PackedVnm>(*args.vnm);
  }
  Dtype dtype(const MatmulArgs& /*args*/) const override { return Dtype::kF16; }
};

/// The seed's element-at-a-time V:N:M loop — perf baseline and
/// bit-exactness oracle for vnm-fast.
class VnmScalarBackend final : public Matmul {
 public:
  std::string_view name() const override { return "vnm-scalar"; }
  std::string describe() const override {
    return "seed scalar V:N:M SpMM (oracle / perf baseline)";
  }
  int priority() const override { return 10; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kVnm && desc.dtype == Dtype::kF16;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    const spatha::SpmmConfig cfg =
        args.config != nullptr
            ? *args.config
            : ctx.select_config(args.vnm->config(), args.vnm->rows(),
                                args.vnm->cols(), args.b->cols());
    return spatha::spmm_vnm_scalar(*args.vnm, *args.b, cfg, &ctx.pool());
  }
};

/// Stage 2 through genuine m16n8k32 mma.sp via the SPTC simulator — the
/// fidelity path proving the Fig. 4 V:N:M mapping is exact.
class VnmMmaBackend final : public Matmul {
 public:
  std::string_view name() const override { return "vnm-mma"; }
  std::string describe() const override {
    return "V:N:M SpMM through the SPTC mma.sp simulator (fidelity)";
  }
  int priority() const override { return 20; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    // The mma.sp preconditions (see spmm_vnm_mma): 2:4-mapped format,
    // 16 | V, gathered K divisible by 32, 8 | C.
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kVnm && desc.dtype == Dtype::kF16 &&
           desc.vnm.n == 2 &&
           desc.vnm.selected_cols() == 4 && desc.vnm.v % 16 == 0 &&
           desc.vnm.m != 0 && (desc.cols / desc.vnm.m) * 4 % 32 == 0 &&
           desc.b_cols % 8 == 0;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return spatha::spmm_vnm_mma(*args.vnm, *args.b, &ctx.pool());
  }
};

/// Row-wise N:M fast path (DFSS-style dynamic attention kernel): any
/// N:M pattern, register-blocked, bit-identical to spmm-24 on the
/// hardware patterns.
class NmBackend final : public Matmul {
 public:
  std::string_view name() const override { return "nm"; }
  std::string describe() const override {
    return "row-wise N:M SpMM, register-blocked (dynamic attention fast "
           "path)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul && desc.format == OperandFormat::kNm;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return spatha::spmm_nm(*args.nm, *args.b, &ctx.pool());
  }
};

/// The cuSparseLt stand-in: scalar traversal restricted to the hardware
/// 2:4 / 1:2 patterns. Below NmBackend so default dispatch takes the
/// register-blocked path (bit-identical results).
class Spmm24Backend final : public Matmul {
 public:
  std::string_view name() const override { return "spmm-24"; }
  std::string describe() const override {
    return "2:4 / 1:2 N:M SpMM baseline (cuSparseLt stand-in)";
  }
  int priority() const override { return 50; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kNm &&
           ((desc.nm.n == 2 && desc.nm.m == 4) ||
            (desc.nm.n == 1 && desc.nm.m == 2));
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return spmm_24(*args.nm, *args.b, &ctx.pool());
  }
};

/// Column-vector-sparse SpMM (CLASP / vectorSparse stand-in).
class CvseBackend final : public Matmul {
 public:
  std::string_view name() const override { return "cvse"; }
  std::string describe() const override {
    return "column-vector-sparse SpMM (CLASP stand-in)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul && desc.format == OperandFormat::kCvse;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return spmm_cvse(*args.cvse, *args.b, &ctx.pool());
  }
};

/// Unstructured CSR SpMM (Sputnik stand-in).
class CsrBackend final : public Matmul {
 public:
  std::string_view name() const override { return "csr"; }
  std::string describe() const override {
    return "unstructured CSR SpMM (Sputnik stand-in)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul && desc.format == OperandFormat::kCsr;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return spmm_csr(*args.csr, *args.b, &ctx.pool());
  }
};

/// Dense fp16 GEMM (cuBLAS stand-in) — the fallback every dense Linear
/// routes through.
class DenseGemmBackend final : public Matmul {
 public:
  std::string_view name() const override { return "dense-gemm"; }
  std::string describe() const override {
    return "dense fp16 GEMM, fp32 accumulation (cuBLAS stand-in)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul && desc.format == OperandFormat::kDense;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return gemm_dense(*args.dense, *args.b, &ctx.pool());
  }
};

// -------------------------------------------------- quantized datapath
//
// The reduced-precision SpMM families (quant/quantized_vnm.hpp). Each
// backend supports its own dtype AND plain fp16 V:N:M descs: fp16 args
// quantize on the fly (to int8, or to fp8-E4M3 and its packed decode) —
// kept in the weight's PlanCache entry when the caller supplied a
// fingerprint (the serving tier), fresh otherwise — so
// `VENOM_BACKEND=vnm-int8` reroutes an entire fp16 model without any
// call-site change. Priority 40 keeps fp16 dispatch on vnm-fast by
// default: quantized execution engages only for explicitly quantized
// args or through an override.

/// The int8 left operand of a quantized dispatch: the caller's own image,
/// else the context's cached image of a fingerprinted fp16 weight,
/// else a fresh quantization of a one-shot fp16 weight. Shared by the
/// fast backend and its oracle so both run on the same image.
std::shared_ptr<const quant::QuantizedVnmMatrix> int8_operand(
    const MatmulArgs& args, ExecContext& ctx) {
  if (args.qvnm != nullptr)  // non-owning: the caller keeps it alive
    return {std::shared_ptr<const quant::QuantizedVnmMatrix>(), args.qvnm};
  if (args.vnm_shared != nullptr)
    return ctx.plan_cache().int8(args.vnm_shared, args.vnm_fingerprint);
  return std::make_shared<const quant::QuantizedVnmMatrix>(
      quant::QuantizedVnmMatrix::quantize(*args.vnm));
}

/// Quad int8 panels, int32 accumulation (AMX tiles where the process
/// has them), per-row x per-column scale dequantization on the epilogue.
class VnmInt8Backend final : public Matmul {
 public:
  std::string_view name() const override { return "vnm-int8"; }
  std::string describe() const override {
    return "int8 V:N:M SpMM, quad int8 panels + int32 accumulation "
           "(quantized production); stage 2: " +
           quant::int8_stage2_body();
  }
  int priority() const override { return 40; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kVnm &&
           (desc.dtype == Dtype::kI8 || desc.dtype == Dtype::kF16);
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    const auto a = int8_operand(args, ctx);
    return quant::spmm_vnm_i8(*a, *args.b, config(*a, args, ctx),
                              &ctx.pool(), &ctx.scratch());
  }
  HalfMatrix run_fused(const MatmulArgs& args,
                       const spatha::Epilogue& epilogue,
                       ExecContext& ctx) const override {
    const auto a = int8_operand(args, ctx);
    return quant::spmm_vnm_i8_fused(*a, *args.b, epilogue,
                                    config(*a, args, ctx), &ctx.pool(),
                                    &ctx.scratch());
  }

 private:
  static spatha::SpmmConfig config(const quant::QuantizedVnmMatrix& a,
                                   const MatmulArgs& args,
                                   const ExecContext& ctx) {
    if (args.config != nullptr) return *args.config;
    return ctx.select_config(a.config(), a.rows(), a.cols(), args.b->cols(),
                             Dtype::kI8);
  }
};

/// Naive int8 traversal — the bit-exactness oracle for vnm-int8.
class VnmInt8ScalarBackend final : public Matmul {
 public:
  std::string_view name() const override { return "vnm-int8-scalar"; }
  std::string describe() const override {
    return "naive int8 V:N:M SpMM (oracle)";
  }
  int priority() const override { return 10; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kVnm &&
           (desc.dtype == Dtype::kI8 || desc.dtype == Dtype::kF16);
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return quant::spmm_vnm_i8_scalar(
        *int8_operand(args, ctx), *args.b,
        args.config != nullptr ? args.config->column_loc
                               : spatha::ColumnLocMode::kEnabled);
  }
};

/// fp8-stored weights decoded once into the packed operand
/// (quant::pack_decoded), then vnm-fast's kernels over it.
class VnmFp8Backend final : public PackedVnmBackend {
 public:
  std::string_view name() const override { return "vnm-fp8"; }
  std::string describe() const override {
    return "fp8 (e5m2/e4m3) V:N:M SpMM, vnm-fast over the packed decode "
           "(quantized production)";
  }
  int priority() const override { return 40; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kVnm &&
           (desc.dtype == Dtype::kF8E5M2 || desc.dtype == Dtype::kF8E4M3 ||
            desc.dtype == Dtype::kF16);
  }

 private:
  /// The caller's packed decode of fp8 args (an fp8 transformer::Linear
  /// packs it once; with fp16 args `vnm_packed` is the fp16 form), else
  /// the context's cached decode of a fingerprinted fp16 weight's E4M3
  /// image (the higher-precision layout, the right trade for weights),
  /// else a pack for this call alone.
  std::shared_ptr<const spatha::PackedVnm> packed(
      const MatmulArgs& args, ExecContext& ctx) const override {
    if (const quant::Fp8VnmMatrix* a = args.f8vnm) {
      if (args.vnm_packed == nullptr)
        return std::make_shared<const spatha::PackedVnm>(
            quant::pack_decoded(*a));
      const spatha::PackedVnm& p = *args.vnm_packed;
      VENOM_CHECK_MSG(p.rows() == a->rows() && p.cols() == a->cols() &&
                          p.config() == a->config(),
                      "vnm_packed does not match the fp8 operand's shape "
                      "and format");
      return args.vnm_packed;
    }
    if (args.vnm_shared != nullptr)
      return ctx.plan_cache().fp8(args.vnm_shared, args.vnm_fingerprint);
    return std::make_shared<const spatha::PackedVnm>(quant::pack_decoded(
        quant::Fp8VnmMatrix::quantize(*args.vnm, Fp8Format::kE4M3)));
  }
  /// Either format tunes under "+fp8".
  Dtype dtype(const MatmulArgs& args) const override {
    return args.f8vnm != nullptr && args.f8vnm->format() == Fp8Format::kE5M2
               ? Dtype::kF8E5M2
               : Dtype::kF8E4M3;
  }
};

/// Naive fp8 traversal — the bit-exactness oracle for vnm-fp8. It runs on
/// a real Fp8VnmMatrix (fp16 args quantize to E4M3 per call), so it
/// decodes per element.
class VnmFp8ScalarBackend final : public Matmul {
 public:
  std::string_view name() const override { return "vnm-fp8-scalar"; }
  std::string describe() const override {
    return "naive fp8 V:N:M SpMM (oracle)";
  }
  int priority() const override { return 10; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmul &&
           desc.format == OperandFormat::kVnm &&
           (desc.dtype == Dtype::kF8E5M2 || desc.dtype == Dtype::kF8E4M3 ||
            desc.dtype == Dtype::kF16);
  }
  FloatMatrix run(const MatmulArgs& args,
                  ExecContext& /*ctx*/) const override {
    const spatha::ColumnLocMode mode = args.config != nullptr
                                           ? args.config->column_loc
                                           : spatha::ColumnLocMode::kEnabled;
    if (args.f8vnm != nullptr)
      return quant::spmm_vnm_fp8_scalar(*args.f8vnm, *args.b, mode);
    return quant::spmm_vnm_fp8_scalar(
        quant::Fp8VnmMatrix::quantize(*args.vnm, Fp8Format::kE4M3), *args.b,
        mode);
  }
};

// ------------------------------------------------------- backward kinds
//
// The training ops (input-gradient transposed SpMM, weight-gradient
// SDDMM) register as their own OpKinds, each with a production path and
// a scalar oracle reachable through the same override machinery the
// forward families use (VENOM_BACKEND / ops::ScopedBackend).

/// dL/dX = Aᵀ * B over a V:N:M left operand: the scatter kernel with
/// per-task partial reduction. Tuning-cache aware through the context
/// (the forward problem's tuned chunk grain carries over).
class VnmTransposedBackend final : public Matmul {
 public:
  std::string_view name() const override { return "vnm-t"; }
  std::string describe() const override {
    return "transposed V:N:M SpMM, per-task partial scatter "
           "(input-gradient, production)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmulTransposed &&
           desc.format == OperandFormat::kVnm;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    const spatha::SpmmConfig cfg =
        args.config != nullptr
            ? *args.config
            : ctx.select_config(args.vnm->config(), args.vnm->rows(),
                                args.vnm->cols(), args.b->cols());
    return spatha::spmm_vnm_transposed(*args.vnm, *args.b, cfg, &ctx.pool());
  }
};

/// Single-threaded ascending-row scatter: the transposed oracle.
class VnmTransposedScalarBackend final : public Matmul {
 public:
  std::string_view name() const override { return "vnm-t-scalar"; }
  std::string describe() const override {
    return "naive transposed V:N:M SpMM (oracle)";
  }
  int priority() const override { return 10; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmulTransposed &&
           desc.format == OperandFormat::kVnm;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    (void)ctx;
    return spatha::spmm_vnm_transposed_scalar(
        *args.vnm, *args.b,
        args.config != nullptr ? args.config->column_loc
                               : spatha::ColumnLocMode::kEnabled);
  }
};

/// Dense transposed GEMM: explicit transpose then the dense kernel —
/// what the dense Linear backward hand-coded before this kind existed
/// (bit-identical to that sequence by construction).
class DenseTransposedBackend final : public Matmul {
 public:
  std::string_view name() const override { return "dense-gemm-t"; }
  std::string describe() const override {
    return "dense transposed GEMM (explicit transpose + dense-gemm)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kMatmulTransposed &&
           desc.format == OperandFormat::kDense;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return gemm_dense(transpose(*args.dense), *args.b, &ctx.pool());
  }
};

/// Masked weight-gradient SDDMM over the V:N:M structure: the packed
/// column-panel + lane-blocked dot pipeline, with the context's tuning
/// cache supplying the chunk grain and its scratch pool recycling the
/// panels across calls.
class SddmmBackend final : public Matmul {
 public:
  std::string_view name() const override { return "sddmm"; }
  std::string describe() const override {
    return "V:N:M SDDMM, packed column panels + lane-blocked dots "
           "(weight-gradient, production)";
  }
  int priority() const override { return 100; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kSddmm &&
           desc.format == OperandFormat::kVnm;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    (void)args;
    (void)ctx;
    VENOM_CHECK_MSG(false, "SDDMM backends run through run_sddmm()");
    return {};
  }
  VnmMatrix run_sddmm(const MatmulArgs& args,
                      ExecContext& ctx) const override {
    const spatha::SpmmConfig cfg =
        args.config != nullptr
            ? *args.config
            : ctx.select_config(args.vnm->config(), args.vnm->rows(),
                                args.vnm->cols(), args.dense->cols());
    return spatha::sddmm_vnm(*args.vnm, *args.dense, *args.b, cfg,
                             &ctx.pool(), &ctx.scratch());
  }
};

/// Naive single-accumulator SDDMM: the gradient checks' oracle.
class SddmmScalarBackend final : public Matmul {
 public:
  std::string_view name() const override { return "sddmm-scalar"; }
  std::string describe() const override {
    return "naive V:N:M SDDMM (oracle)";
  }
  int priority() const override { return 10; }
  bool supports(const MatmulDesc& desc,
                const std::string& /*cpu_features*/) const override {
    return desc.kind == OpKind::kSddmm &&
           desc.format == OperandFormat::kVnm;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    (void)args;
    (void)ctx;
    VENOM_CHECK_MSG(false, "SDDMM backends run through run_sddmm()");
    return {};
  }
  VnmMatrix run_sddmm(const MatmulArgs& args,
                      ExecContext& ctx) const override {
    (void)ctx;
    return spatha::sddmm_vnm_scalar(
        *args.vnm, *args.dense, *args.b,
        args.config != nullptr ? args.config->column_loc
                               : spatha::ColumnLocMode::kEnabled);
  }
};

}  // namespace

void register_builtin_backends(BackendRegistry& registry) {
  registry.add(std::make_unique<VnmFastBackend>());
  registry.add(std::make_unique<VnmScalarBackend>());
  registry.add(std::make_unique<VnmMmaBackend>());
  registry.add(std::make_unique<VnmInt8Backend>());
  registry.add(std::make_unique<VnmInt8ScalarBackend>());
  registry.add(std::make_unique<VnmFp8Backend>());
  registry.add(std::make_unique<VnmFp8ScalarBackend>());
  registry.add(std::make_unique<NmBackend>());
  registry.add(std::make_unique<Spmm24Backend>());
  registry.add(std::make_unique<CvseBackend>());
  registry.add(std::make_unique<CsrBackend>());
  registry.add(std::make_unique<DenseGemmBackend>());
  registry.add(std::make_unique<VnmTransposedBackend>());
  registry.add(std::make_unique<VnmTransposedScalarBackend>());
  registry.add(std::make_unique<DenseTransposedBackend>());
  registry.add(std::make_unique<SddmmBackend>());
  registry.add(std::make_unique<SddmmScalarBackend>());
}

}  // namespace venom::ops
