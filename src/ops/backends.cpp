// Built-in matmul backends: the forward kernel families dispatch
// chooses from, registered behind the unified venom::ops dispatch.
//
// Priorities encode the pre-ops hand-picked kernel choice so dispatch is
// selection-identical to the code it replaced. Each backend here is the
// one dispatch selects for some desc, except the oracles vnm-scalar and
// vnm-int8-scalar, which stay reachable through VENOM_BACKEND /
// ops::ScopedBackend for the benchmarks that pin them. The other oracles
// and fidelity models (spmm_vnm_mma, spmm_24, the *_scalar kernels) and
// the training products (spmm_vnm_transposed, sddmm_vnm) are plain
// functions their callers run directly.
#include <memory>
#include <sstream>

#include "baselines/gemm.hpp"
#include "baselines/spmm_csr.hpp"
#include "baselines/spmm_cvse.hpp"
#include "common/error.hpp"
#include "ops/matmul.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/spmm.hpp"

namespace venom::ops {

namespace {

/// vnm-fast's kernels (spmm_vnm / spmm_vnm_fused: wide register-blocked
/// and narrow rows-as-lanes stage 2) over a packed float operand,
/// prepared once per weight. The fp16 and fp8 datapaths differ only in
/// where that operand comes from; the args' dtype picks the tuning
/// entries for the kernel configuration, which is chosen per call.
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
  spatha::SpmmConfig config(const spatha::PackedVnm& a,
                            const MatmulArgs& args,
                            const ExecContext& ctx) const {
    if (args.config != nullptr) return *args.config;
    return ctx.select_config(a.config(), a.rows(), a.cols(), args.b->cols(),
                             args.desc().dtype);
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
    return desc.format == OperandFormat::kVnm && desc.dtype == Dtype::kF16;
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
    return desc.format == OperandFormat::kVnm && desc.dtype == Dtype::kF16;
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

/// Row-wise N:M fast path (DFSS-style dynamic attention kernel): any
/// N:M pattern, register-blocked, bit-identical to spmm_24 on the
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
    return desc.format == OperandFormat::kNm;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return spatha::spmm_nm(*args.nm, *args.b, &ctx.pool());
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
    return desc.format == OperandFormat::kCvse;
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
    return desc.format == OperandFormat::kCsr;
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
    return desc.format == OperandFormat::kDense;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return gemm_dense(*args.dense, *args.b, &ctx.pool());
  }
};

// -------------------------------------------------- quantized datapath
//
// The reduced-precision SpMM families (quant/quantized_vnm.hpp). Each
// backend supports its own dtype alone: a weight's dtype, chosen where
// the weight is built (transformer::Linear::set_weight_dtype, an
// EnginePlan's layers[].dtype), is the one datapath switch, and the
// weight is quantized once, in its final format.

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
    return desc.format == OperandFormat::kVnm && desc.dtype == Dtype::kI8;
  }
  FloatMatrix run(const MatmulArgs& args, ExecContext& ctx) const override {
    return quant::spmm_vnm_i8(*args.qvnm, *args.b, config(args, ctx),
                              &ctx.pool(), &ctx.scratch());
  }
  HalfMatrix run_fused(const MatmulArgs& args,
                       const spatha::Epilogue& epilogue,
                       ExecContext& ctx) const override {
    return quant::spmm_vnm_i8_fused(*args.qvnm, *args.b, epilogue,
                                    config(args, ctx), &ctx.pool(),
                                    &ctx.scratch());
  }

 private:
  static spatha::SpmmConfig config(const MatmulArgs& args,
                                   const ExecContext& ctx) {
    if (args.config != nullptr) return *args.config;
    const quant::QuantizedVnmMatrix& a = *args.qvnm;
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
    return desc.format == OperandFormat::kVnm && desc.dtype == Dtype::kI8;
  }
  FloatMatrix run(const MatmulArgs& args,
                  ExecContext& /*ctx*/) const override {
    return quant::spmm_vnm_i8_scalar(
        *args.qvnm, *args.b,
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
    return desc.format == OperandFormat::kVnm &&
           (desc.dtype == Dtype::kF8E5M2 || desc.dtype == Dtype::kF8E4M3);
  }

 private:
  /// The caller's packed decode (an fp8 transformer::Linear packs it
  /// once), else a decode and pack for this call alone.
  std::shared_ptr<const spatha::PackedVnm> packed(
      const MatmulArgs& args, ExecContext& /*ctx*/) const override {
    const quant::Fp8VnmMatrix& a = *args.f8vnm;
    if (args.vnm_packed == nullptr)
      return std::make_shared<const spatha::PackedVnm>(quant::pack_decoded(a));
    const spatha::PackedVnm& p = *args.vnm_packed;
    VENOM_CHECK_MSG(p.rows() == a.rows() && p.cols() == a.cols() &&
                        p.config() == a.config(),
                    "vnm_packed does not match the fp8 operand's shape "
                    "and format");
    return args.vnm_packed;
  }
};

}  // namespace

void register_builtin_backends(BackendRegistry& registry) {
  registry.add(std::make_unique<VnmFastBackend>());
  registry.add(std::make_unique<VnmScalarBackend>());
  registry.add(std::make_unique<VnmInt8Backend>());
  registry.add(std::make_unique<VnmInt8ScalarBackend>());
  registry.add(std::make_unique<VnmFp8Backend>());
  registry.add(std::make_unique<NmBackend>());
  registry.add(std::make_unique<CvseBackend>());
  registry.add(std::make_unique<CsrBackend>());
  registry.add(std::make_unique<DenseGemmBackend>());
}

}  // namespace venom::ops
