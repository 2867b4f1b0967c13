#include "ops/matmul.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/half.hpp"

namespace venom::ops {

const char* to_string(OperandFormat f) {
  switch (f) {
    case OperandFormat::kDense: return "dense";
    case OperandFormat::kVnm: return "vnm";
    case OperandFormat::kNm: return "nm";
    case OperandFormat::kCvse: return "cvse";
    case OperandFormat::kCsr: return "csr";
  }
  return "?";
}

MatmulArgs MatmulArgs::make(const HalfMatrix& a, const HalfMatrix& b) {
  MatmulArgs args;
  args.dense = &a;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(const VnmMatrix& a, const HalfMatrix& b) {
  MatmulArgs args;
  args.vnm = &a;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(const NmMatrix& a, const HalfMatrix& b) {
  MatmulArgs args;
  args.nm = &a;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(const CvseMatrix& a, const HalfMatrix& b) {
  MatmulArgs args;
  args.cvse = &a;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(const CsrMatrix& a, const HalfMatrix& b) {
  MatmulArgs args;
  args.csr = &a;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(std::shared_ptr<const VnmMatrix> a,
                            std::uint64_t fingerprint, const HalfMatrix& b) {
  MatmulArgs args;
  args.vnm_shared = std::move(a);
  args.vnm = args.vnm_shared.get();
  args.vnm_fingerprint = fingerprint;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(const quant::QuantizedVnmMatrix& a,
                            const HalfMatrix& b) {
  MatmulArgs args;
  args.qvnm = &a;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(const quant::Fp8VnmMatrix& a,
                            const HalfMatrix& b) {
  MatmulArgs args;
  args.f8vnm = &a;
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(std::shared_ptr<const quant::QuantizedVnmMatrix> a,
                            const HalfMatrix& b) {
  MatmulArgs args;
  args.qvnm_shared = std::move(a);
  args.qvnm = args.qvnm_shared.get();
  args.b = &b;
  return args;
}

MatmulArgs MatmulArgs::make(std::shared_ptr<const quant::Fp8VnmMatrix> a,
                            const HalfMatrix& b) {
  MatmulArgs args;
  args.f8vnm_shared = std::move(a);
  args.f8vnm = args.f8vnm_shared.get();
  args.b = &b;
  return args;
}

MatmulDesc MatmulArgs::desc() const {
  MatmulDesc d;
  VENOM_CHECK_MSG(b != nullptr, "MatmulArgs without a dense right operand");
  d.b_cols = b->cols();
  if (qvnm != nullptr) {
    d.format = OperandFormat::kVnm;
    d.dtype = Dtype::kI8;
    d.rows = qvnm->rows();
    d.cols = qvnm->cols();
    d.vnm = qvnm->config();
  } else if (f8vnm != nullptr) {
    d.format = OperandFormat::kVnm;
    d.dtype = f8vnm->format() == Fp8Format::kE5M2 ? Dtype::kF8E5M2
                                                  : Dtype::kF8E4M3;
    d.rows = f8vnm->rows();
    d.cols = f8vnm->cols();
    d.vnm = f8vnm->config();
  } else if (vnm != nullptr) {
    d.format = OperandFormat::kVnm;
    d.rows = vnm->rows();
    d.cols = vnm->cols();
    d.vnm = vnm->config();
  } else if (nm != nullptr) {
    d.format = OperandFormat::kNm;
    d.rows = nm->rows();
    d.cols = nm->cols();
    d.nm = nm->pattern();
  } else if (cvse != nullptr) {
    d.format = OperandFormat::kCvse;
    d.rows = cvse->rows();
    d.cols = cvse->cols();
  } else if (csr != nullptr) {
    d.format = OperandFormat::kCsr;
    d.rows = csr->rows();
    d.cols = csr->cols();
  } else if (dense != nullptr) {
    d.format = OperandFormat::kDense;
    d.rows = dense->rows();
    d.cols = dense->cols();
  } else {
    VENOM_CHECK_MSG(false, "MatmulArgs without a left operand");
  }
  return d;
}

HalfMatrix Matmul::run_fused(const MatmulArgs& args,
                             const spatha::Epilogue& epilogue,
                             ExecContext& ctx) const {
  FloatMatrix acc = run(args, ctx);
  VENOM_CHECK_MSG(epilogue.bias.empty() || epilogue.bias.size() == acc.rows(),
                  "bias size " << epilogue.bias.size() << " != rows "
                               << acc.rows());
  HalfMatrix y(acc.rows(), acc.cols());
  for (std::size_t r = 0; r < acc.rows(); ++r) {
    float* arow = &acc(r, 0);
    spatha::apply_epilogue(epilogue, r, arow, acc.cols());
    float_to_half_n(arow, &y(r, 0), acc.cols());
  }
  return y;
}

namespace {

// Reader-writer locks: dispatch reads these on every matmul (including
// the multi-worker serving hot path), writes happen only on
// force_backend / registration — SharedMutex keeps concurrent readers
// from serializing on each other. (Meyer-singleton statics cannot carry
// a GUARDED_BY relation the analysis can see across functions; the
// contract here is the narrow accessor pair below, nothing else touches
// forced_name().)
SharedMutex& force_mutex() {
  static SharedMutex m;
  return m;
}

std::string& forced_name() {
  static std::string name;
  return name;
}

}  // namespace

// Defined in backends.cpp: registers the built-in kernel families. Called
// from instance() so the builtins exist before any lookup, without
// relying on static-initializer order or linker retention of otherwise
// unreferenced translation units.
void register_builtin_backends(BackendRegistry& registry);

std::string force_backend(std::string name) {
  WriterMutexLock lock(force_mutex());
  std::string previous = std::move(forced_name());
  forced_name() = std::move(name);
  return previous;
}

std::string forced_backend() {
  ReaderMutexLock lock(force_mutex());
  return forced_name();
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    register_builtin_backends(*r);
    return r;
  }();
  return *registry;
}

void BackendRegistry::add(std::unique_ptr<Matmul> backend) {
  VENOM_CHECK_MSG(backend != nullptr, "null backend");
  WriterMutexLock lock(mutex_);
  for (const auto& existing : backends_)
    VENOM_CHECK_MSG(existing->name() != backend->name(),
                    "backend '" << backend->name() << "' already registered");
  backends_.push_back(std::move(backend));
}

const Matmul* BackendRegistry::find(std::string_view name) const {
  ReaderMutexLock lock(mutex_);
  for (const auto& backend : backends_)
    if (backend->name() == name) return backend.get();
  return nullptr;
}

std::vector<const Matmul*> BackendRegistry::backends() const {
  ReaderMutexLock lock(mutex_);
  std::vector<const Matmul*> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) out.push_back(backend.get());
  return out;
}

BackendRegistry::Selection BackendRegistry::select_explained(
    const MatmulDesc& desc) const {
  const std::string& features = cpu_feature_string();
  Selection sel;

  // Override order: programmatic force, then the environment.
  std::string forced = forced_backend();
  if (forced.empty()) {
    if (const char* env = std::getenv("VENOM_BACKEND")) forced = env;
  }

  ReaderMutexLock lock(mutex_);
  if (!forced.empty()) {
    const Matmul* match = nullptr;
    for (const auto& backend : backends_)
      if (backend->name() == forced) match = backend.get();
    if (match != nullptr && match->supports(desc, features)) {
      sel.backend = match;
      return sel;
    }
    // Unknown or unsupporting override: remember it and fall through to
    // normal selection — an override must never break a valid product.
    sel.forced_ignored = forced;
  }

  for (const auto& backend : backends_) {
    if (!backend->supports(desc, features)) continue;
    if (sel.backend == nullptr ||
        backend->priority() > sel.backend->priority())
      sel.backend = backend.get();
  }
  VENOM_CHECK_MSG(sel.backend != nullptr,
                  "no registered backend supports a " << desc.rows
                      << 'x' << desc.cols << 'x' << desc.b_cols
                      << " problem in format " << to_string(desc.format)
                      << " (features " << features << ')');
  return sel;
}

const Matmul& BackendRegistry::select(const MatmulDesc& desc) const {
  return *select_explained(desc).backend;
}

FloatMatrix matmul(const MatmulArgs& args, ExecContext& ctx) {
  return BackendRegistry::instance().select(args.desc()).run(args, ctx);
}

FloatMatrix matmul(const MatmulArgs& args) {
  return matmul(args, ExecContext::global());
}

HalfMatrix matmul_fused(const MatmulArgs& args,
                        const spatha::Epilogue& epilogue, ExecContext& ctx) {
  return BackendRegistry::instance()
      .select(args.desc())
      .run_fused(args, epilogue, ctx);
}

HalfMatrix matmul_fused(const MatmulArgs& args,
                        const spatha::Epilogue& epilogue) {
  return matmul_fused(args, epilogue, ExecContext::global());
}

}  // namespace venom::ops
