// Dispatcher parity and selection tests for the venom::ops layer.
//
// Every registered backend is exercised against the kernel oracles on
// ragged shapes (and both ColumnLocModes for the V:N:M family); backend
// selection is pinned to the pre-ops hand-picked kernels; and the
// VENOM_BACKEND / force_backend overrides are shown to apply when valid
// and to fall back to normal selection when the forced backend is
// unknown or rejects the problem.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "baselines/gemm.hpp"
#include "baselines/spmm_24.hpp"
#include "baselines/spmm_csr.hpp"
#include "baselines/spmm_cvse.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "io/serialize.hpp"
#include "ops/ops.hpp"
#include "pruning/policies.hpp"
#include "spatha/microkernel.hpp"
#include "spatha/plan.hpp"
#include "spatha/spmm.hpp"

namespace venom::ops {
namespace {

VnmMatrix random_vnm(std::size_t rows, std::size_t cols, VnmConfig cfg,
                     std::uint64_t seed) {
  Rng rng(seed);
  return VnmMatrix::from_dense_magnitude(random_half_matrix(rows, cols, rng),
                                         cfg);
}

// Ragged problem set: widths that are not multiples of the register
// strips, group counts that are not multiples of groups-per-panel, and
// an M<4 degenerate format (same family as the spmm_fast parity suite).
struct VnmCase {
  VnmConfig fmt;
  std::size_t rows, cols, b_cols;
};

const VnmCase kVnmCases[] = {
    {{4, 2, 8}, 16, 80, 70},
    {{8, 2, 10}, 32, 110, 37},
    {{16, 2, 4}, 32, 64, 33},
    {{2, 2, 5}, 8, 25, 19},
    {{4, 1, 2}, 8, 16, 20},
};

MatmulDesc vnm_desc(const VnmCase& c) {
  MatmulDesc d;
  d.rows = c.rows;
  d.cols = c.cols;
  d.b_cols = c.b_cols;
  d.format = OperandFormat::kVnm;
  d.vnm = c.fmt;
  return d;
}

TEST(OpsRegistry, BuiltinFamiliesAreRegistered) {
  // The backends dispatch can choose, plus the two oracles benchmarks pin
  // through ScopedBackend (vnm-scalar, vnm-int8-scalar), in registration
  // order.
  auto& registry = BackendRegistry::instance();
  std::vector<std::string_view> names;
  for (const Matmul* backend : registry.backends()) {
    EXPECT_FALSE(backend->describe().empty()) << backend->name();
    EXPECT_EQ(registry.find(backend->name()), backend);
    names.push_back(backend->name());
  }
  const std::vector<std::string_view> want = {
      "vnm-fast", "vnm-scalar", "vnm-int8", "vnm-int8-scalar", "vnm-fp8",
      "nm", "cvse", "csr", "dense-gemm", "vnm-t", "dense-gemm-t", "sddmm"};
  EXPECT_EQ(names, want);
  EXPECT_EQ(registry.find("no-such-backend"), nullptr);
}

TEST(OpsRegistry, RejectsDuplicateNames) {
  // The builtins are already registered, so re-registering any of their
  // names must throw (registering a live second "csr" would make
  // dispatch ambiguous).
  class FakeCsr final : public Matmul {
   public:
    std::string_view name() const override { return "csr"; }
    std::string describe() const override { return "dup"; }
    int priority() const override { return 1; }
    bool supports(const MatmulDesc&, const std::string&) const override {
      return false;
    }
    FloatMatrix run(const MatmulArgs&, ExecContext&) const override {
      return {};
    }
  };
  EXPECT_THROW(BackendRegistry::instance().add(std::make_unique<FakeCsr>()),
               Error);
}

TEST(OpsDispatch, SelectionMatchesPreOpsKernelChoice) {
  // Format alone routes to the production kernel family each call site
  // hand-picked before the ops layer existed.
  auto& registry = BackendRegistry::instance();
  MatmulDesc vnm = vnm_desc(kVnmCases[0]);
  EXPECT_EQ(registry.select(vnm).name(), "vnm-fast");

  MatmulDesc nm;
  nm.format = OperandFormat::kNm;
  nm.rows = 16;
  nm.cols = 32;
  nm.b_cols = 8;
  nm.nm = {2, 4};
  EXPECT_EQ(registry.select(nm).name(), "nm");
  nm.nm = {2, 8};  // a pattern the 2:4 hardware does not run
  EXPECT_EQ(registry.select(nm).name(), "nm");

  MatmulDesc dense;
  dense.format = OperandFormat::kDense;
  dense.rows = dense.cols = dense.b_cols = 8;
  EXPECT_EQ(registry.select(dense).name(), "dense-gemm");

  MatmulDesc csr = dense;
  csr.format = OperandFormat::kCsr;
  EXPECT_EQ(registry.select(csr).name(), "csr");

  MatmulDesc cvse = dense;
  cvse.format = OperandFormat::kCvse;
  EXPECT_EQ(registry.select(cvse).name(), "cvse");
}

TEST(OpsDispatch, VnmBackendsMatchReferenceAcrossRaggedShapes) {
  ExecContext ctx;
  std::uint64_t seed = 900;
  for (const VnmCase& c : kVnmCases) {
    Rng rng(seed + 1);
    const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, seed);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    const FloatMatrix ref = spatha::spmm_vnm_reference(a, b);
    const MatmulArgs args = MatmulArgs::make(a, b);
    const MatmulDesc desc = args.desc();

    for (const Matmul* backend : BackendRegistry::instance().backends()) {
      if (!backend->supports(desc, cpu_feature_string())) continue;
      const FloatMatrix got = backend->run(args, ctx);
      EXPECT_EQ(got, ref) << backend->name();
    }
    seed += 7;
  }
}

TEST(OpsDispatch, VnmBackendsAgreeOnBothColumnLocModes) {
  // The kFixed ablation selects different B rows than the real
  // column-loc gather, so it cannot be compared to the reference —
  // but every V:N:M backend taking a config must agree with the scalar
  // oracle bit-for-bit under both modes.
  ExecContext ctx;
  std::uint64_t seed = 1300;
  for (const VnmCase& c : kVnmCases) {
    Rng rng(seed + 1);
    const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, seed);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    for (const spatha::ColumnLocMode mode :
         {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
      spatha::SpmmConfig cfg =
          spatha::select_config(c.fmt, c.rows, c.cols, c.b_cols);
      cfg.column_loc = mode;
      MatmulArgs args = MatmulArgs::make(a, b);
      args.config = &cfg;
      const FloatMatrix fast =
          BackendRegistry::instance().find("vnm-fast")->run(args, ctx);
      const FloatMatrix scalar =
          BackendRegistry::instance().find("vnm-scalar")->run(args, ctx);
      EXPECT_EQ(fast, scalar)
          << "mode " << (mode == spatha::ColumnLocMode::kFixed ? "fixed"
                                                               : "enabled");
    }
    seed += 7;
  }
}

TEST(OpsDispatch, NmBackendsBitIdenticalOnHardwarePatterns) {
  Rng rng(41);
  ExecContext ctx;
  const HalfMatrix dense = random_half_matrix(24, 48, rng);
  const HalfMatrix b = random_half_matrix(48, 19, rng);
  for (const NmPattern pattern : {NmPattern{2, 4}, NmPattern{1, 2}}) {
    const NmMatrix a = NmMatrix::from_dense_magnitude(dense, pattern);
    const MatmulArgs args = MatmulArgs::make(a, b);
    // Default dispatch (nm fast path) vs the 2:4 baseline.
    EXPECT_EQ(matmul(args, ctx), spmm_24(a, b));
  }
}

TEST(OpsDispatch, DenseCvseCsrMatchTheirKernels) {
  Rng rng(43);
  ExecContext ctx;
  const HalfMatrix dense = random_half_matrix(32, 40, rng);
  const HalfMatrix b = random_half_matrix(40, 11, rng);
  EXPECT_EQ(matmul(MatmulArgs::make(dense, b), ctx), gemm_dense(dense, b));

  const CsrMatrix csr =
      CsrMatrix::from_dense(pruning::prune_unstructured(dense, 0.7));
  EXPECT_EQ(matmul(MatmulArgs::make(csr, b), ctx), spmm_csr(csr, b));

  const CvseMatrix cvse = CvseMatrix::from_dense_magnitude(dense, 8, 0.3);
  EXPECT_EQ(matmul(MatmulArgs::make(cvse, b), ctx), spmm_cvse(cvse, b));
}

TEST(OpsDispatch, FusedEpilogueBitIdenticalAcrossBackends) {
  // The generic post-hoc fused path (used by vnm-scalar) and the Spatha
  // fused stage 3 (vnm-fast override) must produce identical fp16 bits.
  Rng rng(47);
  ExecContext ctx;
  const VnmCase& c = kVnmCases[1];
  const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, 77);
  const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
  std::vector<float> bias(c.rows);
  for (auto& v : bias) v = rng.normal();
  for (const spatha::Activation act :
       {spatha::Activation::kNone, spatha::Activation::kRelu,
        spatha::Activation::kGelu}) {
    spatha::Epilogue epilogue;
    epilogue.bias = bias;
    epilogue.activation = act;
    const MatmulArgs args = MatmulArgs::make(a, b);
    const HalfMatrix fused = BackendRegistry::instance()
                                 .find("vnm-fast")
                                 ->run_fused(args, epilogue, ctx);
    const HalfMatrix generic = BackendRegistry::instance()
                                   .find("vnm-scalar")
                                   ->run_fused(args, epilogue, ctx);
    ASSERT_EQ(fused.rows(), generic.rows());
    ASSERT_EQ(fused.cols(), generic.cols());
    for (std::size_t i = 0; i < fused.size(); ++i)
      ASSERT_EQ(fused.flat()[i].bits(), generic.flat()[i].bits());
  }
}

TEST(OpsOverride, ForceBackendAppliesAndRestores) {
  const MatmulDesc desc = vnm_desc(kVnmCases[0]);
  auto& registry = BackendRegistry::instance();
  EXPECT_EQ(registry.select(desc).name(), "vnm-fast");
  {
    const ScopedBackend forced("vnm-scalar");
    EXPECT_EQ(registry.select(desc).name(), "vnm-scalar");
  }
  EXPECT_EQ(registry.select(desc).name(), "vnm-fast");
}

TEST(OpsOverride, EnvVarSelectsBackend) {
  const MatmulDesc desc = vnm_desc(kVnmCases[0]);
  ASSERT_EQ(setenv("VENOM_BACKEND", "vnm-scalar", 1), 0);
  EXPECT_EQ(BackendRegistry::instance().select(desc).name(), "vnm-scalar");
  // Programmatic force outranks the environment.
  {
    const ScopedBackend forced("vnm-fast");
    EXPECT_EQ(BackendRegistry::instance().select(desc).name(), "vnm-fast");
  }
  ASSERT_EQ(unsetenv("VENOM_BACKEND"), 0);
  EXPECT_EQ(BackendRegistry::instance().select(desc).name(), "vnm-fast");
}

TEST(OpsOverride, UnsupportedOrUnknownForceFallsBack) {
  // Forcing a backend that rejects the problem (csr cannot run a V:N:M
  // operand, vnm-int8 an fp16 one) or does not exist must fall back to
  // normal selection — an override can never turn a valid product into
  // an error.
  const MatmulDesc desc = vnm_desc(kVnmCases[3]);
  auto& registry = BackendRegistry::instance();
  for (const char* forced : {"csr", "vnm-int8", "definitely-not-a-backend"}) {
    const ScopedBackend scope(forced);
    const auto sel = registry.select_explained(desc);
    EXPECT_EQ(sel.backend->name(), "vnm-fast") << forced;
    EXPECT_EQ(sel.forced_ignored, forced);
  }
  ASSERT_EQ(setenv("VENOM_BACKEND", "definitely-not-a-backend", 1), 0);
  EXPECT_EQ(registry.select(desc).name(), "vnm-fast");
  ASSERT_EQ(unsetenv("VENOM_BACKEND"), 0);
}

TEST(OpsOverride, ForcedRunsAreBitIdentical) {
  // End to end through matmul(): a forced oracle backend must reproduce
  // the default backend's bits (the dispatch layer adds no arithmetic).
  const VnmCase& c = kVnmCases[2];
  Rng rng(61);
  const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, 21);
  const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
  const FloatMatrix fast = matmul(MatmulArgs::make(a, b));
  const ScopedBackend forced("vnm-scalar");
  EXPECT_EQ(matmul(MatmulArgs::make(a, b)), fast);
}

TEST(ExecContext, OwnsIsolatedPlanCache) {
  ExecContext a;
  ExecContext b;
  EXPECT_EQ(a.plan_cache().size(), 0u);
  const VnmCase& c = kVnmCases[0];
  const auto vnm = std::make_shared<const VnmMatrix>(
      random_vnm(c.rows, c.cols, c.fmt, 5));
  Rng rng(6);
  const HalfMatrix x = random_half_matrix(c.cols, c.b_cols, rng);
  const MatmulArgs args =
      MatmulArgs::make(vnm, spatha::weight_fingerprint(*vnm), x);
  (void)matmul(args, a);
  (void)matmul(args, a);
  EXPECT_EQ(a.plan_cache().misses(), 1u);
  EXPECT_EQ(a.plan_cache().hits(), 1u);
  EXPECT_EQ(b.plan_cache().size(), 0u);  // contexts do not share caches
}

TEST(ExecContext, PrivatePoolRunsKernels) {
  ExecContextOptions opts;
  opts.threads = 2;
  ExecContext ctx(opts);
  EXPECT_EQ(ctx.pool().size(), 2u);
  const VnmCase& c = kVnmCases[0];
  Rng rng(8);
  const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, 7);
  const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
  EXPECT_EQ(matmul(MatmulArgs::make(a, b), ctx),
            spatha::spmm_vnm_reference(a, b));
}

TEST(ExecContext, PrivateTuningCacheReachesThePlanTier) {
  // A context constructed with tuning_cache_path must apply its private
  // tuned configs on the shared-handle tier too (the serving hot path,
  // where the weight's packed form comes from the context's PlanCache).
  // The tuned entry pins ColumnLocMode::kFixed, which changes the bits,
  // so the proof is in the output: it must be the tuned config's result,
  // not the default selection's.
  const VnmCase& c = kVnmCases[0];
  ASSERT_GT(c.b_cols, spatha::detail::kNarrowMaxWidth);
  spatha::TuningCache cache;
  spatha::TuningEntry entry;
  entry.config = spatha::select_config_heuristic(c.fmt, c.rows, c.cols,
                                                 c.b_cols);
  entry.config.column_loc = spatha::ColumnLocMode::kFixed;
  cache.put(spatha::make_tuning_key(c.fmt, c.rows, c.cols, c.b_cols),
            entry);
  const std::string path = ::testing::TempDir() + "ops_private_tune.json";
  io::save_tuning_cache(cache, path);

  ExecContextOptions opts;
  opts.tuning_cache_path = path;
  ExecContext ctx(opts);
  const spatha::SpmmConfig tuned =
      ctx.select_config(c.fmt, c.rows, c.cols, c.b_cols);
  ASSERT_EQ(tuned.column_loc, spatha::ColumnLocMode::kFixed);

  const auto vnm = std::make_shared<const VnmMatrix>(
      random_vnm(c.rows, c.cols, c.fmt, 11));
  const std::size_t sel = c.fmt.selected_cols();
  bool identity_locs = true;
  for (std::size_t i = 0; i < vnm->column_locs().size(); ++i)
    identity_locs = identity_locs && vnm->column_locs()[i] == i % sel;
  ASSERT_FALSE(identity_locs);
  Rng rng(12);
  const HalfMatrix x = random_half_matrix(c.cols, c.b_cols, rng);
  const MatmulArgs args =
      MatmulArgs::make(vnm, spatha::weight_fingerprint(*vnm), x);
  const FloatMatrix got = matmul(args, ctx);
  EXPECT_EQ(got, spatha::spmm_vnm_scalar(*vnm, x, tuned));
  ExecContext plain;
  EXPECT_NE(got, matmul(args, plain));  // the default config's bits
  EXPECT_EQ(ctx.plan_cache().misses(), 1u);
}

TEST(ExecContext, SelectConfigMatchesSpathaSelection) {
  // With default options the context's config choice is exactly
  // spatha::select_config — the bit-identical-dispatch guarantee.
  ExecContext ctx;
  const VnmConfig fmt{64, 2, 8};
  EXPECT_EQ(ctx.select_config(fmt, 256, 512, 128),
            spatha::select_config(fmt, 256, 512, 128));
}

}  // namespace
}  // namespace venom::ops
