// Spatha SpMM kernels over the V:N:M format (Section 4.1, Figs. 4-8).
//
// Implementations of C(RxC, fp32) = A_vnm(RxK) * B(KxC, fp16):
//
//   spmm_vnm            production path (vnm-fast), over the packed
//                       operand (packed.hpp): A is laid out once per
//                       weight, never per tile. Stages, per width:
//                       wide (C above the measured crossover)
//                         (1.1/1.2) per (block row, C tile, K panel), the
//                               B rows selected by column-loc gathered
//                               into a float panel (the SMEM image);
//                         (2)   register-blocked explicit FMA, 8
//                               independent accumulators per block;
//                       narrow (C at or below the crossover)
//                         (1.2) B converted to float and transposed once;
//                         (2)   rows as lanes: 16 rows of a V block in
//                               one register, a lookup of their B entries
//                               and a masked FMA per slot;
//                       (3) write-back (or the fused epilogue) per row.
//                       The split is internal (microkernel.hpp); both
//                       sides are bit-identical to the oracles below.
//
//   spmm_vnm_scalar     the seed's element-at-a-time path, kept as the
//                       perf baseline and bit-exactness oracle.
//
//   spmm_vnm_mma        same staging, but stage 2 executes genuine
//                       m16n8k32 mma.sp instructions via the SPTC
//                       simulator — the fidelity path proving the V:N:M
//                       mapping of Fig. 4 is exact.
//
//   spmm_vnm_reference  naive traversal used as the oracle in tests.
//
// Bits: every multiply-add of spmm_vnm, spmm_vnm_scalar and
// spmm_vnm_reference is one fused multiply-add (an explicit lane fma or
// std::fma), accumulated from +0 in ascending (group, j) order per
// output element with zero-valued slots skipped. The result therefore
// does not depend on the compiler's contraction or the build's lane
// width.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "format/nm.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/packed.hpp"
#include "tensor/matrix.hpp"

namespace venom::spatha {

namespace detail {

/// Per-chunk kernel scratch reused across output tiles (and, through a
/// SpmmScratchPool, across calls); resize() calls settle to no-ops after
/// the buffers reach their high-water sizes, so the steady state performs
/// no allocation per panel or per tile. Populated by the micro-kernel
/// stages in microkernel.hpp (fp16 and fp8), the SDDMM and the int8 path.
struct SpmmScratch {
  std::vector<float> panel;  // float image of gathered (or transposed) B
  std::vector<float> acc;    // fp32 accumulator tile
  // int8 datapath (quant/quantized_vnm.hpp): the quad panel of
  // quantized B (4 s8 codes per column per M-group, a quarter of
  // `panel`) and its int32 accumulator tile; `acc` holds a dequantized
  // row for the fused write-back. col_corr is the AVX-512 VNNI body's
  // per-column bias correction (vpdpbusd is u8 x s8) for the K panel
  // region it covers; the AMX body (tdpbssd, s8 x s8) needs none.
  std::vector<std::int8_t> panel_i8;
  std::vector<std::int32_t> acc_i32;
  std::vector<std::int32_t> col_corr;
};

}  // namespace detail

/// Freelist of per-chunk kernel scratch (fp16->float B panels,
/// accumulator tiles). A caller that owns one — e.g. the
/// ops::ExecContext every serving dispatch runs on — amortizes the panel
/// buffers across calls: after warmup the kernels allocate nothing.
using SpmmScratchPool = ObjectPool<detail::SpmmScratch>;

namespace detail {

/// One worker-chunk's view of kernel scratch: bind() leases from the
/// caller's pool when one was supplied (cross-call buffer reuse) and
/// falls back to chunk-local storage otherwise. Shared by every kernel
/// that takes an optional SpmmScratchPool.
struct ScratchLease {
  SpmmScratch& bind(SpmmScratchPool* pool) {
    if (pool != nullptr) {
      lease_.emplace(pool->acquire());
      return **lease_;
    }
    return local_;
  }

 private:
  SpmmScratch local_;
  std::optional<SpmmScratchPool::Lease> lease_;
};

}  // namespace detail

/// Production kernel over an operand packed once per weight (a
/// transformer::Linear's, or an ops::PlanCache entry's). `scratch`, when
/// non-null, supplies the per-chunk panel/accumulator buffers instead of
/// chunk-local vectors (see SpmmScratchPool).
FloatMatrix spmm_vnm(const PackedVnm& a, const HalfMatrix& b,
                     const SpmmConfig& cfg, ThreadPool* pool = nullptr,
                     SpmmScratchPool* scratch = nullptr);

/// Same, packing `a` once for this call (O(nnz), about one
/// weight_fingerprint: hold a PackedVnm, or pass a fingerprinted weight
/// through ops::matmul, for repeated calls at small C).
FloatMatrix spmm_vnm(const VnmMatrix& a, const HalfMatrix& b,
                     const SpmmConfig& cfg, ThreadPool* pool = nullptr,
                     SpmmScratchPool* scratch = nullptr);

/// Convenience overload with the heuristic configuration.
FloatMatrix spmm_vnm(const VnmMatrix& a, const HalfMatrix& b,
                     ThreadPool* pool = nullptr);

/// The seed's scalar stage-2 loop (half->float conversion per FMA, no
/// register blocking). Kept as the measurement baseline for the packed
/// pipeline and as a parity oracle: spmm_vnm is bit-identical to this
/// path for every configuration and width.
FloatMatrix spmm_vnm_scalar(const VnmMatrix& a, const HalfMatrix& b,
                            const SpmmConfig& cfg,
                            ThreadPool* pool = nullptr);
FloatMatrix spmm_vnm_scalar(const VnmMatrix& a, const HalfMatrix& b,
                            ThreadPool* pool = nullptr);

/// Fidelity path: stage 2 runs through sptc::mma_sp_fp16 tile by tile.
/// Requires V % 16 == 0, (cols/M)*4 % 32 == 0, and C % 8 == 0.
FloatMatrix spmm_vnm_mma(const VnmMatrix& a, const HalfMatrix& b,
                         ThreadPool* pool = nullptr);

/// Naive oracle (no tiling, no pool).
FloatMatrix spmm_vnm_reference(const VnmMatrix& a, const HalfMatrix& b);

/// Fast SpMM over the native row-wise N:M format (no V grouping): the
/// DFSS-style dynamic-attention kernel [Chen et al., PPoPP'23 — the
/// paper's ref. 6]. B converts to packed float once (bulk fp16->float),
/// each row's nonzero descriptors are hoisted into flat scratch, and the
/// multiply-accumulate runs 16-float register strips (detail::kStrip). Per output element products accumulate in
/// ascending (group, j) order, so the result is bit-identical to the
/// scalar `venom::spmm_24` baseline it accelerates (any N:M pattern is
/// accepted; the hardware-pattern restriction is spmm_24's, not this
/// kernel's).
FloatMatrix spmm_nm(const NmMatrix& a, const HalfMatrix& b,
                    ThreadPool* pool = nullptr);

/// Transposed SpMM: C(K x C, fp32) = A^T * B with A(R x K) in V:N:M and
/// B(R x C) dense. This is the backward-pass kernel: for y = W x with a
/// sparse W, dL/dx = W^T dL/dy. The kernel keeps the forward traversal
/// order (coalesced reads of A) and scatters each nonzero's contribution
/// into the K-indexed output; tasks partition over block rows with
/// per-task private output accumulated at the end (no atomics). `cfg`
/// supplies the ColumnLocMode (kFixed scatters to row g*M + m_index, so
/// the op stays the exact adjoint of the kFixed forward) and a chunk
/// grain that lower-bounds the block rows per task. The per-task partial
/// reduction makes the result numerically (not bit-) identical to the
/// scalar oracle, and dependent on the task count — deterministic for a
/// fixed pool.
FloatMatrix spmm_vnm_transposed(const VnmMatrix& a, const HalfMatrix& b,
                                const SpmmConfig& cfg,
                                ThreadPool* pool = nullptr);

/// Convenience overload with the tuned/heuristic configuration (keyed by
/// the forward problem R x K x C, so a tuned forward entry's chunk grain
/// carries over to its backward).
FloatMatrix spmm_vnm_transposed(const VnmMatrix& a, const HalfMatrix& b,
                                ThreadPool* pool = nullptr);

/// Naive oracle: single-threaded scatter in ascending row order.
FloatMatrix spmm_vnm_transposed_scalar(
    const VnmMatrix& a, const HalfMatrix& b,
    ColumnLocMode mode = ColumnLocMode::kEnabled);

/// Useful FLOPs of the sparse product: 2 * nnz * C.
inline double spmm_flops(const VnmMatrix& a, std::size_t b_cols) {
  return 2.0 * static_cast<double>(a.nnz()) * static_cast<double>(b_cols);
}

}  // namespace venom::spatha
