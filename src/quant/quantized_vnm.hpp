// Quantized int8 / fp8 V:N:M matrices and SpMM (the Table-1 integer rows
// and the reduced-precision serving datapath).
//
// SPTCs execute the same 2:4 selection at int8 precision with int32
// accumulate, or at fp8 with fp32 accumulate. Following Magicube [Li et
// al., SC'22] — quantized sparse kernels on tensor cores — this module
// holds two reduced-precision views of a V:N:M matrix:
//
//   QuantizedVnmMatrix  symmetric per-row int8:
//                         values_i8[i] = round(values_fp16[i] / scale_row)
//                       in [-127, 127], scale_row = max|row| / 127.
//   Fp8VnmMatrix        direct E5M2/E4M3 re-encoding of the fp16 values
//                       (fp8 carries its own exponent, so no scales).
//
// Both share the m-indices / column-loc structures unchanged. The int8
// datapath has its own kernel on the exact Fig. 5 decomposition of
// spatha::spmm_vnm. The int8 weight carries its gathered 2:4 rows (Fig. 4)
// in the layout the kernel consumes: one 32-bit word per (row, group), the
// code of selector slot s in byte s (4 B per (row, group), built once per
// weight). The kernel quantizes B per column, gathers the
// column-loc-selected B rows into a quad panel of the same shape (4 s8
// codes per column), accumulates each (row, group, column)'s four-way
// int8 dot product in int32, and writes back through a
// scale_row * scale_col dequantizing epilogue (spmm_vnm_i8_fused also
// applies bias, activation and the fp16 conversion there).
//
// Stage 2 runs on the CPU's matrix engine where it can. One AMX tdpbssd
// computes C[16 x 16 int32] += A[16 x 64 B] . B[16 x 64 B], signed by
// signed: the A tile is 16 rows of 16 slot-code words, loaded in place
// (row stride 4 * groups bytes), and the B tile 16 groups of the quad
// panel, 16 columns each, also in place (stride 4 * width bytes); a
// 2 x 2 block of C tiles shares each A and B load. The tiles cover the
// part of each K panel whose rows, columns and groups are multiples of
// 16; the vector body (AVX-512 VNNI vpdpbusd, AVX2 vpmaddubsw) covers
// the rest, and columns past its last strip, and the portable build,
// run the stored nonzeros. The AMX body is compiled under __AMX_INT8__
// and runs when CPUID.(7,0):EDX bits 24-25 and XCR0 bits 17-18 are set
// and the one per-process arch_prctl(ARCH_REQ_XCOMP_PERM) request is
// granted; each tile region loads the tile config on entry and releases
// the tiles on exit. Every body, the oracle included, sums in int32 and
// is exact while a row's bound groups * n * 128 * 127 fits, which
// quantize() and from_parts() check. int8_stage2_body() says which body
// runs and, if AMX is compiled in but unused, which gate failed.
// fp8 is a storage format, not a kernel: every fp8 value is exact in
// fp16, so the datapath decodes the weight once (pack_decoded) into the
// fp16 pipeline's packed operand and runs vnm-fast's kernels over it,
// with fp32 accumulation as on the tensor cores. Each datapath has a
// scalar oracle it is bit-identical to (int32 accumulation is exact; the
// packed kernels and the fp8 oracle both accumulate each output element
// by std::fma-defined multiply-adds in ascending (group, j) order).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fp8.hpp"
#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/spmm.hpp"
#include "tensor/matrix.hpp"

namespace venom::quant {

/// int8 symmetric-quantized V:N:M matrix. Codes lie in [-127, 127]
/// from quantize(); from_parts() accepts the full int8 range, and the
/// kernel is exact for every code: a four-way dot product's int16 pair
/// sums stay within 2 * 128 * 127 = 32,512 because the per-column B codes
/// are at most 127 in magnitude (0 in a non-finite column).
class QuantizedVnmMatrix {
 public:
  QuantizedVnmMatrix() = default;

  /// Quantizes an existing fp16 V:N:M matrix with per-row scales
  /// (scale = max|row| / 127; all-zero rows get scale 0). Throws
  /// venom::Error when a row is too long for an exact int32 sum
  /// (groups * n * 128 * 127 > INT32_MAX).
  static QuantizedVnmMatrix quantize(const VnmMatrix& fp16);

  /// Dequantizes back to the fp16 V:N:M form (lossy by <= scale/2 per
  /// element).
  VnmMatrix dequantize() const;

  /// Reassembles a matrix from raw compressed structures (the
  /// deserialization path). Validates sizes, index ranges and that no
  /// (row, group) stores two nonzeros in one selector slot; throws
  /// venom::Error on any inconsistency, or on a row too long for an
  /// exact int32 sum (as quantize()).
  static QuantizedVnmMatrix from_parts(VnmConfig cfg, std::size_t rows,
                                       std::size_t cols,
                                       std::vector<std::int8_t> values,
                                       std::vector<std::uint8_t> m_indices,
                                       std::vector<std::uint8_t> column_loc,
                                       std::vector<float> scales);

  VnmConfig config() const { return cfg_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t groups_per_row() const { return cols_ / cfg_.m; }
  std::size_t block_rows() const { return rows_ / cfg_.v; }
  std::size_t nnz() const { return values_.size(); }

  std::int8_t value(std::size_t r, std::size_t g, std::size_t j) const {
    return values_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  std::uint8_t m_index(std::size_t r, std::size_t g, std::size_t j) const {
    return m_indices_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  std::uint8_t column_loc(std::size_t br, std::size_t g,
                          std::size_t s) const {
    return column_loc_[(br * groups_per_row() + g) * cfg_.selected_cols() + s];
  }
  float row_scale(std::size_t r) const { return scales_[r]; }

  const std::vector<std::int8_t>& values() const { return values_; }
  const std::vector<std::uint8_t>& m_indices() const { return m_indices_; }
  const std::vector<std::uint8_t>& column_locs() const { return column_loc_; }
  const std::vector<float>& row_scales() const { return scales_; }

  /// The gathered 2:4 row of each (row, group), row-major: byte s of
  /// word (r * groups_per_row() + g) holds the code of selector slot s
  /// (0 where the row stores no nonzero). Derived from values() and
  /// m_indices() when the matrix is built; 4 B per (row, group).
  const std::vector<std::int32_t>& slot_codes() const { return slot_codes_; }

  /// int8 values + 2-bit metadata + column-loc + fp32 row scales (the
  /// stored format; slot_codes() is derived from it and not counted).
  std::size_t compressed_bytes() const;

 private:
  VnmConfig cfg_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> values_;
  std::vector<std::uint8_t> m_indices_;
  std::vector<std::uint8_t> column_loc_;
  std::vector<float> scales_;
  std::vector<std::int32_t> slot_codes_;
};

/// fp8 (E5M2 or E4M3) V:N:M matrix: the fp16 values re-encoded per
/// element (round-to-nearest-even, E4M3 saturating), structure shared.
class Fp8VnmMatrix {
 public:
  Fp8VnmMatrix() = default;

  /// Re-encodes an fp16 V:N:M matrix's values in fp8. A nonzero fp16
  /// value below the format's subnormal range encodes to zero (the slot
  /// stays in the structure; kernels skip it like any other zero).
  static Fp8VnmMatrix quantize(const VnmMatrix& fp16, Fp8Format format);

  /// Decodes back to the fp16 V:N:M form (every fp8 value is exactly
  /// representable in fp16, so this direction is lossless).
  VnmMatrix dequantize() const;

  /// Deserialization path; validates sizes, index ranges and distinct
  /// selector slots per (row, group), as QuantizedVnmMatrix::from_parts.
  static Fp8VnmMatrix from_parts(VnmConfig cfg, std::size_t rows,
                                 std::size_t cols, Fp8Format format,
                                 std::vector<std::uint8_t> values,
                                 std::vector<std::uint8_t> m_indices,
                                 std::vector<std::uint8_t> column_loc);

  VnmConfig config() const { return cfg_; }
  Fp8Format format() const { return format_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t groups_per_row() const { return cols_ / cfg_.m; }
  std::size_t block_rows() const { return rows_ / cfg_.v; }
  std::size_t nnz() const { return values_.size(); }

  std::uint8_t value_bits(std::size_t r, std::size_t g,
                          std::size_t j) const {
    return values_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  float value(std::size_t r, std::size_t g, std::size_t j) const {
    return fp8_to_float(value_bits(r, g, j), format_);
  }
  std::uint8_t m_index(std::size_t r, std::size_t g, std::size_t j) const {
    return m_indices_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  std::uint8_t column_loc(std::size_t br, std::size_t g,
                          std::size_t s) const {
    return column_loc_[(br * groups_per_row() + g) * cfg_.selected_cols() + s];
  }

  const std::vector<std::uint8_t>& values() const { return values_; }
  const std::vector<std::uint8_t>& m_indices() const { return m_indices_; }
  const std::vector<std::uint8_t>& column_locs() const { return column_loc_; }

  /// fp8 values + 2-bit metadata + column-loc (no scales).
  std::size_t compressed_bytes() const;

 private:
  VnmConfig cfg_;
  Fp8Format format_ = Fp8Format::kE4M3;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> m_indices_;
  std::vector<std::uint8_t> column_loc_;
};

/// C(fp32) = dequant(A_i8 * quant(B)): the dense operand is quantized
/// per column with symmetric int8; the kernel gathers quad B panels,
/// accumulates each row's slot-code words against them in int32, and
/// the output element (r, c) dequantizes as
/// float(acc) * row_scale(r) * col_scale(c) on the epilogue. A column of
/// B holding any non-finite value gets scale NaN and codes 0, so every
/// output in that column is NaN. Tiling, chunk_grain, and ColumnLocMode
/// come from `cfg` (spmm_vnm semantics); `scratch` recycles the packed
/// panels across calls. Bit-identical to spmm_vnm_i8_scalar for every
/// configuration and stage-2 body (integer accumulation is exact, and
/// both sides quantize B to the same codes and scales).
FloatMatrix spmm_vnm_i8(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                        const spatha::SpmmConfig& cfg,
                        ThreadPool* pool = nullptr,
                        spatha::SpmmScratchPool* scratch = nullptr);

/// C_half = act(dequant(A_i8 * quant(B)) + bias): spmm_vnm_i8 with the
/// epilogue fused into each finished tile's write-back. Per element it is
/// the generic fused path's computation (dequantize, then
/// spatha::apply_epilogue, then the fp16 conversion), so it is
/// bit-identical to that path over spmm_vnm_i8 or spmm_vnm_i8_scalar.
HalfMatrix spmm_vnm_i8_fused(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                             const spatha::Epilogue& epilogue,
                             const spatha::SpmmConfig& cfg,
                             ThreadPool* pool = nullptr,
                             spatha::SpmmScratchPool* scratch = nullptr);

/// The stage-2 body spmm_vnm_i8 runs in this process (AMX, AVX-512
/// VNNI, AVX2 or scalar), with the failed gate when AMX is compiled in
/// but not used.
std::string int8_stage2_body();

/// Convenience overload with the tuned/heuristic configuration.
/// `tuning` is the cache whose "+i8" entry (if any) picks the config —
/// pass ExecContext::tuning_cache() when dispatch runs under a context
/// with a private cache, so a scoped tune is honoured here exactly as
/// it is in the registry backends; nullptr consults the process-wide
/// TuningCache::global().
FloatMatrix spmm_vnm_i8(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                        ThreadPool* pool = nullptr,
                        const spatha::TuningCache* tuning = nullptr);

/// Naive oracle: element-at-a-time traversal, same B quantization and
/// dequantization expression as the fast kernel.
FloatMatrix spmm_vnm_i8_scalar(
    const QuantizedVnmMatrix& a, const HalfMatrix& b,
    spatha::ColumnLocMode mode = spatha::ColumnLocMode::kEnabled);

/// The packed float image of `a`: spatha::PackedVnm over (and owning)
/// its exact fp16 decode. Built once per weight by an fp8
/// transformer::Linear and by ops::PlanCache.
spatha::PackedVnm pack_decoded(const Fp8VnmMatrix& a);

/// C(fp32) = A_fp8 * B: spatha::spmm_vnm (`cfg` as there) over
/// pack_decoded(a), packed for this call. Bit-identical to
/// spmm_vnm_fp8_scalar on every configuration, width and lane width.
FloatMatrix spmm_vnm_fp8(const Fp8VnmMatrix& a, const HalfMatrix& b,
                         const spatha::SpmmConfig& cfg,
                         ThreadPool* pool = nullptr,
                         spatha::SpmmScratchPool* scratch = nullptr);

/// Convenience overload with the tuned/heuristic configuration (same
/// cache-threading contract as the spmm_vnm_i8 overload, under the
/// "+fp8" key).
FloatMatrix spmm_vnm_fp8(const Fp8VnmMatrix& a, const HalfMatrix& b,
                         ThreadPool* pool = nullptr,
                         const spatha::TuningCache* tuning = nullptr);

/// Naive oracle for the fp8 path: per element, decoded fp8 values of
/// nonzero slots accumulate from +0 by std::fma in (group, j) order.
FloatMatrix spmm_vnm_fp8_scalar(
    const Fp8VnmMatrix& a, const HalfMatrix& b,
    spatha::ColumnLocMode mode = spatha::ColumnLocMode::kEnabled);

}  // namespace venom::quant
