#include "quant/quantized_vnm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#if defined(__GNUC__) && !defined(__clang__) && defined(__AVX512F__)
// GCC 12 expands unmasked AVX-512 intrinsics (cvtepi32_ps, cvttps_epi32,
// abs_ps, cvtsepi32_epi8, ...) into masked builtins whose undefined merge
// operand trips -Wmaybe-uninitialized (GCC PR105593). The operand is dead
// by construction for the unmasked forms used in this file.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#if defined(__AMX_INT8__) && defined(__AMX_TILE__) && defined(__linux__)
// The AMX stage-2 body: compiled where the target has AMX-INT8 (e.g.
// -march=native on Sapphire Rapids), run where the CPU and OS grant it.
#define VENOM_QUANT_AMX 1
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "common/half.hpp"
#include "quant/int8_testing.hpp"
#include "spatha/tuning_cache.hpp"

namespace venom::quant {

namespace {

/// Round-half-away-from-zero to int8, matching std::lround for every
/// in-range input but branch-only (no libm call per element), so the
/// per-call B quantization loop vectorizes. The caller guarantees
/// |x| <= 127 * (1 + eps), which keeps the cast in range.
inline std::int8_t round_to_i8(float x) {
  return static_cast<std::int8_t>(
      static_cast<int>(x >= 0.0f ? x + 0.5f : x - 0.5f));
}

/// Pass 1 of the B quantizer: folds one fp16 row's magnitudes into the
/// running column maxima, as fp16 bits. The bits of |h| order like |h|
/// for finite h, +inf is 0x7c00 and every NaN lies above it, so an
/// integer max needs no conversion and keeps any non-finite value (a
/// float max drops NaN).
constexpr std::uint16_t kHalfInfBits = 0x7c00;
inline void fold_abs_bits(const half_t* row, std::uint16_t* max_bits,
                          std::size_t width) {
  std::size_t c = 0;
#if defined(__AVX512BW__)
  const __m512i abs512 = _mm512_set1_epi16(0x7fff);
  for (; c + 32 <= width; c += 32)
    _mm512_storeu_si512(
        max_bits + c,
        _mm512_max_epu16(_mm512_loadu_si512(max_bits + c),
                         _mm512_and_si512(_mm512_loadu_si512(row + c),
                                          abs512)));
#elif defined(__AVX2__)
  const __m256i abs256 = _mm256_set1_epi16(0x7fff);
  for (; c + 16 <= width; c += 16) {
    __m256i* m = reinterpret_cast<__m256i*>(max_bits + c);
    _mm256_storeu_si256(
        m, _mm256_max_epu16(
               _mm256_loadu_si256(m),
               _mm256_and_si256(_mm256_loadu_si256(
                                    reinterpret_cast<const __m256i*>(row + c)),
                                abs256)));
  }
#endif
  for (; c < width; ++c)
    max_bits[c] = std::max(max_bits[c],
                           static_cast<std::uint16_t>(row[c].bits() & 0x7fffu));
}

/// Pass 2: one row's codes against the column inverses. A non-finite
/// column's inverse is 0, so its finite values give 0 and its non-finite
/// ones NaN, which becomes 0 before any cast; every other product lies
/// within |x| <= 127 * (1 + eps). The vector paths mirror round_to_i8
/// exactly (copysign(0.5) add, then truncate), and their saturating
/// narrowings cannot fire in that range, so all paths emit one code.
inline void quantize_row(const float* row, const float* inv, std::int8_t* dst,
                         std::size_t width) {
  std::size_t c = 0;
#if defined(__AVX512F__)
  const __m512 half512 = _mm512_set1_ps(0.5f);
  const __m512i sign512 =
      _mm512_set1_epi32(static_cast<std::int32_t>(0x80000000u));
  for (; c + 16 <= width; c += 16) {
    __m512 v =
        _mm512_mul_ps(_mm512_loadu_ps(row + c), _mm512_loadu_ps(inv + c));
    v = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(v, v, _CMP_ORD_Q), v);
    const __m512 biased = _mm512_add_ps(
        v, _mm512_castsi512_ps(_mm512_or_epi32(
               _mm512_and_epi32(_mm512_castps_si512(v), sign512),
               _mm512_castps_si512(half512))));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + c),
                     _mm512_cvtsepi32_epi8(_mm512_cvttps_epi32(biased)));
  }
#elif defined(__AVX2__)
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 signmask = _mm256_castsi256_ps(
      _mm256_set1_epi32(static_cast<std::int32_t>(0x80000000u)));
  for (; c + 16 <= width; c += 16) {
    __m256 v0 =
        _mm256_mul_ps(_mm256_loadu_ps(row + c), _mm256_loadu_ps(inv + c));
    __m256 v1 = _mm256_mul_ps(_mm256_loadu_ps(row + c + 8),
                              _mm256_loadu_ps(inv + c + 8));
    v0 = _mm256_and_ps(v0, _mm256_cmp_ps(v0, v0, _CMP_ORD_Q));
    v1 = _mm256_and_ps(v1, _mm256_cmp_ps(v1, v1, _CMP_ORD_Q));
    v0 = _mm256_add_ps(v0, _mm256_or_ps(_mm256_and_ps(v0, signmask), half));
    v1 = _mm256_add_ps(v1, _mm256_or_ps(_mm256_and_ps(v1, signmask), half));
    // int32 -> int16 -> int8 narrowing; packs_epi32 interleaves the
    // 128-bit lanes, the permute restores source order.
    const __m256i w = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(_mm256_cvttps_epi32(v0), _mm256_cvttps_epi32(v1)),
        0xd8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + c),
                     _mm_packs_epi16(_mm256_castsi256_si128(w),
                                     _mm256_extracti128_si256(w, 1)));
  }
#endif
  for (; c < width; ++c) {
    const float v = row[c] * inv[c];
    dst[c] = round_to_i8(v == v ? v : 0.0f);
  }
}

/// Per-column symmetric int8 image of the dense operand plus its
/// dequantization scales (scale = max|column| / 127; an all-zero column
/// gets scale 0, and a column holding any non-finite value gets scale
/// NaN and codes 0). The fast kernel and the scalar oracle share it, so
/// with exact int32 accumulation their bit parity is an equality of
/// inputs rather than of summation orders.
struct QuantizedB {
  Matrix<std::int8_t> values;
  std::vector<float> col_scale;
};

QuantizedB quantize_columns(const HalfMatrix& b) {
  const std::size_t rows = b.rows();
  const std::size_t width = b.cols();
  QuantizedB q{Matrix<std::int8_t>(rows, width),
               std::vector<float>(width, 0.0f)};
  // Pass 1: column maxima, as fp16 bits.
  std::vector<std::uint16_t> max_bits(width, 0);
  for (std::size_t r = 0; r < rows; ++r)
    fold_abs_bits(&b(r, 0), max_bits.data(), width);
  std::vector<float> inv(width, 0.0f);
  for (std::size_t c = 0; c < width; ++c) {
    if (max_bits[c] >= kHalfInfBits) {
      q.col_scale[c] = std::numeric_limits<float>::quiet_NaN();
    } else if (max_bits[c] != 0) {
      const float max_abs = half_t::from_bits(max_bits[c]).to_float();
      q.col_scale[c] = max_abs / 127.0f;
      inv[c] = 127.0f / max_abs;
    }
  }
  // Pass 2: convert each row into one reused buffer and quantize it
  // against the column inverses.
  std::vector<float> rowf(width);
  for (std::size_t r = 0; r < rows; ++r) {
    half_to_float_n(&b(r, 0), rowf.data(), width);
    quantize_row(rowf.data(), inv.data(), &q.values(r, 0), width);
  }
  return q;
}

/// Stage 1.2 of the int8 pipeline: gathers the B rows selected by
/// column-loc into the quad panel, the B-side shape of the weight's slot
/// codes: byte ((g - g0) * 4 * width) + 4 * n + s holds the code of
/// selector slot s of group g at column n, and slots past `sel` hold 0.
/// One 32-bit word of the panel therefore pairs with one slot-code word
/// of A, for every sel.
inline void gather_quad_panel(const QuantizedVnmMatrix& a,
                              const Matrix<std::int8_t>& bq, std::size_t br,
                              std::size_t g0, std::size_t g1, std::size_t c0,
                              std::size_t width, bool fixed,
                              std::vector<std::int8_t>& panel) {
  const VnmConfig fmt = a.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = a.groups_per_row();
  const std::size_t quads = g1 - g0;
  panel.resize(quads * 4 * width);
  const std::uint8_t* cloc =
      a.column_locs().data() + (br * groups + g0) * sel;
  for (std::size_t q = 0; q < quads; ++q) {
    const std::int8_t* src[4] = {nullptr, nullptr, nullptr, nullptr};
    for (std::size_t s = 0; s < sel; ++s) {
      const std::size_t offset = fixed ? s : cloc[q * sel + s];
      src[s] = &bq((g0 + q) * fmt.m + offset, c0);
    }
    std::int8_t* dst = panel.data() + q * 4 * width;
    std::size_t n = 0;
#if defined(__SSE2__)
    const auto slot_row = [&](std::size_t s) {
      return src[s] != nullptr
                 ? _mm_loadu_si128(
                       reinterpret_cast<const __m128i*>(src[s] + n))
                 : _mm_setzero_si128();
    };
    for (; n + 16 <= width; n += 16) {
      // Four 16-byte slot rows -> sixteen column words via the byte/word
      // unpack ladder.
      const __m128i x0 = slot_row(0);
      const __m128i x1 = slot_row(1);
      const __m128i x2 = slot_row(2);
      const __m128i x3 = slot_row(3);
      const __m128i t0 = _mm_unpacklo_epi8(x0, x1);
      const __m128i t1 = _mm_unpackhi_epi8(x0, x1);
      const __m128i t2 = _mm_unpacklo_epi8(x2, x3);
      const __m128i t3 = _mm_unpackhi_epi8(x2, x3);
      __m128i* out = reinterpret_cast<__m128i*>(dst + 4 * n);
      _mm_storeu_si128(out + 0, _mm_unpacklo_epi16(t0, t2));
      _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(t0, t2));
      _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(t1, t3));
      _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(t1, t3));
    }
#endif
    for (; n < width; ++n)
      for (std::size_t s = 0; s < 4; ++s)
        dst[4 * n + s] = src[s] != nullptr ? src[s][n] : std::int8_t{0};
  }
}

#if defined(__AVX512VNNI__)
// 16 int32 lanes. vpdpbusd multiplies u8 by s8, so A enters biased by
// 128 (code ^ 0x80), which adds 128 * (the column's 4 panel codes) per
// group. SpmmScratch::col_corr holds minus that sum over the K panel,
// and every strip's accumulator starts from it.
using AccVec = __m512i;
constexpr std::size_t kLanes = 16;
inline AccVec a_operand(std::int32_t word) {
  return _mm512_set1_epi32(static_cast<std::int32_t>(
      static_cast<std::uint32_t>(word) ^ 0x80808080u));
}
inline AccVec dot4(AccVec acc, AccVec a, const std::int8_t* bp) {
  return _mm512_dpbusd_epi32(acc, a, _mm512_loadu_si512(bp));
}
inline AccVec strip_start(const spatha::detail::SpmmScratch& s,
                          std::size_t n) {
  return _mm512_loadu_si512(s.col_corr.data() + n);
}
inline void add_to(std::int32_t* out, AccVec v) {
  _mm512_storeu_si512(out, _mm512_add_epi32(_mm512_loadu_si512(out), v));
}
#elif defined(__AVX2__)
// 8 int32 lanes, signed x signed as vpmaddubsw(|a|, sign(b, a)). Exact:
// |a| <= 128 and |b| <= 127, so each int16 pair sum is at most 32,512
// and never saturates.
using AccVec = __m256i;
constexpr std::size_t kLanes = 8;
inline AccVec a_operand(std::int32_t word) { return _mm256_set1_epi32(word); }
inline AccVec dot4(AccVec acc, AccVec a, const std::int8_t* bp) {
  const __m256i b = _mm256_sign_epi8(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp)), a);
  return _mm256_add_epi32(
      acc, _mm256_madd_epi16(_mm256_maddubs_epi16(_mm256_abs_epi8(a), b),
                             _mm256_set1_epi16(1)));
}
inline AccVec strip_start(const spatha::detail::SpmmScratch&, std::size_t) {
  return _mm256_setzero_si256();
}
inline void add_to(std::int32_t* out, AccVec v) {
  __m256i* p = reinterpret_cast<__m256i*>(out);
  _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), v));
}
#endif

#if defined(__AVX512VNNI__) || defined(__AVX2__)
/// S strips of kLanes columns of one row from column n: every group's
/// slot-code word against its 4 panel codes per column, S independent
/// accumulators sharing each broadcast word.
template <std::size_t S>
void dot_strips(const std::int32_t* words, std::size_t quads,
                const std::int8_t* pan, std::size_t stride,
                const spatha::detail::SpmmScratch& s, std::size_t n,
                std::int32_t* arow) {
  AccVec acc[S];
#pragma GCC unroll 4
  for (std::size_t u = 0; u < S; ++u)
    acc[u] = strip_start(s, n + u * kLanes);
  for (std::size_t q = 0; q < quads; ++q) {
    const AccVec a = a_operand(words[q]);
    const std::int8_t* bp = pan + q * stride + 4 * n;
#pragma GCC unroll 4
    for (std::size_t u = 0; u < S; ++u)
      acc[u] = dot4(acc[u], a, bp + 4 * kLanes * u);
  }
#pragma GCC unroll 4
  for (std::size_t u = 0; u < S; ++u) add_to(arow + n + u * kLanes, acc[u]);
}
#endif

/// The vector stage-2 body over rows [dr0, dr1) of block row br, panel
/// columns [n0, n1) and panel groups [q0, q1): per row, each group's
/// slot-code word against the quad panel, accumulated in int32 into the
/// tile `acc` (V x width). The vector bodies take all 4 slots of a group
/// in one four-way dot product; columns past the last vector strip
/// (every column on the portable build) run the row's stored nonzeros.
void vector_region(const QuantizedVnmMatrix& a, std::size_t br,
                   std::size_t g0, std::size_t q0, std::size_t q1,
                   std::size_t dr0, std::size_t dr1, std::size_t n0,
                   std::size_t n1, std::size_t width,
                   spatha::detail::SpmmScratch& s, std::int32_t* acc) {
  if (q0 >= q1 || dr0 >= dr1 || n0 >= n1) return;
  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  const std::size_t quads = q1 - q0;
  const std::size_t cols = n1 - n0;
  const std::size_t stride = 4 * width;  // panel bytes per group
  const std::int8_t* pan = s.panel_i8.data() + q0 * stride + 4 * n0;

#if defined(__AVX512VNNI__)
  // The bias is a property of the panel's columns alone, so the rows
  // share it.
  s.col_corr.resize(cols - cols % kLanes);
  for (std::size_t n = 0; n < s.col_corr.size(); n += kLanes) {
    AccVec sum = _mm512_setzero_si512();
    for (std::size_t q = 0; q < quads; ++q)
      sum = dot4(sum, _mm512_set1_epi8(1), pan + q * stride + 4 * n);
    _mm512_storeu_si512(s.col_corr.data() + n,
                        _mm512_sub_epi32(_mm512_setzero_si512(),
                                         _mm512_slli_epi32(sum, 7)));
  }
#endif

  for (std::size_t dr = dr0; dr < dr1; ++dr) {
    const std::size_t r = br * fmt.v + dr;
    std::int32_t* arow = acc + dr * width + n0;
    std::size_t n = 0;
#if defined(__AVX512VNNI__) || defined(__AVX2__)
    const std::int32_t* words = a.slot_codes().data() + r * groups + g0 + q0;
    for (; n + 4 * kLanes <= cols; n += 4 * kLanes)
      dot_strips<4>(words, quads, pan, stride, s, n, arow);
    for (; n + kLanes <= cols; n += kLanes)
      dot_strips<1>(words, quads, pan, stride, s, n, arow);
#endif
    // The tail runs the stored nonzeros column by column, so each sum
    // stays in a register (a region narrower than one strip is all tail).
    const std::size_t k0 = (r * groups + g0 + q0) * fmt.n;
    const std::int8_t* vals = a.values().data() + k0;
    const std::uint8_t* midx = a.m_indices().data() + k0;
    for (; n < cols; ++n) {
      std::int32_t sum = 0;
      const std::int8_t* col = pan + 4 * n;
      for (std::size_t q = 0, k = 0; q < quads; ++q, col += stride)
        for (std::size_t j = 0; j < fmt.n; ++j, ++k)
          sum += vals[k] * std::int32_t(col[midx[k]]);
      arow[n] += sum;
    }
  }
}

// ------------------------------------------------------------- AMX body
//
// One tdpbssd computes C[16 x 16 int32] += A[16 rows x 64 B] .
// B[16 rows x 64 B], signed by signed, where A's row m holds 16 dwords
// of 4 codes and B's row k holds 16 columns' dwords of 4 codes: row m of
// A is 16 consecutive slot-code words of one weight row (16 groups), and
// row k of B is one group of the quad panel (16 columns). Both operands
// load in place, with strides 4 * groups and 4 * width bytes.

enum class AmxGate { kRuns, kNotCompiled, kCpuid, kXcr0, kArchPrctl };

AmxGate probe_amx() {
#if defined(VENOM_QUANT_AMX)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // CPUID.(7,0):EDX bit 24 is AMX-TILE, bit 25 AMX-INT8.
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 ||
      (edx >> 24 & 3u) != 3u)
    return AmxGate::kCpuid;
  // XCR0 bits 17 (XTILECFG) and 18 (XTILEDATA): the OS saves the tile
  // state. xgetbv itself needs OSXSAVE (CPUID.1:ECX bit 27).
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx >> 27 & 1u) == 0)
    return AmxGate::kXcr0;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo >> 17 & 3u) != 3u) return AmxGate::kXcr0;
  // Linux grants the tile-data state per process on request:
  // ARCH_REQ_XCOMP_PERM (0x1023) for XFEATURE_XTILEDATA (18).
  if (syscall(SYS_arch_prctl, 0x1023, 18) != 0) return AmxGate::kArchPrctl;
  return AmxGate::kRuns;
#else
  return AmxGate::kNotCompiled;
#endif
}

/// Probed once per process (one arch_prctl request).
AmxGate amx_gate() {
  static const AmxGate gate = probe_amx();
  return gate;
}

std::atomic<int> g_force_vector{0};

/// Whether this call runs the AMX body: the gate holds and no test guard
/// forces the vector body.
bool use_amx() {
  return amx_gate() == AmxGate::kRuns && g_force_vector.load() == 0;
}

#if defined(VENOM_QUANT_AMX)
/// Palette 1, tiles 0-7 all 16 rows x 64 bytes. In static storage on
/// purpose: GCC 12's _tile_loadconfig declares only 8 bytes of its
/// operand as read, so the rows / colsb stores of a config built on the
/// stack can be dropped as dead (seen at -O2: only the palette byte was
/// written, and the first tileloadd raised SIGILL).
struct alignas(64) TileConfig {
  std::uint8_t palette;
  std::uint8_t start_row;
  std::uint8_t reserved[14];
  std::uint16_t colsb[16];
  std::uint8_t rows[16];
};
constexpr TileConfig kTileConfig = {
    .palette = 1,
    .start_row = 0,
    .reserved = {},
    .colsb = {64, 64, 64, 64, 64, 64, 64, 64},
    .rows = {16, 16, 16, 16, 16, 16, 16, 16}};

/// MR x NR C tiles of 16 x 16 (C(i, j) in tmm 2i + j) over k_tiles steps
/// of 16 groups; A tiles in tmm4-5, B tiles in tmm6-7. `words` is the
/// first row's first slot-code word, `pan` the panel at the first group
/// and column, `c` the accumulator at the first row and column.
template <int MR, int NR>
void amx_block(const std::int32_t* words, std::size_t groups,
               const std::int8_t* pan, std::int32_t* c, std::size_t width,
               std::size_t k_tiles) {
  const long a_stride = long(4 * groups);
  const long bc_stride = long(4 * width);  // the panel's and the tile's
  const std::size_t c_low = 16 * width;  // the second row tile's offset
  // In bounds by amx_region's tiling (see there): C rows < v16 <= V and
  // columns < w16 <= width of the V x width tile.
  _tile_loadd(0, c, bc_stride);
  if constexpr (NR == 2) _tile_loadd(1, c + 16, bc_stride);
  if constexpr (MR == 2) _tile_loadd(2, c + c_low, bc_stride);
  if constexpr (MR == 2 && NR == 2)
    _tile_loadd(3, c + c_low + 16, bc_stride);
  for (std::size_t kt = 0; kt < k_tiles; ++kt) {
    const std::int32_t* ak = words + 16 * kt;
    const std::int8_t* bk = pan + 16 * kt * (4 * width);
    // A: weight rows < br * V + v16, groups < g0 + 16 * k_tiles <= groups.
    _tile_loadd(4, ak, a_stride);
    if constexpr (MR == 2) _tile_loadd(5, ak + 16 * groups, a_stride);
    // B: panel groups < 16 * k_tiles <= quads, columns < w16 <= width.
    _tile_loadd(6, bk, bc_stride);
    if constexpr (NR == 2) _tile_loadd(7, bk + 64, bc_stride);
    _tile_dpbssd(0, 4, 6);
    if constexpr (NR == 2) _tile_dpbssd(1, 4, 7);
    if constexpr (MR == 2) _tile_dpbssd(2, 5, 6);
    if constexpr (MR == 2 && NR == 2) _tile_dpbssd(3, 5, 7);
  }
  _tile_stored(0, c, bc_stride);
  if constexpr (NR == 2) _tile_stored(1, c + 16, bc_stride);
  if constexpr (MR == 2) _tile_stored(2, c + c_low, bc_stride);
  if constexpr (MR == 2 && NR == 2)
    _tile_stored(3, c + c_low + 16, bc_stride);
}

/// The AMX body over the tile-aligned part of a panel: rows [0, v16) of
/// block row br, columns [0, w16), groups [0, 16 * k_tiles), each a
/// multiple of 16. Tile loads are invisible to ASan, so their bounds hold
/// by construction:
///  - A: rows br * V + [0, v16) exist (v16 <= V), and groups g0 + [0,
///    16 * k_tiles) lie inside the row (g0 + 16 * k_tiles <= g1 <= groups);
///  - B: panel groups [0, 16 * k_tiles) <= quads and columns [0, w16) <=
///    width of the quads x 4 * width panel;
///  - C: rows [0, v16) <= V and columns [0, w16) <= width of the V x width
///    accumulator tile.
void amx_region(const QuantizedVnmMatrix& a, std::size_t br, std::size_t g0,
                std::size_t v16, std::size_t w16, std::size_t k_tiles,
                std::size_t width, const std::int8_t* pan,
                std::int32_t* acc) {
  const std::size_t groups = a.groups_per_row();
  const std::int32_t* words =
      a.slot_codes().data() + br * a.config().v * groups + g0;
  // The tile intrinsics are asm without memory operands: fence the
  // compiler so the panel and accumulator stores land before the tile
  // loads, and the tile stores before stage 3 reads the accumulator.
  // The region owns the tile state: it loads the config on entry and
  // releases the tiles on exit, so nothing else in the thread (another
  // AMX user's tilerelease) can leave it unconfigured, and an idle
  // worker carries no tile state through context switches.
  __asm__ volatile("" ::: "memory");
  _tile_loadconfig(&kTileConfig);
  for (std::size_t dr = 0; dr < v16; dr += 32) {
    const std::int32_t* w = words + dr * groups;
    const bool two_rows = dr + 32 <= v16;
    for (std::size_t n = 0; n < w16; n += 32) {
      const std::int8_t* p = pan + 4 * n;
      std::int32_t* c = acc + dr * width + n;
      const bool two_cols = n + 32 <= w16;
      if (two_rows && two_cols)
        amx_block<2, 2>(w, groups, p, c, width, k_tiles);
      else if (two_rows)
        amx_block<2, 1>(w, groups, p, c, width, k_tiles);
      else if (two_cols)
        amx_block<1, 2>(w, groups, p, c, width, k_tiles);
      else
        amx_block<1, 1>(w, groups, p, c, width, k_tiles);
    }
  }
  _tile_release();
  __asm__ volatile("" ::: "memory");
}
#endif

/// Stage 2 of the int8 pipeline over one K panel [g0, g1) of a tile.
/// Integer sums are exact and order-free, so every body is bit-identical
/// to the scalar oracle. With `amx`, the tiles take the largest part of
/// the panel whose rows, columns and groups are multiples of 16, and the
/// vector body the rest: the K tail of those rows and columns, their
/// column tail, and the row tail (the whole panel when nothing aligns).
inline void accumulate_quad_panel(const QuantizedVnmMatrix& a, std::size_t br,
                                  std::size_t g0, std::size_t g1,
                                  std::size_t width, bool amx,
                                  spatha::detail::SpmmScratch& s,
                                  std::int32_t* acc) {
  const std::size_t v = a.config().v;
  const std::size_t quads = g1 - g0;
  std::size_t v16 = 0, w16 = 0, q16 = 0;
#if defined(VENOM_QUANT_AMX)
  if (amx && v >= 16 && width >= 16 && quads >= 16) {
    v16 = v - v % 16;
    w16 = width - width % 16;
    q16 = quads - quads % 16;
    amx_region(a, br, g0, v16, w16, q16 / 16, width, s.panel_i8.data(), acc);
  }
#else
  (void)amx;
#endif
  vector_region(a, br, g0, q16, quads, 0, v16, 0, w16, width, s, acc);
  vector_region(a, br, g0, 0, quads, 0, v16, w16, width, width, s, acc);
  vector_region(a, br, g0, 0, quads, v16, v, 0, width, width, s, acc);
}

/// Stage 3's dequantization of one accumulator row:
/// out[n] = (float(acc[n]) * rs) * cs[n], the scalar oracle's expression
/// and order, so the vector paths are bit-identical to it.
inline void dequantize_row(const std::int32_t* arow, float rs,
                           const float* cs, float* out, std::size_t width) {
  std::size_t n = 0;
#if defined(__AVX512F__)
  const __m512 rsv = _mm512_set1_ps(rs);
  for (; n + 16 <= width; n += 16)
    _mm512_storeu_ps(
        out + n,
        _mm512_mul_ps(
            _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_loadu_si512(
                              reinterpret_cast<const void*>(arow + n))),
                          rsv),
            _mm512_loadu_ps(cs + n)));
#elif defined(__AVX2__)
  const __m256 rsv = _mm256_set1_ps(rs);
  for (; n + 8 <= width; n += 8)
    _mm256_storeu_ps(
        out + n,
        _mm256_mul_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_loadu_si256(
                              reinterpret_cast<const __m256i*>(arow + n))),
                          rsv),
            _mm256_loadu_ps(cs + n)));
#endif
  for (; n < width; ++n) out[n] = float(arow[n]) * rs * cs[n];
}

/// The int8 SpMM's tile loop: B quantized once, then the same
/// (block row, C tile) decomposition as spatha::spmm_vnm with int8
/// panels and an int32 accumulator tile, inline below the pool's
/// kInlineWork multiply-adds (nnz x C). write_back(r, c0, width, arow,
/// rs, cs, scratch) is stage 3 for one finished row of a tile.
template <class WriteBack>
void run_i8_tiles(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                  const spatha::SpmmConfig& cfg, ThreadPool* pool,
                  spatha::SpmmScratchPool* scratch,
                  const WriteBack& write_back) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "quantized SpMM shape mismatch");
  spatha::validate(cfg, fmt, a.rows(), a.cols(), b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();

  const QuantizedB bq = quantize_columns(b);

  const std::size_t groups = a.groups_per_row();
  const std::size_t groups_per_panel = cfg.block_k / fmt.m;
  const std::size_t c_tiles = (b.cols() + cfg.block_c - 1) / cfg.block_c;
  const bool fixed = cfg.column_loc == spatha::ColumnLocMode::kFixed;
  const bool amx = use_amx();

  pool->parallel_for_chunks(
      a.block_rows() * c_tiles,
      [&](std::size_t t0, std::size_t t1) {
        spatha::detail::ScratchLease scratch_lease;
        spatha::detail::SpmmScratch& s = scratch_lease.bind(scratch);
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / c_tiles;
          const std::size_t c0 = t % c_tiles * cfg.block_c;
          const std::size_t width = std::min(b.cols(), c0 + cfg.block_c) - c0;
          s.acc_i32.assign(fmt.v * width, 0);
          for (std::size_t g0 = 0; g0 < groups; g0 += groups_per_panel) {
            const std::size_t g1 = std::min(groups, g0 + groups_per_panel);
            gather_quad_panel(a, bq.values, br, g0, g1, c0, width, fixed,
                              s.panel_i8);
            accumulate_quad_panel(a, br, g0, g1, width, amx, s,
                                  s.acc_i32.data());
          }
          for (std::size_t dr = 0; dr < fmt.v; ++dr) {
            const std::size_t r = br * fmt.v + dr;
            write_back(r, c0, width, &s.acc_i32[dr * width], a.row_scale(r),
                       &bq.col_scale[c0], s);
          }
        }
      },
      cfg.chunk_grain, a.nnz() * b.cols());
}

/// Every int8 SpMM body, and the oracle, sums a row's groups * n
/// products of |a| <= 128 and |b| <= 127 in int32; the sums are exact
/// while that bound fits, so a longer row is refused up front.
void check_int32_row_bound(const VnmConfig& cfg, std::size_t cols) {
  VENOM_CHECK_MSG(cols / cfg.m * cfg.n * 128 * 127 <=
                      std::size_t(std::numeric_limits<std::int32_t>::max()),
                  "quantized V:N:M: " << cols
                                      << " columns overflow an int32 row sum");
}

/// One word per (row, group): the code of selector slot s in byte s.
/// Nonzero codes occupy distinct slots (from_parts checks, quantize
/// inherits it from the VnmMatrix); zero codes add nothing.
std::vector<std::int32_t> build_slot_codes(
    const VnmConfig& cfg, const std::vector<std::int8_t>& values,
    const std::vector<std::uint8_t>& m_indices) {
  std::vector<std::int32_t> words(values.size() / cfg.n);
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint32_t word = 0;
    for (std::size_t j = 0; j < cfg.n; ++j) {
      const std::size_t i = w * cfg.n + j;
      word |= std::uint32_t(std::uint8_t(values[i])) << (8 * m_indices[i]);
    }
    words[w] = static_cast<std::int32_t>(word);
  }
  return words;
}

}  // namespace

QuantizedVnmMatrix QuantizedVnmMatrix::quantize(const VnmMatrix& fp16) {
  check_int32_row_bound(fp16.config(), fp16.cols());
  QuantizedVnmMatrix q;
  q.cfg_ = fp16.config();
  q.rows_ = fp16.rows();
  q.cols_ = fp16.cols();
  q.m_indices_ = fp16.m_indices();
  q.column_loc_ = fp16.column_locs();
  q.values_.resize(fp16.values().size());
  q.scales_.assign(fp16.rows(), 0.0f);

  const std::size_t per_row = fp16.groups_per_row() * q.cfg_.n;
  for (std::size_t r = 0; r < q.rows_; ++r) {
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < per_row; ++i)
      max_abs = std::max(max_abs,
                         std::fabs(fp16.values()[r * per_row + i].to_float()));
    if (max_abs == 0.0f) continue;  // scale 0, codes already 0
    q.scales_[r] = max_abs / 127.0f;
    const float inv = 127.0f / max_abs;
    for (std::size_t i = 0; i < per_row; ++i)
      q.values_[r * per_row + i] =
          round_to_i8(fp16.values()[r * per_row + i].to_float() * inv);
  }
  q.slot_codes_ = build_slot_codes(q.cfg_, q.values_, q.m_indices_);
  return q;
}

VnmMatrix QuantizedVnmMatrix::dequantize() const {
  const std::size_t per_row = groups_per_row() * cfg_.n;
  std::vector<half_t> values(values_.size());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = 0; i < per_row; ++i)
      values[r * per_row + i] =
          half_t(float(values_[r * per_row + i]) * scales_[r]);
  return VnmMatrix::from_parts(cfg_, rows_, cols_, std::move(values),
                               m_indices_, column_loc_);
}

QuantizedVnmMatrix QuantizedVnmMatrix::from_parts(
    VnmConfig cfg, std::size_t rows, std::size_t cols,
    std::vector<std::int8_t> values, std::vector<std::uint8_t> m_indices,
    std::vector<std::uint8_t> column_loc, std::vector<float> scales) {
  check_vnm_parts(cfg, rows, cols, values.size(), m_indices, column_loc,
                  [&](std::size_t i) { return values[i] == 0; });
  VENOM_CHECK_MSG(scales.size() == rows,
                  "quantized V:N:M parts: one scale per row required");
  for (float s : scales)
    VENOM_CHECK_MSG(s >= 0.0f && std::isfinite(s),
                    "quantized V:N:M parts: scales must be finite and >= 0");
  check_int32_row_bound(cfg, cols);
  QuantizedVnmMatrix q;
  q.cfg_ = cfg;
  q.rows_ = rows;
  q.cols_ = cols;
  q.values_ = std::move(values);
  q.m_indices_ = std::move(m_indices);
  q.column_loc_ = std::move(column_loc);
  q.scales_ = std::move(scales);
  q.slot_codes_ = build_slot_codes(q.cfg_, q.values_, q.m_indices_);
  return q;
}

std::size_t QuantizedVnmMatrix::compressed_bytes() const {
  const std::size_t cloc_bits = static_cast<std::size_t>(
      std::ceil(std::log2(double(cfg_.m))));
  return values_.size() +                          // int8 values
         (m_indices_.size() * 2 + 7) / 8 +         // 2-bit metadata
         (column_loc_.size() * cloc_bits + 7) / 8 +
         scales_.size() * sizeof(float);
}

Fp8VnmMatrix Fp8VnmMatrix::quantize(const VnmMatrix& fp16, Fp8Format format) {
  Fp8VnmMatrix q;
  q.cfg_ = fp16.config();
  q.format_ = format;
  q.rows_ = fp16.rows();
  q.cols_ = fp16.cols();
  q.m_indices_ = fp16.m_indices();
  q.column_loc_ = fp16.column_locs();
  q.values_.resize(fp16.values().size());
  half_to_fp8_n(fp16.values().data(), q.values_.data(), q.values_.size(),
                format);
  return q;
}

VnmMatrix Fp8VnmMatrix::dequantize() const {
  // One conversion per code, not per value: spmm_vnm_fp8 decodes per call.
  half_t table[256];
  for (unsigned code = 0; code < 256; ++code)
    table[code] = half_t(fp8_to_float(std::uint8_t(code), format_));
  std::vector<half_t> values(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i)
    values[i] = table[values_[i]];
  return VnmMatrix::from_parts(cfg_, rows_, cols_, std::move(values),
                               m_indices_, column_loc_);
}

Fp8VnmMatrix Fp8VnmMatrix::from_parts(VnmConfig cfg, std::size_t rows,
                                      std::size_t cols, Fp8Format format,
                                      std::vector<std::uint8_t> values,
                                      std::vector<std::uint8_t> m_indices,
                                      std::vector<std::uint8_t> column_loc) {
  check_vnm_parts(cfg, rows, cols, values.size(), m_indices, column_loc,
                  [&](std::size_t i) {
                    return fp8_to_float(values[i], format) == 0.0f;
                  });
  Fp8VnmMatrix q;
  q.cfg_ = cfg;
  q.format_ = format;
  q.rows_ = rows;
  q.cols_ = cols;
  q.values_ = std::move(values);
  q.m_indices_ = std::move(m_indices);
  q.column_loc_ = std::move(column_loc);
  return q;
}

std::size_t Fp8VnmMatrix::compressed_bytes() const {
  const std::size_t cloc_bits = static_cast<std::size_t>(
      std::ceil(std::log2(double(cfg_.m))));
  return values_.size() +                   // fp8 values
         (m_indices_.size() * 2 + 7) / 8 +  // 2-bit metadata
         (column_loc_.size() * cloc_bits + 7) / 8;
}

FloatMatrix spmm_vnm_i8(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                        const spatha::SpmmConfig& cfg, ThreadPool* pool,
                        spatha::SpmmScratchPool* scratch) {
  FloatMatrix c(a.rows(), b.cols());
  run_i8_tiles(a, b, cfg, pool, scratch,
               [&](std::size_t r, std::size_t c0, std::size_t width,
                   const std::int32_t* arow, float rs, const float* cs,
                   spatha::detail::SpmmScratch&) {
                 dequantize_row(arow, rs, cs, &c(r, c0), width);
               });
  return c;
}

HalfMatrix spmm_vnm_i8_fused(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                             const spatha::Epilogue& epilogue,
                             const spatha::SpmmConfig& cfg, ThreadPool* pool,
                             spatha::SpmmScratchPool* scratch) {
  VENOM_CHECK_MSG(epilogue.bias.empty() || epilogue.bias.size() == a.rows(),
                  "bias size " << epilogue.bias.size() << " != rows "
                               << a.rows());
  HalfMatrix y(a.rows(), b.cols());
  run_i8_tiles(a, b, cfg, pool, scratch,
               [&](std::size_t r, std::size_t c0, std::size_t width,
                   const std::int32_t* arow, float rs, const float* cs,
                   spatha::detail::SpmmScratch& s) {
                 s.acc.resize(width);
                 float* row = s.acc.data();
                 dequantize_row(arow, rs, cs, row, width);
                 spatha::apply_epilogue(epilogue, r, row, width);
                 float_to_half_n(row, &y(r, c0), width);
               });
  return y;
}

std::string int8_stage2_body() {
#if defined(__AVX512VNNI__)
  const std::string vector = "AVX-512 VNNI vpdpbusd";
#elif defined(__AVX2__)
  const std::string vector = "AVX2 vpmaddubsw";
#else
  const std::string vector = "scalar stored-nonzero loop";
#endif
  switch (amx_gate()) {
    case AmxGate::kRuns:
      return "AMX tdpbssd, " + vector + " past the 16-aligned tiles";
    case AmxGate::kNotCompiled:
      return vector;
    case AmxGate::kCpuid:
      return vector + " (AMX compiled in; CPUID lacks AMX-TILE/AMX-INT8)";
    case AmxGate::kXcr0:
      return vector + " (AMX compiled in; XCR0 lacks the tile state)";
    case AmxGate::kArchPrctl:
      return vector +
             " (AMX compiled in; arch_prctl refused the tile-data state)";
  }
  return vector;
}

namespace detail {

std::string amx_unavailable_reason() {
  if (amx_gate() == AmxGate::kRuns) return {};
  return "no AMX body in this process; int8 stage 2 runs " +
         int8_stage2_body();
}

ForceVectorBody::ForceVectorBody() { g_force_vector.fetch_add(1); }
ForceVectorBody::~ForceVectorBody() { g_force_vector.fetch_sub(1); }

}  // namespace detail

FloatMatrix spmm_vnm_i8(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                        ThreadPool* pool,
                        const spatha::TuningCache* tuning) {
  const spatha::TuningCache& cache =
      tuning != nullptr ? *tuning : spatha::TuningCache::global();
  return spmm_vnm_i8(
      a, b,
      spatha::select_config(cache, a.config(), a.rows(), a.cols(), b.cols(),
                            ops::Dtype::kI8),
      pool);
}

FloatMatrix spmm_vnm_i8_scalar(const QuantizedVnmMatrix& a,
                               const HalfMatrix& b,
                               spatha::ColumnLocMode mode) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "quantized SpMM shape mismatch");
  const bool fixed = mode == spatha::ColumnLocMode::kFixed;

  const QuantizedB bq = quantize_columns(b);

  const std::size_t width = b.cols();
  const std::size_t groups = a.groups_per_row();
  FloatMatrix c(a.rows(), width);
  std::vector<std::int32_t> acc(width);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const std::size_t br = r / fmt.v;
    std::fill(acc.begin(), acc.end(), 0);
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t j = 0; j < fmt.n; ++j) {
        const std::int32_t av = a.value(r, g, j);
        if (av == 0) continue;
        const std::uint8_t mi = a.m_index(r, g, j);
        const std::size_t col =
            g * fmt.m + (fixed ? mi : a.column_loc(br, g, mi));
        const std::int8_t* brow = &bq.values(col, 0);
        for (std::size_t n = 0; n < width; ++n)
          acc[n] += av * std::int32_t(brow[n]);
      }
    }
    const float rs = a.row_scale(r);
    for (std::size_t n = 0; n < width; ++n)
      c(r, n) = float(acc[n]) * rs * bq.col_scale[n];
  }
  return c;
}

spatha::PackedVnm pack_decoded(const Fp8VnmMatrix& a) {
  return spatha::PackedVnm(std::make_shared<const VnmMatrix>(a.dequantize()));
}

FloatMatrix spmm_vnm_fp8(const Fp8VnmMatrix& a, const HalfMatrix& b,
                         const spatha::SpmmConfig& cfg, ThreadPool* pool,
                         spatha::SpmmScratchPool* scratch) {
  return spatha::spmm_vnm(pack_decoded(a), b, cfg, pool, scratch);
}

FloatMatrix spmm_vnm_fp8(const Fp8VnmMatrix& a, const HalfMatrix& b,
                         ThreadPool* pool,
                         const spatha::TuningCache* tuning) {
  const spatha::TuningCache& cache =
      tuning != nullptr ? *tuning : spatha::TuningCache::global();
  return spmm_vnm_fp8(
      a, b,
      spatha::select_config(cache, a.config(), a.rows(), a.cols(), b.cols(),
                            a.format() == Fp8Format::kE5M2
                                ? ops::Dtype::kF8E5M2
                                : ops::Dtype::kF8E4M3),
      pool);
}

FloatMatrix spmm_vnm_fp8_scalar(const Fp8VnmMatrix& a, const HalfMatrix& b,
                                spatha::ColumnLocMode mode) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "fp8 SpMM shape mismatch");
  const bool fixed = mode == spatha::ColumnLocMode::kFixed;

  const std::size_t width = b.cols();
  const std::size_t groups = a.groups_per_row();
  FloatMatrix c(a.rows(), width);
  std::vector<float> brow_f(width);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const std::size_t br = r / fmt.v;
    float* crow = &c(r, 0);
    std::fill(crow, crow + width, 0.0f);
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t j = 0; j < fmt.n; ++j) {
        const float av = a.value(r, g, j);
        if (av == 0.0f) continue;
        const std::uint8_t mi = a.m_index(r, g, j);
        const std::size_t col =
            g * fmt.m + (fixed ? mi : a.column_loc(br, g, mi));
        half_to_float_n(&b(col, 0), brow_f.data(), width);
        for (std::size_t n = 0; n < width; ++n)
          crow[n] = std::fma(av, brow_f[n], crow[n]);
      }
    }
  }
  return c;
}

}  // namespace venom::quant
