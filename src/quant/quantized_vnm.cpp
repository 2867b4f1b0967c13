#include "quant/quantized_vnm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

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

#include "common/error.hpp"
#include "common/half.hpp"
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

/// Per-column symmetric int8 image of the dense operand plus its
/// dequantization scales. Shared by the fast kernel and the scalar
/// oracle so both consume identical codes — with exact int32
/// accumulation, fast-vs-scalar bit parity then reduces to an equality
/// of inputs rather than of summation orders.
struct QuantizedB {
  Matrix<std::int8_t> values;
  std::vector<float> col_scale;
};

QuantizedB quantize_columns(const HalfMatrix& b) {
  const std::size_t rows = b.rows();
  const std::size_t width = b.cols();
  QuantizedB q{Matrix<std::int8_t>(rows, width),
               std::vector<float>(width, 0.0f)};

  // Pass 1 (row-major, running per-column max): convert each fp16 row
  // and fold it into the max-abs accumulator row. A single row buffer is
  // reused — re-converting in pass 2 (exact, so the passes agree) is far
  // cheaper than streaming a full float image of B through the cache.
  std::vector<float> rowf(width);
  std::vector<float> max_abs(width, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = rowf.data();
    half_to_float_n(&b(r, 0), row, width);
    std::size_t c = 0;
#if defined(__AVX512F__)
    for (; c + 16 <= width; c += 16)
      _mm512_storeu_ps(
          &max_abs[c],
          _mm512_max_ps(_mm512_loadu_ps(&max_abs[c]),
                        _mm512_abs_ps(_mm512_loadu_ps(row + c))));
#elif defined(__AVX2__)
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    for (; c + 8 <= width; c += 8)
      _mm256_storeu_ps(
          &max_abs[c],
          _mm256_max_ps(_mm256_loadu_ps(&max_abs[c]),
                        _mm256_and_ps(_mm256_loadu_ps(row + c), absmask)));
#endif
    for (; c < width; ++c)
      max_abs[c] = std::max(max_abs[c], std::fabs(row[c]));
  }
  std::vector<float> inv(width, 0.0f);
  for (std::size_t c = 0; c < width; ++c) {
    if (max_abs[c] == 0.0f) continue;
    q.col_scale[c] = max_abs[c] / 127.0f;
    inv[c] = 127.0f / max_abs[c];
  }
  // Pass 2: quantize row by row against the column inverses. The vector
  // path mirrors round_to_i8 exactly — copysign(0.5) add then truncate —
  // and the saturating packs cannot fire inside the guaranteed
  // |x| <= 127 * (1 + eps) range, so both paths emit identical codes.
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = rowf.data();
    half_to_float_n(&b(r, 0), rowf.data(), width);
    std::int8_t* dst = &q.values(r, 0);
    std::size_t c = 0;
#if defined(__AVX512F__)
    const __m512 half512 = _mm512_set1_ps(0.5f);
    const __m512i sign512 =
        _mm512_set1_epi32(static_cast<std::int32_t>(0x80000000u));
    for (; c + 16 <= width; c += 16) {
      const __m512 v = _mm512_mul_ps(_mm512_loadu_ps(row + c),
                                     _mm512_loadu_ps(&inv[c]));
      const __m512 biased = _mm512_add_ps(
          v, _mm512_castsi512_ps(_mm512_or_epi32(
                 _mm512_and_epi32(_mm512_castps_si512(v), sign512),
                 _mm512_castps_si512(half512))));
      // int32 -> int8 via vpmovsdb; the signed saturation cannot fire
      // inside the guaranteed range, same as the packs below. The max
      // keeps a non-finite column's codes (cvtt yields INT_MIN) at
      // >= -127 too, inside the kernels' |b| <= 127 exactness bound.
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + c),
          _mm512_cvtsepi32_epi8(_mm512_max_epi32(
              _mm512_cvttps_epi32(biased), _mm512_set1_epi32(-127))));
    }
#elif defined(__AVX2__)
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 signmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(
            static_cast<std::int32_t>(0x80000000u)));
    for (; c + 16 <= width; c += 16) {
      __m256 v0 = _mm256_mul_ps(_mm256_loadu_ps(row + c),
                                _mm256_loadu_ps(&inv[c]));
      __m256 v1 = _mm256_mul_ps(_mm256_loadu_ps(row + c + 8),
                                _mm256_loadu_ps(&inv[c + 8]));
      v0 = _mm256_add_ps(v0, _mm256_or_ps(_mm256_and_ps(v0, signmask), half));
      v1 = _mm256_add_ps(v1, _mm256_or_ps(_mm256_and_ps(v1, signmask), half));
      // int32 -> int16 -> int8 narrowing; packs_epi32 interleaves the
      // 128-bit lanes, the permute restores source order. As on the
      // AVX-512 path, the max keeps non-finite columns' codes >= -127.
      const __m256i w = _mm256_max_epi16(
          _mm256_permute4x64_epi64(
              _mm256_packs_epi32(_mm256_cvttps_epi32(v0),
                                 _mm256_cvttps_epi32(v1)),
              0xd8),
          _mm256_set1_epi16(-127));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + c),
          _mm_packs_epi16(_mm256_castsi256_si128(w),
                          _mm256_extracti128_si256(w, 1)));
    }
#endif
    for (; c < width; ++c) dst[c] = round_to_i8(row[c] * inv[c]);
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

/// Stage 2 of the int8 pipeline: per row, each group's slot-code word
/// against the quad panel, accumulated in int32. Integer sums are exact
/// and order-free, so every body is bit-identical to the scalar oracle.
/// The vector bodies take all 4 slots of a group in one four-way dot
/// product; columns past the last vector strip (every column on the
/// portable build) run the row's stored nonzeros instead.
inline void accumulate_quad_panel(const QuantizedVnmMatrix& a, std::size_t br,
                                  std::size_t g0, std::size_t g1,
                                  std::size_t width,
                                  spatha::detail::SpmmScratch& s,
                                  std::int32_t* acc) {
  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  const std::size_t quads = g1 - g0;
  const std::int8_t* pan = s.panel_i8.data();
  const std::size_t stride = 4 * width;  // panel bytes per group

#if defined(__AVX512VNNI__)
  // The bias is a property of the panel's columns alone, so the V rows
  // of the block share it.
  s.col_corr.resize(width - width % kLanes);
  for (std::size_t n = 0; n < s.col_corr.size(); n += kLanes) {
    AccVec sum = _mm512_setzero_si512();
    for (std::size_t q = 0; q < quads; ++q)
      sum = dot4(sum, _mm512_set1_epi8(1), pan + q * stride + 4 * n);
    _mm512_storeu_si512(s.col_corr.data() + n,
                        _mm512_sub_epi32(_mm512_setzero_si512(),
                                         _mm512_slli_epi32(sum, 7)));
  }
#endif

  for (std::size_t dr = 0; dr < fmt.v; ++dr) {
    const std::size_t r = br * fmt.v + dr;
    std::int32_t* arow = acc + dr * width;
    std::size_t n0 = 0;
#if defined(__AVX512VNNI__) || defined(__AVX2__)
    const std::int32_t* words = a.slot_codes().data() + r * groups + g0;
    for (; n0 + 4 * kLanes <= width; n0 += 4 * kLanes)
      dot_strips<4>(words, quads, pan, stride, s, n0, arow);
    for (; n0 + kLanes <= width; n0 += kLanes)
      dot_strips<1>(words, quads, pan, stride, s, n0, arow);
#endif
    // The tail runs the stored nonzeros column by column, so each sum
    // stays in a register (a tile narrower than one strip is all tail).
    const std::int8_t* vals = a.values().data() + (r * groups + g0) * fmt.n;
    const std::uint8_t* midx =
        a.m_indices().data() + (r * groups + g0) * fmt.n;
    for (std::size_t n = n0; n < width; ++n) {
      std::int32_t sum = 0;
      const std::int8_t* col = pan + 4 * n;
      for (std::size_t q = 0, k = 0; q < quads; ++q, col += stride)
        for (std::size_t j = 0; j < fmt.n; ++j, ++k)
          sum += vals[k] * std::int32_t(col[midx[k]]);
      arow[n] += sum;
    }
  }
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
  for (std::size_t i = 0; i < q.values_.size(); ++i)
    q.values_[i] = float_to_fp8(fp16.values()[i].to_float(), format);
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
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "quantized SpMM shape mismatch");
  spatha::validate(cfg, fmt, a.rows(), a.cols(), b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();

  const QuantizedB bq = quantize_columns(b);

  FloatMatrix c(a.rows(), b.cols());
  const std::size_t groups = a.groups_per_row();
  const std::size_t groups_per_panel = cfg.block_k / fmt.m;
  const std::size_t c_tiles = (b.cols() + cfg.block_c - 1) / cfg.block_c;
  const std::size_t block_rows = a.block_rows();
  const bool fixed = cfg.column_loc == spatha::ColumnLocMode::kFixed;

  // Same (block row, C tile) decomposition as spatha::spmm_vnm; the
  // panel is packed int8 and the accumulator tile int32, with the
  // scale_row * scale_col dequantization fused into stage 3.
  pool->parallel_for_chunks(
      block_rows * c_tiles, [&](std::size_t t0, std::size_t t1) {
        spatha::detail::ScratchLease scratch_lease;
        spatha::detail::SpmmScratch& s = scratch_lease.bind(scratch);
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / c_tiles;
          const std::size_t ct = t % c_tiles;
          const std::size_t c0 = ct * cfg.block_c;
          const std::size_t c1 = std::min(b.cols(), c0 + cfg.block_c);
          const std::size_t width = c1 - c0;

          s.acc_i32.assign(fmt.v * width, 0);
          for (std::size_t g0 = 0; g0 < groups; g0 += groups_per_panel) {
            const std::size_t g1 = std::min(groups, g0 + groups_per_panel);
            gather_quad_panel(a, bq.values, br, g0, g1, c0, width, fixed,
                              s.panel_i8);
            accumulate_quad_panel(a, br, g0, g1, width, s, s.acc_i32.data());
          }

          // Stage 3: dequantizing write-back of the finished tile. The
          // vector path computes (float(acc) * rs) * cs in the same
          // per-element order as the scalar loop, so it is bit-identical.
          for (std::size_t dr = 0; dr < fmt.v; ++dr) {
            const std::size_t r = br * fmt.v + dr;
            const float rs = a.row_scale(r);
            float* crow = &c(r, c0);
            const std::int32_t* arow = &s.acc_i32[dr * width];
            const float* cs = &bq.col_scale[c0];
            std::size_t n = 0;
#if defined(__AVX512F__)
            const __m512 rsv = _mm512_set1_ps(rs);
            for (; n + 16 <= width; n += 16)
              _mm512_storeu_ps(
                  crow + n,
                  _mm512_mul_ps(
                      _mm512_mul_ps(
                          _mm512_cvtepi32_ps(_mm512_loadu_si512(
                              reinterpret_cast<const void*>(arow + n))),
                          rsv),
                      _mm512_loadu_ps(cs + n)));
#elif defined(__AVX2__)
            const __m256 rsv = _mm256_set1_ps(rs);
            for (; n + 8 <= width; n += 8)
              _mm256_storeu_ps(
                  crow + n,
                  _mm256_mul_ps(
                      _mm256_mul_ps(
                          _mm256_cvtepi32_ps(_mm256_loadu_si256(
                              reinterpret_cast<const __m256i*>(arow + n))),
                          rsv),
                      _mm256_loadu_ps(cs + n)));
#endif
            for (; n < width; ++n)
              crow[n] = float(arow[n]) * rs * cs[n];
          }
        }
      },
      cfg.chunk_grain);
  return c;
}

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
