#include "quant/quantized_vnm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#if defined(__AVX2__)
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
#include "spatha/microkernel.hpp"
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
      // inside the guaranteed range, same as the packs below.
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + c),
          _mm512_cvtsepi32_epi8(_mm512_cvttps_epi32(biased)));
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
      // 128-bit lanes, the permute restores source order.
      const __m256i w = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(_mm256_cvttps_epi32(v0),
                             _mm256_cvttps_epi32(v1)),
          0xd8);
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
/// column-loc into a packed panel, panel[((g - g0) * sel + s) * width +
/// n], at half the traffic of a float panel. The int8
/// codes are widened to int16 here, once per gathered value, so stage 2
/// can feed vpmaddwd-class multiply-adds straight from the panel.
inline void gather_b_panel_i8(const QuantizedVnmMatrix& a,
                              const Matrix<std::int8_t>& bq, std::size_t br,
                              std::size_t g0, std::size_t g1, std::size_t c0,
                              std::size_t width, bool fixed,
                              std::vector<std::int16_t>& panel) {
  const VnmConfig fmt = a.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = a.groups_per_row();
  panel.resize((g1 - g0) * sel * width);
  const std::uint8_t* cloc =
      a.column_locs().data() + (br * groups + g0) * sel;
  for (std::size_t g = g0; g < g1; ++g) {
    for (std::size_t s = 0; s < sel; ++s) {
      const std::size_t offset = fixed ? s : cloc[(g - g0) * sel + s];
      const std::int8_t* src = &bq(g * fmt.m + offset, c0);
      std::int16_t* dst = &panel[((g - g0) * sel + s) * width];
      std::size_t n = 0;
#if defined(__AVX2__)
      for (; n + 16 <= width; n += 16)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + n),
            _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(src + n))));
#endif
      for (; n < width; ++n) dst[n] = src[n];
    }
  }
}

#if defined(__AVX2__)
/// One vpmaddwd-class step: acc += pairwise int16 dot of `w` and `av`.
/// AVX-512 VNNI fuses the multiply-add chain into vpdpwssd when the
/// compile target has it; plain AVX2 spends the extra vpaddd.
inline __m256i madd_acc_i16(__m256i acc, __m256i w, __m256i av) {
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  return _mm256_dpwssd_epi32(acc, w, av);
#else
  return _mm256_add_epi32(acc, _mm256_madd_epi16(w, av));
#endif
}

/// Packs two hoisted int8 A-values into the [lo16 | hi16] dword that
/// vpmaddwd pairs against the interleaved panel rows.
inline __m256i pack_a_pair(std::int32_t a1, std::int32_t a2) {
  return _mm256_set1_epi32(static_cast<std::int32_t>(
      (static_cast<std::uint32_t>(a1) & 0xffffu) |
      (static_cast<std::uint32_t>(a2) << 16)));
}
#endif

/// Stage 2 of the int8 pipeline: register-blocked int32 accumulation.
/// The vector path consumes TWO nonzeros per step: their panel rows are
/// interleaved with vpunpck[lh]wd and reduced with vpmaddwd (int16 pair
/// dot products, two MACs per lane per instruction — products are at
/// most 127^2 so the pairwise int32 sum is exact), which is where the
/// speedup over the fp16 FMA kernel comes from. int32 accumulation is
/// associative-exact, so the strip/pair order is free and the result is
/// bit-identical to the scalar oracle on every target.
inline void accumulate_panel_i8(const QuantizedVnmMatrix& a, std::size_t br,
                                std::size_t g0, std::size_t g1,
                                std::size_t width,
                                spatha::detail::SpmmScratch& s,
                                std::int32_t* acc) {
  const VnmConfig fmt = a.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = a.groups_per_row();
  const std::size_t span = (g1 - g0) * fmt.n;
  s.a_ints.resize(span);
  s.a_offs.resize(span);
  const std::int16_t* pan = s.panel_i16.data();

  for (std::size_t dr = 0; dr < fmt.v; ++dr) {
    const std::size_t r = br * fmt.v + dr;
    const std::int8_t* vals = a.values().data() + (r * groups + g0) * fmt.n;
    const std::uint8_t* midx =
        a.m_indices().data() + (r * groups + g0) * fmt.n;
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < span; ++k) {
      if (vals[k] == 0) continue;
      s.a_ints[cnt] = vals[k];
      s.a_offs[cnt] = static_cast<std::uint32_t>(
          ((k / fmt.n) * sel + midx[k]) * width);
      ++cnt;
    }

    std::int32_t* arow = acc + dr * width;
    std::size_t n0 = 0;
#if defined(__AVX2__)
    for (; n0 + 16 <= width; n0 += 16) {
      // Unpack interleaves within 128-bit lanes, so the running sums
      // hold columns [0-3, 8-11] and [4-7, 12-15]; one cross-lane
      // permute per strip restores natural order at fold-in time.
      __m256i acc_a = _mm256_setzero_si256();
      __m256i acc_b = _mm256_setzero_si256();
      std::size_t t = 0;
      for (; t + 2 <= cnt; t += 2) {
        const __m256i w1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(pan + s.a_offs[t] + n0));
        const __m256i w2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(pan + s.a_offs[t + 1] + n0));
        const __m256i av = pack_a_pair(s.a_ints[t], s.a_ints[t + 1]);
        acc_a = madd_acc_i16(acc_a, _mm256_unpacklo_epi16(w1, w2), av);
        acc_b = madd_acc_i16(acc_b, _mm256_unpackhi_epi16(w1, w2), av);
      }
      if (t < cnt) {
        // Odd count: pair the last nonzero with an all-zero partner.
        const __m256i w1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(pan + s.a_offs[t] + n0));
        const __m256i z = _mm256_setzero_si256();
        const __m256i av = pack_a_pair(s.a_ints[t], 0);
        acc_a = madd_acc_i16(acc_a, _mm256_unpacklo_epi16(w1, z), av);
        acc_b = madd_acc_i16(acc_b, _mm256_unpackhi_epi16(w1, z), av);
      }
      const __m256i lo = _mm256_permute2x128_si256(acc_a, acc_b, 0x20);
      const __m256i hi = _mm256_permute2x128_si256(acc_a, acc_b, 0x31);
      __m256i* out = reinterpret_cast<__m256i*>(arow + n0);
      _mm256_storeu_si256(
          out, _mm256_add_epi32(_mm256_loadu_si256(out), lo));
      _mm256_storeu_si256(
          out + 1, _mm256_add_epi32(_mm256_loadu_si256(out + 1), hi));
    }
#else
    for (; n0 + spatha::detail::kStrip <= width;
         n0 += spatha::detail::kStrip) {
      std::int32_t regs[spatha::detail::kStrip];
      for (std::size_t u = 0; u < spatha::detail::kStrip; ++u)
        regs[u] = arow[n0 + u];
      for (std::size_t t = 0; t < cnt; ++t) {
        const std::int32_t av = s.a_ints[t];
        const std::int16_t* bp = pan + s.a_offs[t] + n0;
        for (std::size_t u = 0; u < spatha::detail::kStrip; ++u)
          regs[u] += av * std::int32_t(bp[u]);
      }
      for (std::size_t u = 0; u < spatha::detail::kStrip; ++u)
        arow[n0 + u] = regs[u];
    }
#endif
    if (n0 < width) {
      const std::size_t rem = width - n0;
      for (std::size_t t = 0; t < cnt; ++t) {
        const std::int32_t av = s.a_ints[t];
        const std::int16_t* bp = pan + s.a_offs[t] + n0;
        std::int32_t* ar = arow + n0;
        for (std::size_t u = 0; u < rem; ++u)
          ar[u] += av * std::int32_t(bp[u]);
      }
    }
  }
}

#if defined(__AVX512VNNI__)
/// VNNI variant of stages 1.2/2. The key restructuring: instead of
/// hoisting each row's N nonzeros, every row is PADDED to all `sel`
/// selector slots per group (zero codes where the row stores nothing —
/// exact in integer math, so parity with the scalar oracle is
/// untouched). Padded slots are row-independent, so the panel can be
/// packed once per gather into the quad-of-slots byte interleave that
/// vpdpbusd consumes — [slot, slot+1, slot+2, slot+3] per column dword —
/// and that packing is amortized across the V rows sharing the panel.
/// vpdpbusd multiplies u8 by s8; the panel side is biased (+128, i.e.
/// code ^ 0x80) to make it unsigned, and the bias is removed at fold-in
/// with the per-row correction 128 * sum(codes) — a per-column constant,
/// computed exactly in int32. Net: one 64-byte load + one vpdpbusd per
/// quad per 16 columns, with no per-nonzero unpacking at all.
///
/// One quad per M-group: byte ((g - g0) * 4 * width) + 4 * n + s holds
/// biased selector slot s of group g, column n; slots past `sel` store
/// 0x80 (= biased zero). Padding per group — rather than packing `sel`
/// slots densely — keeps panel quad g aligned with the packed code dword
/// g that pack_a_codes_i8_vnni builds, for every sel.
inline void gather_b_panel_i8_vnni(const QuantizedVnmMatrix& a,
                                   const Matrix<std::int8_t>& bq,
                                   std::size_t br, std::size_t g0,
                                   std::size_t g1, std::size_t c0,
                                   std::size_t width, bool fixed,
                                   std::vector<std::uint8_t>& panel) {
  const VnmConfig fmt = a.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = a.groups_per_row();
  const std::size_t quads = g1 - g0;
  panel.resize(quads * 4 * width);
  const std::uint8_t* cloc =
      a.column_locs().data() + (br * groups + g0) * sel;
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  for (std::size_t q = 0; q < quads; ++q) {
    const std::int8_t* src[4] = {nullptr, nullptr, nullptr, nullptr};
    for (std::size_t s = 0; s < 4 && s < sel; ++s) {
      const std::size_t offset = fixed ? s : cloc[q * sel + s];
      src[s] = &bq((g0 + q) * fmt.m + offset, c0);
    }
    std::uint8_t* dst = panel.data() + q * 4 * width;
    std::size_t n = 0;
    for (; n + 16 <= width; n += 16) {
      // Four 16-byte slot rows -> sixteen column dwords via the classic
      // byte/word unpack ladder; the bias xor rides along for free.
      const __m128i x0 =
          src[0] ? _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src[0] + n)), bias)
                 : bias;
      const __m128i x1 =
          src[1] ? _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src[1] + n)), bias)
                 : bias;
      const __m128i x2 =
          src[2] ? _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src[2] + n)), bias)
                 : bias;
      const __m128i x3 =
          src[3] ? _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src[3] + n)), bias)
                 : bias;
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
    for (; n < width; ++n)
      for (std::size_t i = 0; i < 4; ++i)
        dst[4 * n + i] = static_cast<std::uint8_t>(
            (src[i] ? static_cast<std::uint8_t>(src[i][n]) : 0u) ^ 0x80u);
  }
}

/// Packs every (row, group) of the block row into its vpdpbusd code
/// dword — code of selector slot s at byte s, unused slots zero — plus
/// per-row prefix sums of the codes over groups for the bias
/// correction. Runs once per output tile: the packing depends only on
/// the block row, so hoisting it out of the K-panel loop removes the
/// dominant per-(row, panel) fixed cost for formats with many small
/// panels.
inline void pack_a_codes_i8_vnni(const QuantizedVnmMatrix& a, std::size_t br,
                                 spatha::detail::SpmmScratch& s) {
  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  s.a_ints.assign(fmt.v * groups, 0);
  s.a_sums.resize(fmt.v * (groups + 1));
  for (std::size_t dr = 0; dr < fmt.v; ++dr) {
    const std::size_t r = br * fmt.v + dr;
    const std::int8_t* vals = a.values().data() + r * groups * fmt.n;
    const std::uint8_t* midx = a.m_indices().data() + r * groups * fmt.n;
    std::int32_t* dw = s.a_ints.data() + dr * groups;
    std::int32_t* ps = s.a_sums.data() + dr * (groups + 1);
    ps[0] = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      std::uint32_t d = 0;
      std::int32_t sum = 0;
      for (std::size_t j = 0; j < fmt.n; ++j) {
        const std::int8_t v = vals[g * fmt.n + j];
        d |= std::uint32_t(std::uint8_t(v)) << (8 * midx[g * fmt.n + j]);
        sum += v;
      }
      dw[g] = static_cast<std::int32_t>(d);
      ps[g + 1] = ps[g] + sum;
    }
  }
}

/// Stage 2 against the quad-interleaved panel: per group per 16-column
/// strip, one vpdpbusd against the row's packed slot-code dword (four
/// u8*s8 MACs per int32 lane per instruction). Accumulator lanes land in
/// natural column order, so fold-in is a plain add minus the bias
/// correction — no permutes anywhere in the hot loop.
inline void accumulate_panel_i8_vnni(const QuantizedVnmMatrix& a,
                                     std::size_t g0, std::size_t g1,
                                     std::size_t width,
                                     spatha::detail::SpmmScratch& s,
                                     std::int32_t* acc) {
  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  const std::size_t quads = g1 - g0;
  const std::uint8_t* pan = s.panel_u8.data();

  for (std::size_t dr = 0; dr < fmt.v; ++dr) {
    const std::int32_t* dw = s.a_ints.data() + dr * groups + g0;
    const std::int32_t* ps = s.a_sums.data() + dr * (groups + 1);
    const std::int32_t corr = 128 * (ps[g1] - ps[g0]);

    std::int32_t* arow = acc + dr * width;
    std::size_t n0 = 0;
    const __m512i corr16 = _mm512_set1_epi32(corr);
    for (; n0 + 64 <= width; n0 += 64) {
      __m512i a0 = _mm512_setzero_si512();
      __m512i a1 = _mm512_setzero_si512();
      __m512i a2 = _mm512_setzero_si512();
      __m512i a3 = _mm512_setzero_si512();
      for (std::size_t q = 0; q < quads; ++q) {
        const __m512i av = _mm512_set1_epi32(dw[q]);
        const std::uint8_t* bp = pan + q * 4 * width + 4 * n0;
        a0 = _mm512_dpbusd_epi32(
            a0, _mm512_loadu_si512(reinterpret_cast<const void*>(bp)), av);
        a1 = _mm512_dpbusd_epi32(
            a1, _mm512_loadu_si512(reinterpret_cast<const void*>(bp + 64)),
            av);
        a2 = _mm512_dpbusd_epi32(
            a2, _mm512_loadu_si512(reinterpret_cast<const void*>(bp + 128)),
            av);
        a3 = _mm512_dpbusd_epi32(
            a3, _mm512_loadu_si512(reinterpret_cast<const void*>(bp + 192)),
            av);
      }
      for (std::size_t u = 0; u < 4; ++u) {
        const __m512i part = u == 0 ? a0 : u == 1 ? a1 : u == 2 ? a2 : a3;
        void* out = arow + n0 + 16 * u;
        _mm512_storeu_si512(
            out, _mm512_add_epi32(_mm512_loadu_si512(out),
                                  _mm512_sub_epi32(part, corr16)));
      }
    }
    for (; n0 + 16 <= width; n0 += 16) {
      __m512i a0 = _mm512_setzero_si512();
      for (std::size_t q = 0; q < quads; ++q)
        a0 = _mm512_dpbusd_epi32(
            a0,
            _mm512_loadu_si512(
                reinterpret_cast<const void*>(pan + q * 4 * width + 4 * n0)),
            _mm512_set1_epi32(dw[q]));
      void* out = arow + n0;
      _mm512_storeu_si512(
          out, _mm512_add_epi32(_mm512_loadu_si512(out),
                                _mm512_sub_epi32(a0, corr16)));
    }
    if (n0 < width) {
      // Ragged tail: signed math directly on the biased bytes.
      for (std::size_t p = 0; p < quads * 4; ++p) {
        const std::int32_t av = static_cast<std::int8_t>(
            static_cast<std::uint32_t>(dw[p / 4]) >> (8 * (p % 4)));
        if (av == 0) continue;
        const std::uint8_t* bp = pan + (p / 4) * 4 * width + (p % 4);
        for (std::size_t n = n0; n < width; ++n)
          arow[n] += av * (std::int32_t(bp[4 * n]) - 128);
      }
    }
  }
}
#endif  // __AVX512VNNI__

void check_parts(const VnmConfig& cfg, std::size_t rows, std::size_t cols,
                 std::size_t values_size, std::size_t m_indices_size,
                 std::size_t column_loc_size) {
  VENOM_CHECK_MSG(cfg.v >= 1 && rows % cfg.v == 0,
                  "quantized V:N:M parts: rows not divisible by V");
  VENOM_CHECK_MSG(cfg.m >= 2 && cols % cfg.m == 0,
                  "quantized V:N:M parts: cols not divisible by M");
  VENOM_CHECK_MSG(cfg.n >= 1 && cfg.n <= cfg.selected_cols(),
                  "quantized V:N:M parts: N out of range");
  const std::size_t groups = cols / cfg.m;
  VENOM_CHECK_MSG(values_size == rows * groups * cfg.n,
                  "quantized V:N:M parts: values size mismatch");
  VENOM_CHECK_MSG(m_indices_size == values_size,
                  "quantized V:N:M parts: m_indices size mismatch");
  VENOM_CHECK_MSG(
      column_loc_size == (rows / cfg.v) * groups * cfg.selected_cols(),
      "quantized V:N:M parts: column_loc size mismatch");
}

void check_indices(const VnmConfig& cfg,
                   const std::vector<std::uint8_t>& m_indices,
                   const std::vector<std::uint8_t>& column_loc) {
  for (std::uint8_t mi : m_indices)
    VENOM_CHECK_MSG(mi < cfg.selected_cols(),
                    "quantized V:N:M parts: m_index out of range");
  for (std::uint8_t cl : column_loc)
    VENOM_CHECK_MSG(cl < cfg.m,
                    "quantized V:N:M parts: column_loc out of range");
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
  check_parts(cfg, rows, cols, values.size(), m_indices.size(),
              column_loc.size());
  check_indices(cfg, m_indices, column_loc);
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
  check_parts(cfg, rows, cols, values.size(), m_indices.size(),
              column_loc.size());
  check_indices(cfg, m_indices, column_loc);
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
#if defined(__AVX512VNNI__)
          pack_a_codes_i8_vnni(a, br, s);
#endif
          for (std::size_t g0 = 0; g0 < groups; g0 += groups_per_panel) {
            const std::size_t g1 = std::min(groups, g0 + groups_per_panel);
#if defined(__AVX512VNNI__)
            gather_b_panel_i8_vnni(a, bq.values, br, g0, g1, c0, width,
                                   fixed, s.panel_u8);
            accumulate_panel_i8_vnni(a, g0, g1, width, s, s.acc_i32.data());
#else
            gather_b_panel_i8(a, bq.values, br, g0, g1, c0, width, fixed,
                              s.panel_i16);
            accumulate_panel_i8(a, br, g0, g1, width, s, s.acc_i32.data());
#endif
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
