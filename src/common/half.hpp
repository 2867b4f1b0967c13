// Software IEEE 754 binary16 ("half") arithmetic.
//
// The paper's kernels run in fp16 on Sparse Tensor Cores. This type gives
// bit-accurate storage semantics (round-to-nearest-even conversion to and
// from float) so that compression formats, kernels, and the SPTC simulator
// all see exactly the values a GPU would. Arithmetic is performed in float
// and rounded back, matching the behaviour of fp16 multiply-accumulate with
// fp32 accumulators used by mma.sp (accumulation helpers below keep fp32
// accumulators explicit, as the hardware does).
#pragma once

#include <cstdint>
#include <iosfwd>

namespace venom {

/// 16-bit IEEE 754 binary16 floating point value.
///
/// Storage-only semantics: all arithmetic converts to float, computes, and
/// rounds back with round-to-nearest-even. Supports subnormals, infinities,
/// and NaN propagation.
class half_t {
 public:
  half_t() = default;

  /// Converts from float with round-to-nearest-even.
  explicit half_t(float f) : bits_(float_to_bits(f)) {}

  /// Reinterprets a raw bit pattern as a half.
  static half_t from_bits(std::uint16_t bits) {
    half_t h;
    h.bits_ = bits;
    return h;
  }

  /// Raw bit pattern.
  std::uint16_t bits() const { return bits_; }

  /// Converts to float (exact; every half is representable as float).
  float to_float() const { return bits_to_float(bits_); }
  explicit operator float() const { return to_float(); }

  bool is_zero() const { return (bits_ & 0x7fffu) == 0; }
  bool is_nan() const {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }
  bool is_inf() const { return (bits_ & 0x7fffu) == 0x7c00u; }

  friend half_t operator+(half_t a, half_t b) {
    return half_t(a.to_float() + b.to_float());
  }
  friend half_t operator-(half_t a, half_t b) {
    return half_t(a.to_float() - b.to_float());
  }
  friend half_t operator*(half_t a, half_t b) {
    return half_t(a.to_float() * b.to_float());
  }
  friend half_t operator/(half_t a, half_t b) {
    return half_t(a.to_float() / b.to_float());
  }
  half_t operator-() const { return from_bits(bits_ ^ 0x8000u); }

  half_t& operator+=(half_t o) { return *this = *this + o; }
  half_t& operator-=(half_t o) { return *this = *this - o; }
  half_t& operator*=(half_t o) { return *this = *this * o; }

  // Comparisons follow IEEE semantics via float (NaN compares false).
  friend bool operator==(half_t a, half_t b) {
    return a.to_float() == b.to_float();
  }
  friend bool operator!=(half_t a, half_t b) { return !(a == b); }
  friend bool operator<(half_t a, half_t b) {
    return a.to_float() < b.to_float();
  }
  friend bool operator<=(half_t a, half_t b) {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>(half_t a, half_t b) {
    return a.to_float() > b.to_float();
  }
  friend bool operator>=(half_t a, half_t b) {
    return a.to_float() >= b.to_float();
  }

  /// Round-to-nearest-even float -> binary16 conversion.
  static std::uint16_t float_to_bits(float f);
  /// Exact binary16 -> float conversion.
  static float bits_to_float(std::uint16_t h);

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half_t) == 2, "half_t must be 2 bytes");

std::ostream& operator<<(std::ostream& os, half_t h);

/// Bulk binary16 -> float conversion: dst[i] = src[i].to_float().
///
/// The SpMM pipeline converts gathered B panels to packed float exactly
/// once per gather and feeds the float panel to the micro-kernel, instead
/// of paying an out-of-line conversion per fused multiply-add. Uses the
/// F16C VCVTPH2PS path when compiled with -mf16c / -march=native (exact:
/// every half is representable as float); otherwise an auto-vectorizable
/// branch-free integer loop. `src` and `dst` must not overlap.
void half_to_float_n(const half_t* src, float* dst, std::size_t n);

/// Bulk float -> binary16 conversion with round-to-nearest-even:
/// dst[i] = half_t(src[i]), bit for bit on every input, NaN included (a
/// NaN becomes the quiet NaN sign | 0x7e00, as in float_to_bits), on the
/// F16C path and the scalar loop alike. `src`/`dst` must not overlap.
void float_to_half_n(const float* src, half_t* dst, std::size_t n);

/// Fused helper mirroring SPTC accumulation: acc (fp32) += a*b in fp32,
/// with a and b fp16 inputs. Used by the mma simulator and CPU kernels so
/// results match tensor-core numerics (per-product fp16, fp32 accumulate).
inline void fma_fp16_fp32(float& acc, half_t a, half_t b) {
  acc += a.to_float() * b.to_float();
}

}  // namespace venom
