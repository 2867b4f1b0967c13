// Ring-buffer KV cache for incremental (autoregressive) decode.
//
// One KvCache holds one sequence's cached key/value projections for
// every layer of an encoder stack, already in the attention core's
// operand layout (AttentionCore in transformer/ops.hpp), so a decode
// step reads its window in place and converts no resident key. Per
// layer, two float rings of `capacity` slots:
//   K    [head][d][slot]   row r = h * head_dim + d is one key feature,
//                          contiguous along the slot axis (the core's
//                          score strips run over keys);
//   V^T  [head][slot][d]   one key's values of one head, contiguous
//                          along d (the core's context strips run
//                          over d).
// Logical position p lives in slot p % capacity. Appending converts a
// token's fp16 K/V columns to float exactly once and is allocation-free
// (the rings are sized once, at construction); once the sequence
// outgrows the capacity the ring overwrites the oldest position:
// capacity IS the attention window. The cached forward in attention.cpp
// enforces that pairing (window == capacity), which is what makes the
// incremental pass bit-identical to re-running the full windowed causal
// forward at every step — including after wraparound.
//
// Memory: bytes() = 2 (K and V) * layers * hidden * capacity * 4 bytes
// per float — with hidden = heads * head_dim, the README's
// 2*layers*heads*head_dim*window*4B. The weights contribute nothing:
// the V:N:M sparse projections are shared, read-only, across every
// session (the static-weight / dynamic-activation split the paper's
// kernels exploit).
//
// Layers append as the forward walks the stack, so per-layer lengths
// diverge transiently inside one Encoder::forward_cached call and agree
// again when it returns; synchronized() checks that resting invariant.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"
#include "transformer/ops.hpp"

namespace venom::transformer {

/// Per-sequence, per-layer ring-buffered K/V state for cached decode.
class KvCache {
 public:
  KvCache() = default;
  /// Allocates K and V^T rings of `capacity` slots for each of `layers`
  /// layers, laid out for `heads` heads of hidden / heads rows each.
  /// Throws venom::Error on a zero dimension or when heads does not
  /// divide hidden.
  KvCache(std::size_t layers, std::size_t hidden, std::size_t capacity,
          std::size_t heads = 1);

  std::size_t layers() const { return layers_.size(); }
  std::size_t hidden() const { return hidden_; }
  std::size_t heads() const { return heads_; }
  std::size_t capacity() const { return capacity_; }

  /// Token positions appended so far (layer 0's count — all layers agree
  /// between forward calls; see synchronized()).
  std::size_t length() const {
    return layers_.empty() ? 0 : layers_.front().length;
  }
  std::size_t layer_length(std::size_t l) const;
  /// Oldest logical position still resident in the ring.
  std::size_t window_begin() const {
    const std::size_t len = length();
    return len <= capacity_ ? 0 : len - capacity_;
  }
  /// True when every layer has appended the same number of positions —
  /// the resting state between Encoder::forward_cached calls.
  bool synchronized() const;

  /// Forgets every cached position (the rings stay allocated), so the
  /// cache can be reused for a fresh sequence.
  void reset();

  /// Appends columns [src, src + count) of the (hidden x T) K and V
  /// projection panels as layer l's next `count` positions, converting
  /// each element to float once. Allocation-free; position p overwrites
  /// the slot of position p - capacity once the ring is full (so of a
  /// chunk longer than the ring only its last `capacity` columns stay).
  /// Returns the first logical position written.
  std::size_t append(std::size_t l, const HalfMatrix& k, const HalfMatrix& v,
                     std::size_t src, std::size_t count = 1);

  /// Layer l's positions [lo, lo + w) as the attention core's in-place
  /// key spans, oldest first: at most two contiguous slot ranges (the
  /// second has count 0 unless the window crosses the ring's seam). The
  /// positions must be resident (>= window_begin, < layer length).
  std::array<AttentionCore::KeySpan, 2> window(std::size_t l, std::size_t lo,
                                               std::size_t w) const;

  /// Gathers head rows [row0, row0 + dh) of layer l's cached K (resp. V)
  /// for the logical positions [lo, lo + w) into out, resized to
  /// (dh x w), oldest to newest, rounded back to fp16 (exact: the ring
  /// holds converted fp16 values). The positions must be resident, as
  /// for window().
  void gather_k(std::size_t l, std::size_t row0, std::size_t dh,
                std::size_t lo, std::size_t w, HalfMatrix& out) const;
  void gather_v(std::size_t l, std::size_t row0, std::size_t dh,
                std::size_t lo, std::size_t w, HalfMatrix& out) const;

  /// Resident K/V bytes: 2 * layers * hidden * capacity * sizeof(float).
  std::size_t bytes() const {
    return 2 * layers_.size() * hidden_ * capacity_ * sizeof(float);
  }

 private:
  struct LayerKv {
    std::vector<float> k;   ///< [head][d][slot]: hidden x capacity
    std::vector<float> vt;  ///< [head][slot][d]: heads x capacity x dh
    std::size_t length = 0;  ///< positions appended to this layer
  };

  void gather(std::size_t l, bool values, std::size_t row0, std::size_t dh,
              std::size_t lo, std::size_t w, HalfMatrix& out) const;

  std::size_t hidden_ = 0;
  std::size_t heads_ = 0;
  std::size_t head_dim_ = 0;
  std::size_t capacity_ = 0;
  std::vector<LayerKv> layers_;
};

}  // namespace venom::transformer
