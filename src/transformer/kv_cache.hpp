// Ring-buffer KV cache for incremental (autoregressive) decode.
//
// One KvCache holds one sequence's cached key/value projections for
// every layer of an encoder stack: per layer, two fp16 panels of shape
// (hidden x capacity) written as rings — logical position p lives in
// slot p % capacity. Appending a token's K/V columns is allocation-free
// (the panels are sized once, at construction), and once the sequence
// outgrows the capacity the ring overwrites the oldest position:
// capacity IS the attention window. The cached forward in attention.cpp
// enforces that pairing (window == capacity), which is what makes the
// incremental pass bit-identical to re-running the full windowed causal
// forward at every step — including after wraparound.
//
// Memory: bytes() = 2 (K and V) * layers * hidden * capacity * 2 bytes
// per fp16 — with hidden = heads * head_dim, the README's
// 2*layers*heads*head_dim*window*2B. The weights contribute nothing:
// the V:N:M sparse projections are shared, read-only, across every
// session (the static-weight / dynamic-activation split the paper's
// kernels exploit).
//
// Layers append as the forward walks the stack, so per-layer lengths
// diverge transiently inside one Encoder::forward_cached call and agree
// again when it returns; synchronized() checks that resting invariant.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace venom::transformer {

/// Per-sequence, per-layer ring-buffered K/V state for cached decode.
class KvCache {
 public:
  KvCache() = default;
  /// Allocates (hidden x capacity) K and V rings for each of `layers`
  /// layers. Throws venom::Error on a zero dimension.
  KvCache(std::size_t layers, std::size_t hidden, std::size_t capacity);

  std::size_t layers() const { return layers_.size(); }
  std::size_t hidden() const { return hidden_; }
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

  /// Forgets every cached position (the panels stay allocated), so the
  /// cache can be reused for a fresh sequence.
  void reset();

  /// Appends column `src` of the (hidden x T) K and V projection panels
  /// as layer l's next position. Allocation-free; overwrites the slot of
  /// position p - capacity once the ring is full. Returns the logical
  /// position just written.
  std::size_t append(std::size_t l, const HalfMatrix& k, const HalfMatrix& v,
                     std::size_t src);

  /// Gathers head rows [row0, row0 + dh) of layer l's cached K (resp. V)
  /// for the logical positions [lo, lo + w) into out, resized to
  /// (dh x w), oldest to newest. `out` retains its capacity across
  /// calls, so a reused scratch matrix makes the gather allocation-free
  /// at steady state. The positions must be resident (>= window_begin,
  /// < layer length).
  void gather_k(std::size_t l, std::size_t row0, std::size_t dh,
                std::size_t lo, std::size_t w, HalfMatrix& out) const;
  void gather_v(std::size_t l, std::size_t row0, std::size_t dh,
                std::size_t lo, std::size_t w, HalfMatrix& out) const;

  /// Calls fn(k_ring, v_ring, slot, count, offset) for the at most two
  /// contiguous slot spans that hold layer l's positions [lo, lo + w),
  /// oldest first: ring columns [slot, slot + count) are positions
  /// lo + offset onward. The rings are (hidden x capacity). The cached
  /// attention reads its window straight from these spans. The positions
  /// must be resident, as for gather_k.
  template <typename Fn>
  void for_each_span(std::size_t l, std::size_t lo, std::size_t w,
                     Fn&& fn) const {
    const LayerKv& kv = resident(l, lo, w);
    const std::size_t s0 = lo % capacity_;
    const std::size_t first = std::min(w, capacity_ - s0);
    fn(kv.k, kv.v, s0, first, std::size_t{0});
    if (first < w) fn(kv.k, kv.v, std::size_t{0}, w - first, first);
  }

  /// Resident K/V bytes: 2 * layers * hidden * capacity * sizeof(fp16).
  std::size_t bytes() const {
    return 2 * layers_.size() * hidden_ * capacity_ * sizeof(half_t);
  }

 private:
  struct LayerKv {
    HalfMatrix k, v;           ///< (hidden x capacity) rings
    std::size_t length = 0;    ///< positions appended to this layer
  };

  /// Layer l, after checking that positions [lo, lo + w) are resident.
  const LayerKv& resident(std::size_t l, std::size_t lo, std::size_t w) const;
  void gather(std::size_t l, bool values, std::size_t row0, std::size_t dh,
              std::size_t lo, std::size_t w, HalfMatrix& out) const;

  std::size_t hidden_ = 0;
  std::size_t capacity_ = 0;
  std::vector<LayerKv> layers_;
};

}  // namespace venom::transformer
