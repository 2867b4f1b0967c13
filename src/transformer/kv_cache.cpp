#include "transformer/kv_cache.hpp"

#include <cstring>

#include "common/error.hpp"

namespace venom::transformer {

KvCache::KvCache(std::size_t layers, std::size_t hidden, std::size_t capacity)
    : hidden_(hidden), capacity_(capacity) {
  VENOM_CHECK_MSG(layers >= 1 && hidden >= 1 && capacity >= 1,
                  "KvCache needs positive layers/hidden/capacity, got "
                      << layers << '/' << hidden << '/' << capacity);
  layers_.resize(layers);
  for (LayerKv& l : layers_) {
    l.k = HalfMatrix(hidden, capacity);
    l.v = HalfMatrix(hidden, capacity);
  }
}

std::size_t KvCache::layer_length(std::size_t l) const {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  return layers_[l].length;
}

bool KvCache::synchronized() const {
  for (const LayerKv& l : layers_)
    if (l.length != layers_.front().length) return false;
  return true;
}

void KvCache::reset() {
  for (LayerKv& l : layers_) l.length = 0;
}

std::size_t KvCache::append(std::size_t l, const HalfMatrix& k,
                            const HalfMatrix& v, std::size_t src) {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  VENOM_CHECK(k.rows() == hidden_ && v.rows() == hidden_ && src < k.cols() &&
              src < v.cols());
  LayerKv& kv = layers_[l];
  const std::size_t p = kv.length++;
  const std::size_t slot = p % capacity_;
  for (std::size_t r = 0; r < hidden_; ++r) {
    kv.k(r, slot) = k(r, src);
    kv.v(r, slot) = v(r, src);
  }
  return p;
}

const KvCache::LayerKv& KvCache::resident(std::size_t l, std::size_t lo,
                                          std::size_t w) const {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  const std::size_t len = layers_[l].length;
  VENOM_CHECK_MSG(w >= 1 && w <= capacity_ && lo + w <= len &&
                      lo + capacity_ >= len,
                  "gather [" << lo << ", " << lo + w
                             << ") not resident (length " << len
                             << ", capacity " << capacity_ << ")");
  return layers_[l];
}

void KvCache::gather(std::size_t l, bool values, std::size_t row0,
                     std::size_t dh, std::size_t lo, std::size_t w,
                     HalfMatrix& out) const {
  VENOM_CHECK(row0 + dh <= hidden_);
  (void)resident(l, lo, w);  // validate before sizing `out`
  out.resize(dh, w);
  // Rows are contiguous along the slot axis, so each head row is at most
  // two memcpy spans: [lo % cap, cap) then the wrapped prefix.
  for_each_span(l, lo, w,
                [&](const HalfMatrix& k, const HalfMatrix& v, std::size_t slot,
                    std::size_t count, std::size_t offset) {
                  const HalfMatrix& ring = values ? v : k;
                  for (std::size_t d = 0; d < dh; ++d)
                    std::memcpy(&out(d, offset), &ring(row0 + d, slot),
                                count * sizeof(half_t));
                });
}

void KvCache::gather_k(std::size_t l, std::size_t row0, std::size_t dh,
                       std::size_t lo, std::size_t w, HalfMatrix& out) const {
  gather(l, false, row0, dh, lo, w, out);
}

void KvCache::gather_v(std::size_t l, std::size_t row0, std::size_t dh,
                       std::size_t lo, std::size_t w, HalfMatrix& out) const {
  gather(l, true, row0, dh, lo, w, out);
}

}  // namespace venom::transformer
