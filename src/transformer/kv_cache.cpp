#include "transformer/kv_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace venom::transformer {

KvCache::KvCache(std::size_t layers, std::size_t hidden, std::size_t capacity,
                 std::size_t heads)
    : hidden_(hidden), heads_(heads), capacity_(capacity) {
  VENOM_CHECK_MSG(layers >= 1 && hidden >= 1 && capacity >= 1 && heads >= 1,
                  "KvCache needs positive layers/hidden/capacity/heads, got "
                      << layers << '/' << hidden << '/' << capacity << '/'
                      << heads);
  VENOM_CHECK_MSG(hidden % heads == 0, "KvCache hidden " << hidden
                                           << " not divisible by heads "
                                           << heads);
  head_dim_ = hidden / heads;
  layers_.resize(layers);
  for (LayerKv& l : layers_) {
    l.k.assign(hidden * capacity, 0.0f);
    l.vt.assign(hidden * capacity, 0.0f);
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
                            const HalfMatrix& v, std::size_t src,
                            std::size_t count) {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  VENOM_CHECK(k.rows() == hidden_ && v.rows() == hidden_ && count >= 1 &&
              src + count <= k.cols() && src + count <= v.cols());
  LayerKv& kv = layers_[l];
  const std::size_t first = kv.length;
  kv.length += count;
  // Each token's column is converted by column_to_float, with the
  // conversion the core applies to the keys it loads itself: a head's
  // values land as one contiguous V^T row, its keys one slot per K row.
  constexpr std::size_t kBlock = 64;
  float vals[kBlock];
  for (std::size_t t = count > capacity_ ? count - capacity_ : 0; t < count;
       ++t) {
    const std::size_t slot = (first + t) % capacity_;
    for (std::size_t h = 0; h < heads_; ++h)
      column_to_float(v, src + t, h * head_dim_, head_dim_,
                      &kv.vt[(h * capacity_ + slot) * head_dim_]);
    for (std::size_t r0 = 0; r0 < hidden_; r0 += kBlock) {
      const std::size_t len = std::min(kBlock, hidden_ - r0);
      column_to_float(k, src + t, r0, len, vals);
      for (std::size_t i = 0; i < len; ++i)
        kv.k[(r0 + i) * capacity_ + slot] = vals[i];
    }
  }
  return first;
}

std::array<AttentionCore::KeySpan, 2> KvCache::window(std::size_t l,
                                                      std::size_t lo,
                                                      std::size_t w) const {
  const std::size_t len = layer_length(l);
  VENOM_CHECK_MSG(w >= 1 && w <= capacity_ && lo + w <= len &&
                      lo + capacity_ >= len,
                  "window [" << lo << ", " << lo + w
                             << ") not resident (length " << len
                             << ", capacity " << capacity_ << ")");
  const LayerKv& kv = layers_[l];
  const auto span = [&](std::size_t slot, std::size_t n) {
    return AttentionCore::KeySpan{kv.k.data() + slot,
                                  kv.vt.data() + slot * head_dim_, capacity_,
                                  n};
  };
  const std::size_t s0 = lo % capacity_;
  const std::size_t first = std::min(w, capacity_ - s0);
  return {span(s0, first), span(0, w - first)};
}

void KvCache::gather(std::size_t l, bool values, std::size_t row0,
                     std::size_t dh, std::size_t lo, std::size_t w,
                     HalfMatrix& out) const {
  VENOM_CHECK(row0 + dh <= hidden_);
  const auto spans = window(l, lo, w);  // validate before sizing `out`
  out.resize(dh, w);
  std::size_t offset = 0;
  for (const AttentionCore::KeySpan& s : spans) {
    for (std::size_t d = 0; d < dh; ++d) {
      const std::size_t r = row0 + d;
      const std::size_t h = r / head_dim_, hd = r % head_dim_;
      for (std::size_t j = 0; j < s.count; ++j)
        out(d, offset + j) =
            half_t(values ? s.vt[(h * capacity_ + j) * head_dim_ + hd]
                          : s.k[r * capacity_ + j]);
    }
    offset += s.count;
  }
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
