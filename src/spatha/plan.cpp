#include "spatha/plan.hpp"

#include "common/fnv.hpp"

namespace venom::spatha {

std::uint64_t weight_fingerprint(const VnmMatrix& m) {
  Fnv1a f;
  f.mix(m.rows());
  f.mix(m.cols());
  f.mix(m.config().v);
  f.mix(m.config().n);
  f.mix(m.config().m);
  for (const half_t v : m.values()) f.mix(v.bits());
  for (const std::uint8_t i : m.m_indices()) f.mix(i);
  for (const std::uint8_t c : m.column_locs()) f.mix(c);
  return f.h;
}

}  // namespace venom::spatha
