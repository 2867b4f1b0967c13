// The weight fingerprint: the identity under which ops::PlanCache keeps
// a weight's prepared operands (its packed form and quantized images).
// A holder of an immutable compressed weight (transformer::Linear) hashes
// it once and passes the value with every call
// (ops::MatmulArgs::vnm_fingerprint), so dispatch never re-hashes O(nnz)
// structures per call.
#pragma once

#include <cstdint>

#include "format/vnm.hpp"

namespace venom::spatha {

/// FNV-1a hash over the compressed V:N:M structures (values, m-indices,
/// column-locs) plus shape and format.
std::uint64_t weight_fingerprint(const VnmMatrix& m);

}  // namespace venom::spatha
