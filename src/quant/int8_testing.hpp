// Test seams of the int8 V:N:M SpMM (quant/quantized_vnm.hpp): a guard
// that forces the vector stage-2 body, so the parity suites run every
// body this host has, and the reason the AMX body does not run. Only the
// tests use it.
#pragma once

#include <string>

namespace venom::quant::detail {

/// Empty when spmm_vnm_i8 runs its AMX body in this process; otherwise
/// why not (not compiled in, or which run-time gate failed).
std::string amx_unavailable_reason();

/// While one is alive, spmm_vnm_i8 and spmm_vnm_i8_fused run the vector
/// body (AVX-512 VNNI, AVX2, or the portable loop) even where AMX runs.
/// Process-wide: hold it only where no other int8 SpMM runs concurrently
/// and expects AMX.
class ForceVectorBody {
 public:
  ForceVectorBody();
  ~ForceVectorBody();
  ForceVectorBody(const ForceVectorBody&) = delete;
  ForceVectorBody& operator=(const ForceVectorBody&) = delete;
};

}  // namespace venom::quant::detail
