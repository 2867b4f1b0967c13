// Fused epilogues for the Spatha SpMM (stage 3 extensions).
//
// Production GEMM libraries fuse the per-output-element tail work — bias
// add, activation — into the kernel's write-back stage instead of
// launching separate element-wise kernels. spmm_vnm_fused applies the
// epilogue inside the same tile pass that stage 3 would use, saving one
// full read+write of C per fused op; the transformer Linear layer routes
// through it. apply_epilogue is the one epilogue loop: the fused kernel's
// stage 3 and the ops layer's generic fused path both run it per row.
#pragma once

#include <cstddef>
#include <span>

#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/spmm.hpp"
#include "tensor/matrix.hpp"

namespace venom::spatha {

/// Activation applied in the epilogue.
enum class Activation : std::uint8_t { kNone, kRelu, kGelu };

/// Epilogue description: optional per-row bias, then activation, then
/// output conversion to fp16 (the usual inference datapath).
struct Epilogue {
  std::span<const float> bias = {};  ///< empty = no bias; else size = rows
  Activation activation = Activation::kNone;
};

/// The epilogue's scalar activation (float domain): the per-element
/// definition apply_epilogue reproduces bit for bit.
float apply_activation(Activation act, float v);

/// The epilogue over output row r: row[n] = apply_activation(act,
/// row[n] + bias) for n < width, with bias = epilogue.bias[r], or +0.0f
/// when there is none (so a -0 accumulator leaves as +0 either way).
/// Vectorized; gelu runs through fmath::gelu_n.
void apply_epilogue(const Epilogue& epilogue, std::size_t r, float* row,
                    std::size_t width);

/// C_half = act(A_vnm * B + bias), computed tile-by-tile with the
/// epilogue fused into the write-back stage, over an operand packed once
/// per weight. `scratch` as in spmm_vnm: a pool owned by the caller keeps
/// the panels warm across calls.
HalfMatrix spmm_vnm_fused(const PackedVnm& a, const HalfMatrix& b,
                          const Epilogue& epilogue, const SpmmConfig& cfg,
                          ThreadPool* pool = nullptr,
                          SpmmScratchPool* scratch = nullptr);

/// Same, packing `a` once for this call.
HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, const SpmmConfig& cfg,
                          ThreadPool* pool = nullptr,
                          SpmmScratchPool* scratch = nullptr);

/// Convenience overload with the heuristic kernel configuration.
HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue,
                          ThreadPool* pool = nullptr);

}  // namespace venom::spatha
