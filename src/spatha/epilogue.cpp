#include "spatha/epilogue.hpp"

#include "common/fmath.hpp"
#include "common/lanes.hpp"

namespace venom::spatha {

float apply_activation(Activation act, float v) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Activation::kGelu:
      return fmath::gelu(v);
  }
  return v;
}

void apply_epilogue(const Epilogue& epilogue, std::size_t r, float* row,
                    std::size_t width) {
  using L = lanes::Native;
  using lanes::Lane1;
  const float bias = epilogue.bias.empty() ? 0.0f : epilogue.bias[r];
  const std::size_t body = width - width % L::kWidth;
  const L::F bv = L::set(bias);
  // relu is max(v + bias, 0) under the lanes' MAXPS rule: v + bias
  // unless it compares greater than 0, so NaN and -0 give +0, exactly
  // apply_activation's `v > 0 ? v : 0`.
  if (epilogue.activation == Activation::kRelu) {
    const L::F zero = L::set(0.0f);
    for (std::size_t i = 0; i < body; i += L::kWidth)
      L::store(row + i, L::max(L::add(L::load(row + i), bv), zero));
    for (std::size_t i = body; i < width; ++i)
      row[i] = Lane1::max(row[i] + bias, 0.0f);
    return;
  }
  for (std::size_t i = 0; i < body; i += L::kWidth)
    L::store(row + i, L::add(L::load(row + i), bv));
  for (std::size_t i = body; i < width; ++i) row[i] += bias;
  if (epilogue.activation == Activation::kGelu) fmath::gelu_n(row, row, width);
}

HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, const SpmmConfig& cfg,
                          ThreadPool* pool, SpmmScratchPool* scratch) {
  return spmm_vnm_fused(PackedVnm(a), b, epilogue, cfg, pool, scratch);
}

HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, ThreadPool* pool) {
  return spmm_vnm_fused(a, b, epilogue,
                        select_config(a.config(), a.rows(), a.cols(),
                                      b.cols()),
                        pool);
}

}  // namespace venom::spatha
