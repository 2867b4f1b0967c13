// Value precision of a left operand: the one datapath key.
//
// A leaf header (no venom includes): the operator layer keys dispatch on
// it, and the spatha kernel-config layer keys its tuning-cache tag and
// tile heuristic on it (spatha/config.hpp) without depending on the
// operator layer.
#pragma once

#include <cstdint>
#include <string_view>

namespace venom::ops {

/// Storage precision of the left operand's values. kF16 is the default
/// fp16 datapath; the reduced-precision dtypes route to the quantized
/// backends (vnm-int8 / vnm-fp8), each of which accepts its own dtype
/// alone, so a weight's dtype is the one datapath switch.
enum class Dtype : std::uint8_t { kF16, kI8, kF8E5M2, kF8E4M3 };

const char* to_string(Dtype d);

/// Inverse of to_string(Dtype), also accepting the short aliases the CLI
/// uses ("i8" / "e5m2" / "e4m3"). Returns false on an unknown name.
/// Shared by the engine-plan loader and the venomtool dtype arguments so
/// every artefact and flag spells dtypes the same way.
bool dtype_from_string(std::string_view name, Dtype& out);

}  // namespace venom::ops
