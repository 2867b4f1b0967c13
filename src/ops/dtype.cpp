#include "ops/dtype.hpp"

namespace venom::ops {

const char* to_string(Dtype d) {
  switch (d) {
    case Dtype::kF16: return "f16";
    case Dtype::kI8: return "int8";
    case Dtype::kF8E5M2: return "f8-e5m2";
    case Dtype::kF8E4M3: return "f8-e4m3";
  }
  return "?";
}

bool dtype_from_string(std::string_view name, Dtype& out) {
  if (name == "f16") out = Dtype::kF16;
  else if (name == "int8" || name == "i8") out = Dtype::kI8;
  else if (name == "f8-e5m2" || name == "e5m2") out = Dtype::kF8E5M2;
  else if (name == "f8-e4m3" || name == "e4m3") out = Dtype::kF8E4M3;
  else return false;
  return true;
}

}  // namespace venom::ops
