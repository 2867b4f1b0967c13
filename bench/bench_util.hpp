// Shared table-printing and timing helpers for the bench executables.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/timing.hpp"

namespace venom::bench {

/// The shared timing loop (common/timing.hpp) with the bench default of
/// one warmup call.
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_sample_s = 0.2) {
  return venom::seconds_per_call(static_cast<Fn&&>(fn), 1, min_sample_s);
}

/// Prints a banner naming the paper artefact being regenerated.
inline void banner(const std::string& artefact, const std::string& detail) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", artefact.c_str(), detail.c_str());
  std::printf("================================================================\n");
}

/// Prints a header row of right-aligned 10-char columns.
inline void header(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%12s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%12s", "------");
  std::printf("\n");
}

inline void cell(const std::string& s) { std::printf("%12s", s.c_str()); }
inline void cell(double v, const char* fmt = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  std::printf("%12s", buf);
}
inline void endrow() { std::printf("\n"); }

}  // namespace venom::bench
