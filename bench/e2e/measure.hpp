// Clocks, sample sets and the result record of the end-to-end benchmark.
//
// Everything here is the benchmark's own yardstick. Nothing under src/
// takes a time, computes a percentile or formats a result for it, so a
// change to the library cannot move the ruler it is measured with.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

namespace venom::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// A set of measurements and their order statistics.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }

  /// Quantile q in [0, 1], interpolated linearly between order
  /// statistics; 0 for an empty set.
  double quantile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double pos = q * double(values_.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, values_.size() - 1);
    return values_[lo] + (pos - double(lo)) * (values_[hi] - values_[lo]);
  }
  double median() { return quantile(0.5); }
  double sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Median time of a fixed single-threaded arithmetic loop, n timings.
/// The loop is this file's own code, so only the host moves it: on the
/// shared machines this benchmark runs on, everything (set-up included)
/// slows by ~1.5x for minutes at a time, and the probe moves with it.
inline double probe_ms(std::size_t n) {
  Samples ms;
  volatile double seed = 1.0;  // volatile: the loop cannot be precomputed
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    double a = seed;
    for (int k = 0; k < 300000; ++k) a = a * 1.0000001 + std::sqrt(a) * 1e-9;
    if (a < 0.0) seed = a;  // never true; keeps the loop's result live
    ms.add(ms_since(t0));
  }
  return ms.median();
}

/// Peak resident set size of this process so far.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Minimal JSON string quoting for names and notes.
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Attempted / succeeded / failed counts of one workload phase. A shed
/// request counts as failed.
struct Phase {
  std::string name;
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
};

/// What one run measured: end-to-end and per-layer metrics, phase
/// counts, and whether every output checked out.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;  ///< at the reference host speed, after normalize()
    std::string unit;
    std::size_t samples;  ///< measurements behind the value
    double raw = 0.0;     ///< as measured on this host
  };

  void end_to_end(std::string name, double value, std::string unit,
                  std::size_t samples) {
    e2e_.push_back({std::move(name), value, std::move(unit), samples, value});
  }
  void layer(std::string name, double value, std::string unit,
             std::size_t samples) {
    layer_.push_back({std::move(name), value, std::move(unit), samples, value});
  }
  /// Restates every time at the reference host speed: times scale by
  /// `factor` (reference probe / this run's probe), rates by 1 / factor;
  /// counts and fractions stay. `raw` keeps the measured value.
  void normalize(double factor) {
    for (auto* list : {&e2e_, &layer_})
      for (Metric& m : *list) {
        if (m.unit == "ms" || m.unit == "us" || m.unit == "s")
          m.value = m.raw * factor;
        else if (m.unit.find("/s") != std::string::npos)
          m.value = m.raw / factor;
      }
  }
  Phase& phase(const std::string& name) {
    phases_.push_back(Phase{name});
    return phases_.back();
  }
  /// A human-readable line printed with the result.
  void note(std::string line) { notes_.push_back(std::move(line)); }
  /// Records a correctness failure; the run exits nonzero.
  void mismatch(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    notes_.push_back("MISMATCH: " + what);
  }
  bool correct() const { return correct_; }

  void print() const {
    for (const Phase& p : phases_)
      std::printf("phase %-12s attempted %zu succeeded %zu failed %zu\n",
                  p.name.c_str(), p.attempted, p.succeeded, p.failed);
    for (const auto* list : {&e2e_, &layer_})
      for (const Metric& m : *list)
        std::printf("%-30s %14.6g %-8s n=%-6zu (raw %.6g)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples, m.raw);
    for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
    std::printf("correct: %s\n", correct_ ? "yes" : "NO");
  }

  bool write_json(const std::string& path, const std::string& workload,
                  unsigned long long seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const Phase& p : phases_) {
      attempted += p.attempted;
      failed += p.failed;
    }
    std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"correct\": %s,\n",
                 json_quote(workload).c_str(), seed,
                 correct_ ? "true" : "false");
    std::fprintf(f, " \"attempted\": %zu, \"failed\": %zu,\n \"phases\": [",
                 attempted, failed);
    for (std::size_t i = 0; i < phases_.size(); ++i)
      std::fprintf(f,
                   "%s{\"name\": %s, \"attempted\": %zu, \"succeeded\": %zu, "
                   "\"failed\": %zu}",
                   i == 0 ? "" : ", ", json_quote(phases_[i].name).c_str(),
                   phases_[i].attempted, phases_[i].succeeded,
                   phases_[i].failed);
    std::fprintf(f, "],\n");
    const auto metrics = [f](const char* key, const std::vector<Metric>& ms) {
      std::fprintf(f, " %s: {", json_quote(key).c_str());
      for (std::size_t i = 0; i < ms.size(); ++i)
        std::fprintf(f, "%s\n  %s: {\"value\": %.17g, \"unit\": %s, "
                     "\"samples\": %zu, \"raw\": %.17g}",
                     i == 0 ? "" : ",", json_quote(ms[i].name).c_str(),
                     std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                     json_quote(ms[i].unit).c_str(), ms[i].samples,
                     std::isfinite(ms[i].raw) ? ms[i].raw : 0.0);
      std::fprintf(f, "},\n");
    };
    metrics("end_to_end", e2e_);
    metrics("per_layer", layer_);
    std::fprintf(f, " \"notes\": [");
    for (std::size_t i = 0; i < notes_.size(); ++i)
      std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                   json_quote(notes_[i]).c_str());
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::deque<Phase> phases_;  // deque: phase() references stay valid
  std::vector<std::string> notes_;
  bool correct_ = true;
};

}  // namespace venom::e2e
