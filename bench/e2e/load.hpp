// Workload synthesis and the load generator.
//
// Inputs come from the benchmark's own seeded generator, so `--seed`
// changes only what the workload sends (lengths, arrival times, input
// values, prompts) while the model weights stay fixed.
//
// Draws are stratified: n draws take one value from each of n equal
// slices of [0, 1) and are shuffled. Every seed then offers the same
// length mix and the same mean rate in a different order, and the
// run-to-run spread of a metric reflects the system rather than a lucky
// draw of long requests.
//
// Why serving::run_serving_load and run_decode_bench are not reused:
//   * run_serving_load calibrates its offered rate on every run, so two
//     runs of one commit offer different loads (seed runs calibrated to
//     405 and 492 req/s) and cannot be compared across commits;
//   * both report latency as the engine's own queue_ms + exec_ms, not
//     from when each request was due, so a generator stall is invisible;
//   * run_serving_load stops after 192 requests, leaving two samples
//     beyond its p99;
//   * they live in src/, so a library change could move the yardstick.
// This file fixes rates in absolute terms, times from due times, and
// polls from one thread at a stated resolution.
#pragma once

#include <cmath>
#include <cstdint>
#include <exception>
#include <future>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "serving/request.hpp"
#include "tensor/matrix.hpp"

namespace venom::e2e {

/// splitmix64 stream keyed by (seed, label): the benchmark's generator.
class Gen {
 public:
  Gen(std::uint64_t seed, std::string_view label) : state_(seed) {
    for (const char c : label)  // FNV-1a over the label
      state_ = (state_ ^ std::uint8_t(c)) * 0x100000001b3ull;
  }
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return std::min(n - 1, std::size_t(uniform() * double(n)));
  }
  double normal() {
    const double u1 = std::max(uniform(), 1e-300);
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(6.283185307179586 * uniform());
  }

 private:
  std::uint64_t state_;
};

/// n uniforms in [0, 1), one from each of n equal strata, shuffled.
inline std::vector<double> stratified(std::size_t n, Gen& gen) {
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) u[i] = (double(i) + gen.uniform()) / n;
  for (std::size_t i = n; i > 1; --i) std::swap(u[i - 1], u[gen.below(i)]);
  return u;
}

/// Zipf(s) over the integers [lo, hi] by inverse CDF: weight of the k-th
/// smallest value is (k + 1)^-s.
class Zipf {
 public:
  Zipf(std::size_t lo, std::size_t hi, double s) : lo_(lo) {
    double total = 0.0;
    for (std::size_t k = 0; k + lo <= hi; ++k) {
      total += std::pow(double(k + 1), -s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t at(double u) const {
    std::size_t k = 0;
    while (k + 1 < cdf_.size() && cdf_[k] <= u) ++k;
    return lo_ + k;
  }

 private:
  std::size_t lo_;
  std::vector<double> cdf_;
};

/// Arrival offsets (seconds from phase start) of a Poisson process at
/// `rate` per second, from stratified exponential gaps: n arrivals span
/// about n / rate seconds on every seed.
inline std::vector<double> poisson_offsets(std::size_t n, double rate,
                                           Gen& gen) {
  std::vector<double> offsets;
  offsets.reserve(n);
  double t = 0.0;
  for (const double u : stratified(n, gen)) {
    t += -std::log1p(-u) / rate;
    offsets.push_back(t);
  }
  return offsets;
}

/// (rows x cols) activations, N(0, 0.5^2) rounded to fp16.
inline HalfMatrix synth_input(std::size_t rows, std::size_t cols, Gen& gen) {
  HalfMatrix m(rows, cols);
  for (half_t& v : m.flat()) v = half_t(float(0.5 * gen.normal()));
  return m;
}

inline bool same_bits(const HalfMatrix& a, const HalfMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.flat()[i].bits() != b.flat()[i].bits()) return false;
  return true;
}

/// FNV-1a over a matrix's shape and bits. Outputs are kept as hashes, so
/// the number of results a run collects does not show in its memory.
inline std::uint64_t bits_hash(const HalfMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  mix(m.rows());
  mix(m.cols());
  for (const half_t v : m.flat()) mix(v.bits());
  return h;
}

/// The load thread looks at every outstanding future, and at the next
/// due time, at least this often: completion times carry up to this much
/// (plus the scheduler's wake-up slack) of added latency.
inline constexpr std::chrono::microseconds kPollInterval{50};

/// One submission as the load thread saw it.
struct Sent {
  std::size_t item = 0;
  Clock::time_point due{};
  Clock::time_point sent{};  ///< just before submit() was called
  Clock::time_point done{};  ///< when the poll saw the future ready
  double submit_us = 0.0;    ///< wall time inside submit()
  /// The response with its output matrix dropped; output_hash keeps it.
  std::optional<serving::Response> response;
  std::uint64_t output_hash = 0;
  std::string error;  ///< why it failed (shed or threw), if it did

  double latency_ms() const { return ms_between(due, done); }
  double late_ms() const { return ms_between(due, sent); }
};

/// Drives one phase from the calling thread and returns every
/// submission in order. Open loop when `offsets` is non-empty: item i is
/// due at start + offsets[i] whatever has completed. Closed loop
/// otherwise: `window` items are kept outstanding until `duration_s` has
/// elapsed, and each new item is due the moment a slot frees. `submit(i)`
/// returns the item's future and may throw (an AdmissionError shed counts
/// as a failed item).
template <typename SubmitFn>
std::vector<Sent> drive(SubmitFn&& submit, const std::vector<double>& offsets,
                        std::size_t window, double duration_s) {
  const bool open = !offsets.empty();
  const auto start = Clock::now();
  const auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const auto end = at(duration_s);
  std::vector<Sent> sent;
  std::vector<std::pair<std::size_t, std::future<serving::Response>>> pending;
  std::vector<Clock::time_point> free_slots(open ? 0 : window, start);

  const auto send = [&](Clock::time_point due) {
    Sent s;
    s.item = sent.size();
    s.due = due;
    s.sent = Clock::now();
    try {
      auto fut = submit(s.item);
      s.submit_us = 1e3 * ms_since(s.sent);
      pending.emplace_back(sent.size(), std::move(fut));
    } catch (const std::exception& e) {
      s.submit_us = 1e3 * ms_since(s.sent);
      s.done = Clock::now();
      s.error = e.what();
    }
    sent.push_back(std::move(s));
  };

  for (;;) {
    auto now = Clock::now();
    if (open) {
      while (sent.size() < offsets.size() && at(offsets[sent.size()]) <= now)
        send(at(offsets[sent.size()]));
    } else {
      while (!free_slots.empty() && now < end) {
        send(free_slots.back());
        free_slots.pop_back();
      }
    }
    now = Clock::now();
    for (std::size_t i = 0; i < pending.size();) {
      auto& [index, fut] = pending[i];
      if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      Sent& s = sent[index];
      s.done = now;
      try {
        s.response = fut.get();
        s.output_hash = bits_hash(s.response->output);
        s.response->output = HalfMatrix();
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      if (!open) free_slots.push_back(now);
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
    const bool all_sent = open ? sent.size() == offsets.size() : now >= end;
    if (all_sent && pending.empty()) break;
    auto wake = now + kPollInterval;
    if (open && sent.size() < offsets.size())
      wake = std::min(wake, at(offsets[sent.size()]));
    std::this_thread::sleep_until(wake);
  }
  return sent;
}

/// Phase counts and the load thread's lateness for a driven phase.
inline void account(const std::vector<Sent>& sent, Phase& phase,
                    Samples& late_ms) {
  for (const Sent& s : sent) {
    ++phase.attempted;
    ++(s.response ? phase.succeeded : phase.failed);
    late_ms.add(s.late_ms());
  }
}

}  // namespace venom::e2e
