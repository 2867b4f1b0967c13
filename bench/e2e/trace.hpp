// In-memory span recorder that writes Chrome trace-event JSON.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer, and kept in memory until the run ends. The file loads in
// Perfetto (ui.perfetto.dev, "Open trace file") or chrome://tracing with
// nothing installed. Requests are async tracks (one per request id) so
// overlapping requests do not have to nest; replayed layer calls are
// complete events on one thread track.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "measure.hpp"

namespace venom::e2e {

class Trace {
 public:
  Trace(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}
  bool on() const { return on_; }

  /// An async span on request `id`'s track; spans of one id nest by time.
  /// `args` is a JSON object body such as "\"tokens\": 12".
  void span(const char* name, const char* cat, std::size_t id,
            Clock::time_point begin, Clock::time_point end,
            std::string args = {}) {
    if (!on_) return;
    events_.push_back({name, cat, 'b', id, us(begin), 0.0, args});
    events_.push_back({name, cat, 'e', id, us(end), 0.0, {}});
  }
  /// An instant event on request `id`'s track.
  void instant(const char* name, const char* cat, std::size_t id,
               Clock::time_point at) {
    if (on_) events_.push_back({name, cat, 'n', id, us(at), 0.0, {}});
  }
  /// A complete event on the benchmark thread's track.
  void call(const std::string& name, const char* cat,
            Clock::time_point begin, Clock::time_point end) {
    if (on_)
      events_.push_back({name, cat, 'X', 0, us(begin), us(end) - us(begin),
                         {}});
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"%c\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f",
                   json_quote(e.name).c_str(), e.cat, e.ph, e.ts);
      if (e.ph == 'X') std::fprintf(f, ", \"dur\": %.3f", e.dur);
      else std::fprintf(f, ", \"id\": %zu", e.id);
      if (!e.args.empty()) std::fprintf(f, ", \"args\": {%s}", e.args.c_str());
      std::fprintf(f, "}%s\n", i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    std::string name;
    const char* cat;
    char ph;
    std::size_t id;
    double ts;   ///< microseconds since origin
    double dur;  ///< microseconds ('X' only)
    std::string args;
  };
  double us(Clock::time_point t) const { return 1e3 * ms_between(origin_, t); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Event> events_;
};

}  // namespace venom::e2e
