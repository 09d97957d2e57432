// In-memory span recorder for the benchmark's traced replay.
//
// Spans are recorded from outside the library, around each public call
// the replay makes into a layer (lowering, channel build, training, stat
// analysis, link build, MC measurement, eye fold, serialization, ...).
// Each span has a name, host start/end times, the span that was open when
// it began (its parent) and the operation it belongs to.  Nothing is
// written until the replay ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since `origin`.
[[nodiscard]] std::int64_t ns_since(Clock::time_point origin);

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string op;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span, -1 at top level
  };

  /// RAII guard: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer();

  /// Tags the spans opened from now on with operation `op`.
  void set_op(std::string op) { op_ = std::move(op); }
  /// Adds `n` to the named counter (work counts at layer boundaries).
  void count(const std::string& name, double n) { counts_[name] += n; }

  /// Opens and closes an interval of traced wall time.  The wall is the
  /// sum of its intervals, so bookkeeping between them is excluded; closing
  /// a closed wall does nothing.
  void begin_wall();
  void end_wall();

  [[nodiscard]] double count_of(const std::string& name) const;
  [[nodiscard]] double wall_ms() const;
  /// Share of the traced wall interval covered by top-level spans.
  [[nodiscard]] double coverage() const;
  /// Self time per span name in milliseconds: each span's duration minus
  /// the part its child spans cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  /// Span tree, per-layer self times and counts as one JSON document.
  [[nodiscard]] serdes::util::Json to_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
  std::string op_;
  std::map<std::string, double> counts_;
  std::int64_t wall_open_ns_ = -1;
  std::int64_t wall_ns_ = 0;
};

}  // namespace perfbench
