// The benchmark's workloads, driven through the library's public headers.
//
// A workload is a fixed list of tasks read from generated spec files
// (perfbench/specs.py writes them from the seed).  Each task takes a spec
// file's text to a serialized report, the way `serdes_cli` does: parse,
// validate, run, serialize.  A workload runs its tasks two ways:
//
//   * run_pass(): untraced, exactly as a user of the library would;
//   * replay():   the same pass re-enacted call by call through the public
//                 layers (the sequence Simulator::run, SweepRunner::run and
//                 run_bus make), with a span around each call into a layer.
//
// The replay must serialize byte-identical reports; the harness checks it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "trace.h"

namespace perfbench {

/// Outcome of one operation in one pass.
struct OpResult {
  std::string name;
  /// "cell", "nrz", "lane_tile", "pam4_bus", "stat_cell", "trained_cell",
  /// "optimize" or "sweep_report".
  std::string kind;
  /// Top-level operations are the task calls themselves; a pass's wall
  /// time is the sum of their times.  Sweep cells are not top-level.
  bool top = true;
  /// Host time.  A sweep cell's time runs from its worker's previous
  /// completion (or the start of the sweep) to its own completion.
  double ms = 0.0;
  /// The serialized report the operation produced.
  std::string bytes;
  /// Monte Carlo payload bits the operation simulated.
  std::uint64_t sim_bits = 0;
  /// Operation-level contract (optimize: met and mc_consistent).
  bool contract_ok = true;
  /// Non-empty when the operation threw.
  std::string error;
};

struct Pass {
  double wall_ms = 0.0;
  std::vector<OpResult> ops;
};

/// A named correctness check beyond per-operation digests.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What a workload checks beyond digests, plus the host time of its serial
/// pass when run_pass itself is parallel (0 otherwise): the replay is
/// serial, so the tracing overhead is measured against that time.
struct ExtraChecks {
  std::vector<Check> checks;
  double serial_wall_ms = 0.0;
};

/// One top-level call of a workload; a sweep is one task whose results
/// include its cells.
struct Task {
  std::string name;
  /// The results a failed task reports: its own entry plus its cells.
  std::vector<OpResult> skeleton;
  std::function<std::vector<OpResult>()> run;
  std::function<std::vector<OpResult>(Tracer&)> replay;
};

struct Workload {
  std::vector<Task> tasks;
  std::function<ExtraChecks(const Pass&)> extra_checks;
  /// Link configurations whose receivers the characterization probe builds.
  std::vector<serdes::core::LinkConfig> probe_configs;

  /// Untraced pass over every task.
  [[nodiscard]] Pass run_pass() const;
  /// Traced replay of one pass; the tracer's wall interval covers the
  /// replayed calls only.
  [[nodiscard]] Pass replay(Tracer& tracer) const;
};

/// Loads workload `name` from the spec files in `input_dir`: reads, parses,
/// validates and expands every input.  Throws on an unknown workload or an
/// invalid input.
[[nodiscard]] Workload load_workload(const std::string& name,
                                     const std::string& input_dir);

}  // namespace perfbench
