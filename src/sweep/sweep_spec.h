// Declarative scenario grids over LinkSpec fields.
//
// A `SweepSpec` is a base `LinkSpec` plus a set of axes, each axis naming
// one spec field ("noise_rms_v", "channel.loss_db", "channel", ...) and
// the values it takes.  The cross product of the axes is the scenario
// grid: scenario `i` (row-major, first axis slowest) applies the decoded
// value of every axis to the base spec, names itself after the axis
// values, and — unless `derive_seeds` is off — reseeds with one
// splitmix64 step over the *grid index*, so a scenario's noise stream
// depends only on its position in the grid, never on thread count or
// shard assignment.
//
// This is the JSON-facing contract that `serdes_cli sweep` and CI run;
// see examples/specs/README.md for the schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/link_spec.h"
#include "util/json.h"

namespace serdes::sweep {

/// One swept dimension: `values[i]` is applied to the base spec through
/// `api::apply_link_field`, so anything assignable in a spec file can be
/// an axis value (numbers, strings, bools, tap arrays, whole channel
/// objects).
struct SweepAxis {
  std::string field;
  std::vector<util::Json> values;
};

/// The axis as it appears in sweep specs and in sweep reports' grid echo.
[[nodiscard]] util::Json to_json(const SweepAxis& axis);

struct SweepSpec {
  std::string name = "sweep";
  api::LinkSpec base{};
  std::vector<SweepAxis> axes;
  /// Reseed each scenario from splitmix64(base-or-axis seed, grid index).
  /// Turn off for paired ablations where every scenario must face the
  /// identical noise realization.
  bool derive_seeds = true;

  /// Product of axis sizes; 1 when there are no axes.
  [[nodiscard]] std::uint64_t scenario_count() const;

  /// Expands scenario `index` of the grid.  Throws std::out_of_range for
  /// an index outside the grid and util::JsonError if an axis value does
  /// not apply to its field.
  [[nodiscard]] api::LinkSpec scenario(std::uint64_t index) const;

  /// Empty when the sweep is runnable: the grid is non-empty and bounded,
  /// every axis value applies cleanly and yields a valid spec (findings
  /// are blamed on the value's own path), the base spec is runnable, and
  /// — for grids up to 4096 scenarios — every expanded scenario
  /// validates, so a green `validate` means the whole sweep runs.
  /// Larger grids keep the per-value and scenario-0 checks only.
  /// Diagnostics name JSON paths ("$.axes[1].values[3]: ...").
  [[nodiscard]] std::string validate() const;

  [[nodiscard]] util::Json to_json() const;

  /// Strict parse; unknown fields are errors with did-you-mean hints.
  static SweepSpec from_json(const util::Json& json,
                             const std::string& path = "$");
};

/// Deterministic per-scenario seed: identical to
/// api::Simulator::derive_lane_seed (one splitmix64 step).
[[nodiscard]] std::uint64_t derive_scenario_seed(std::uint64_t base_seed,
                                                 std::uint64_t index);

/// Index into `axes[axis].values` that grid scenario `index` selects —
/// the row-major decode `scenario()` applies (first axis slowest).
/// Lets callers inspect one axis (the lint seed scan, labels) without
/// expanding the whole spec.  Throws std::out_of_range on an axis or
/// index outside the grid.
[[nodiscard]] std::size_t axis_value_index(const SweepSpec& sweep,
                                           std::size_t axis,
                                           std::uint64_t index);

}  // namespace serdes::sweep
