// Executes a SweepSpec grid and aggregates the results.
//
// The runner is the scenario engine behind `serdes_cli sweep` and the CI
// matrix: scenarios are pulled off a shared atomic counter by a pool of
// worker threads (util::parallel_for: work stealing — a slow scenario
// never idles the other workers), each one runs through `api::Simulator`
// with its grid-index seed, and only a compact per-scenario row is
// retained, so a million-scenario grid costs megabytes, not gigabytes.
//
// Determinism contract: the report — including its serialized JSON — is
// byte-identical for any thread count, because every scenario's result
// depends only on its grid index and rows are aggregated in index order
// after the workers drain.  Sharding (`--shard k/n`) partitions the grid
// by `index % n == k`, so the union of all shards' rows is exactly the
// unsharded row set and shard reports can be merged offline
// (`merge_shard_rows` + `finalize_aggregates`).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/simulator.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"

namespace serdes::sweep {

/// Compact result row for one scenario — everything the BER / lock / eye
/// surfaces need, nothing that scales with payload size.
struct ScenarioResult {
  std::uint64_t index = 0;
  std::string name;
  std::uint64_t seed = 0;
  bool aligned = false;
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
  double ber = 0.0;
  double ber_upper_bound = 1.0;
  int cdr_decision_phase = 0;
  std::uint64_t cdr_phase_updates = 0;
  double rx_swing_pp = 0.0;
  double decision_threshold = 0.0;
  double eye_height = 0.0;
  double eye_width_ui = 0.0;
  // ---- Statistical-engine surface (scenarios with analysis != "mc") ----
  bool has_stat = false;
  double stat_min_ber = 0.0;
  double stat_timing_margin_ui = 0.0;
  double stat_eye_height_v = 0.0;
  /// "both" scenarios only: did the MC BER land in the predicted band?
  bool stat_cross_checked = false;
  bool stat_consistent = false;
};

/// A grid cell the farm gave up on: its scenario failed `attempts`
/// times (worker crashes count), so the coordinator quarantined it
/// instead of stalling the sweep.  Quarantined cells appear in the
/// report as structured failure rows — never as silently missing data.
struct QuarantinedScenario {
  std::uint64_t index = 0;
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t attempts = 0;
  std::string error;
};

/// `index`-of-`count` grid partition; {0, 1} is the whole grid.
struct Shard {
  std::uint64_t index = 0;
  std::uint64_t count = 1;
};

/// Order statistics of one metric across the aggregated rows.
/// Quantiles use the deterministic nearest-rank definition.
struct SurfaceStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct SweepReport {
  /// Report schema version (see api::RunReport::schema_version — the
  /// contract is shared: version 2 added the key itself; absent means 1).
  int schema_version = 2;

  std::string sweep_name;
  std::uint64_t grid_total = 0;
  Shard shard{};
  std::vector<SweepAxis> axes;  ///< echoed from the spec for context

  /// Rows for this shard, ascending by grid index.
  std::vector<ScenarioResult> scenarios;

  /// Cells the farm quarantined after repeated failure, ascending by
  /// grid index.  Empty for in-process runs; serialized only when
  /// non-empty so fault-free reports are byte-identical to before.
  std::vector<QuarantinedScenario> quarantined;

  // ---- aggregates over `scenarios` ----
  std::uint64_t aligned_count = 0;
  std::uint64_t error_free_count = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t total_errors = 0;
  SurfaceStats ber{};
  SurfaceStats ber_upper_bound{};
  SurfaceStats eye_height{};
  SurfaceStats eye_width_ui{};
  SurfaceStats rx_swing_pp{};

  // ---- stat-engine aggregates (over the rows with has_stat) ----
  std::uint64_t stat_count = 0;
  std::uint64_t stat_cross_checked_count = 0;
  /// Rows whose "both" cross-check found MC inside the predicted band.
  std::uint64_t stat_consistent_count = 0;
  SurfaceStats stat_min_ber{};
  SurfaceStats stat_timing_margin_ui{};
  SurfaceStats stat_eye_height_v{};
};

class SweepRunner {
 public:
  struct Options {
    /// Worker threads; <= 0 picks the hardware concurrency.
    int n_threads = 0;
    Shard shard{};
    /// Optional completion callback (progress reporting).  Called from
    /// worker threads under a mutex, in completion (not index) order.
    std::function<void(const ScenarioResult&)> on_scenario;
  };

  SweepRunner() = default;
  explicit SweepRunner(Options options) : options_(std::move(options)) {}

  /// Runs the shard's slice of the grid.  Throws std::invalid_argument
  /// on an invalid sweep or shard, and rethrows the first scenario
  /// failure after the workers stop.
  [[nodiscard]] SweepReport run(const SweepSpec& spec) const;

  /// Runs exactly the given grid indices (the store-backed and farm
  /// paths use this to compute only missing cells) and returns their
  /// rows in the same order.  Ignores `options().shard` — the caller
  /// owns the partition.  Throws std::invalid_argument on an invalid
  /// sweep and rethrows the first scenario failure.
  [[nodiscard]] std::vector<ScenarioResult> run_indices(
      const SweepSpec& spec, const std::vector<std::uint64_t>& indices) const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_{};
};

/// Distills one RunReport into its row.
[[nodiscard]] ScenarioResult to_scenario_result(std::uint64_t index,
                                                const api::RunReport& report);

/// Sorts rows by grid index and recomputes every aggregate from them.
/// `run` calls this internally; shard-merging callers use it after
/// concatenating rows from complementary shards.
void finalize_aggregates(SweepReport& report);

/// Concatenates the rows of complementary shard reports into one report
/// covering the whole grid (shard becomes {0, 1}).  Throws
/// std::invalid_argument if the reports disagree on the sweep identity,
/// their rows overlap, or the union does not cover every grid scenario
/// (a shard report is missing).
[[nodiscard]] SweepReport merge_shard_rows(
    const std::vector<SweepReport>& shards);

/// Deterministic JSON rendering of a report (the CI artifact format).
[[nodiscard]] util::Json to_json(const SweepReport& report);

/// Row-level JSON round-trip — the result store's durable record
/// payload.  `parse(dump(x))` is a fixed point, so a row replayed from
/// the store re-serializes byte-identically to a freshly computed one.
[[nodiscard]] util::Json to_json(const ScenarioResult& row);
[[nodiscard]] ScenarioResult scenario_result_from_json(
    const util::Json& json, const std::string& path = "$");
[[nodiscard]] util::Json to_json(const QuarantinedScenario& row);
[[nodiscard]] QuarantinedScenario quarantined_from_json(
    const util::Json& json, const std::string& path = "$");

}  // namespace serdes::sweep
