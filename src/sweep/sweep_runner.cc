#include "sweep/sweep_runner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/json_fields.h"

namespace serdes::sweep {

using util::Json;

ScenarioResult to_scenario_result(std::uint64_t index,
                                  const api::RunReport& report) {
  ScenarioResult row;
  row.index = index;
  row.name = report.spec.name;
  row.seed = report.spec.seed;
  row.aligned = report.aligned;
  row.bits = report.bits;
  row.errors = report.errors;
  row.ber = report.ber;
  row.ber_upper_bound = report.ber_upper_bound;
  row.cdr_decision_phase = report.cdr_decision_phase;
  row.cdr_phase_updates = report.cdr_phase_updates;
  row.rx_swing_pp = report.rx_swing_pp;
  row.decision_threshold = report.decision_threshold;
  row.eye_height = report.eye.eye_height;
  row.eye_width_ui = report.eye.eye_width_ui;
  if (report.stat) {
    row.has_stat = true;
    row.stat_min_ber = report.stat->min_ber;
    row.stat_timing_margin_ui = report.stat->timing_margin_ui;
    row.stat_eye_height_v = report.stat->eye_height_v;
    row.stat_cross_checked = report.stat->cross_checked;
    row.stat_consistent = report.stat->consistent;
  }
  return row;
}

namespace {

/// Nearest-rank quantile over an already-sorted vector.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

SurfaceStats surface_stats(std::vector<double> values) {
  SurfaceStats s;
  if (values.empty()) return s;
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.p50 = quantile(values, 0.50);
  s.p90 = quantile(values, 0.90);
  s.p99 = quantile(values, 0.99);
  return s;
}

Json to_json(const SurfaceStats& s, std::uint64_t count) {
  Json j = Json::object();
  j.set("count", count);
  j.set("min", s.min);
  j.set("max", s.max);
  j.set("mean", s.mean);
  j.set("p50", s.p50);
  j.set("p90", s.p90);
  j.set("p99", s.p99);
  return j;
}

using util::field;
using util::JsonField;

/// The row's stat surface, written under "stat" when `has_stat` is set.
constexpr auto kRowStatFields = std::to_array<JsonField<ScenarioResult>>({
    field<&ScenarioResult::stat_min_ber>("min_ber"),
    field<&ScenarioResult::stat_timing_margin_ui>("timing_margin_ui"),
    field<&ScenarioResult::stat_eye_height_v>("eye_height_v"),
    field<&ScenarioResult::stat_cross_checked>("cross_checked"),
    field<&ScenarioResult::stat_consistent>("consistent"),
});

constexpr auto kRowFields = std::to_array<JsonField<ScenarioResult>>({
    field<&ScenarioResult::index>("index"),
    field<&ScenarioResult::name>("name"),
    field<&ScenarioResult::seed>("seed"),
    field<&ScenarioResult::aligned>("aligned"),
    field<&ScenarioResult::bits>("bits"),
    field<&ScenarioResult::errors>("errors"),
    field<&ScenarioResult::ber>("ber"),
    field<&ScenarioResult::ber_upper_bound>("ber_upper_bound"),
    field<&ScenarioResult::cdr_decision_phase>("cdr_decision_phase"),
    field<&ScenarioResult::cdr_phase_updates>("cdr_phase_updates"),
    field<&ScenarioResult::rx_swing_pp>("rx_swing_pp"),
    field<&ScenarioResult::decision_threshold>("decision_threshold"),
    field<&ScenarioResult::eye_height>("eye_height"),
    field<&ScenarioResult::eye_width_ui>("eye_width_ui"),
    {"stat",
     [](const ScenarioResult& row) {
       return util::write_fields(row, kRowStatFields);
     },
     [](ScenarioResult& row, const Json& j, const std::string& path) {
       row.has_stat = true;
       util::read_fields(row, kRowStatFields, j, path, "scenario stat");
     },
     [](const ScenarioResult& row) { return row.has_stat; }},
});

constexpr auto kQuarantineFields =
    std::to_array<JsonField<QuarantinedScenario>>({
        field<&QuarantinedScenario::index>("index"),
        field<&QuarantinedScenario::name>("name"),
        field<&QuarantinedScenario::seed>("seed"),
        field<&QuarantinedScenario::attempts>("attempts"),
        field<&QuarantinedScenario::error>("error"),
    });

}  // namespace

Json to_json(const ScenarioResult& row) {
  return util::write_fields(row, kRowFields);
}

ScenarioResult scenario_result_from_json(const Json& json,
                                         const std::string& path) {
  ScenarioResult row;
  util::read_fields(row, kRowFields, json, path, "scenario row");
  return row;
}

Json to_json(const QuarantinedScenario& row) {
  return util::write_fields(row, kQuarantineFields);
}

QuarantinedScenario quarantined_from_json(const Json& json,
                                          const std::string& path) {
  QuarantinedScenario row;
  util::read_fields(row, kQuarantineFields, json, path, "quarantine");
  return row;
}

void finalize_aggregates(SweepReport& report) {
  std::sort(report.scenarios.begin(), report.scenarios.end(),
            [](const ScenarioResult& a, const ScenarioResult& b) {
              return a.index < b.index;
            });
  std::sort(report.quarantined.begin(), report.quarantined.end(),
            [](const QuarantinedScenario& a, const QuarantinedScenario& b) {
              return a.index < b.index;
            });
  report.aligned_count = 0;
  report.error_free_count = 0;
  report.total_bits = 0;
  report.total_errors = 0;
  report.stat_count = 0;
  report.stat_cross_checked_count = 0;
  report.stat_consistent_count = 0;
  const std::size_t n = report.scenarios.size();
  std::vector<double> ber, ber_ub, eye_h, eye_w, swing;
  std::vector<double> stat_ber, stat_margin, stat_eye;
  ber.reserve(n);
  ber_ub.reserve(n);
  eye_h.reserve(n);
  eye_w.reserve(n);
  swing.reserve(n);
  for (const auto& row : report.scenarios) {
    if (row.aligned) ++report.aligned_count;
    if (row.aligned && row.errors == 0 && row.bits > 0) {
      ++report.error_free_count;
    }
    report.total_bits += row.bits;
    report.total_errors += row.errors;
    ber.push_back(row.ber);
    ber_ub.push_back(row.ber_upper_bound);
    eye_h.push_back(row.eye_height);
    eye_w.push_back(row.eye_width_ui);
    swing.push_back(row.rx_swing_pp);
    if (row.has_stat) {
      ++report.stat_count;
      if (row.stat_cross_checked) ++report.stat_cross_checked_count;
      if (row.stat_consistent) ++report.stat_consistent_count;
      stat_ber.push_back(row.stat_min_ber);
      stat_margin.push_back(row.stat_timing_margin_ui);
      stat_eye.push_back(row.stat_eye_height_v);
    }
  }
  report.ber = surface_stats(std::move(ber));
  report.ber_upper_bound = surface_stats(std::move(ber_ub));
  report.eye_height = surface_stats(std::move(eye_h));
  report.eye_width_ui = surface_stats(std::move(eye_w));
  report.rx_swing_pp = surface_stats(std::move(swing));
  report.stat_min_ber = surface_stats(std::move(stat_ber));
  report.stat_timing_margin_ui = surface_stats(std::move(stat_margin));
  report.stat_eye_height_v = surface_stats(std::move(stat_eye));
}

SweepReport SweepRunner::run(const SweepSpec& spec) const {
  if (auto err = spec.validate(); !err.empty()) {
    throw std::invalid_argument("SweepRunner: invalid sweep: " + err);
  }
  const Shard shard = options_.shard;
  if (shard.count == 0 || shard.index >= shard.count) {
    throw std::invalid_argument(
        "SweepRunner: shard " + std::to_string(shard.index) + "/" +
        std::to_string(shard.count) + " is not a valid partition");
  }

  SweepReport report;
  report.sweep_name = spec.name;
  report.grid_total = spec.scenario_count();
  report.shard = shard;
  report.axes = spec.axes;

  // The shard owns grid indices congruent to shard.index mod shard.count.
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = shard.index; i < report.grid_total;
       i += shard.count) {
    indices.push_back(i);
  }
  report.scenarios = run_indices(spec, indices);
  finalize_aggregates(report);
  return report;
}

std::vector<ScenarioResult> SweepRunner::run_indices(
    const SweepSpec& spec, const std::vector<std::uint64_t>& indices) const {
  if (auto err = spec.validate(); !err.empty()) {
    throw std::invalid_argument("SweepRunner: invalid sweep: " + err);
  }
  std::vector<ScenarioResult> rows(indices.size());
  if (indices.empty()) return rows;

  // A row reads only the stat margins, so the engine bisects the best
  // phase's contour alone.  Scenario specs are rebuilt from their grid
  // index inside the worker, so the grouping pass only holds keys; each
  // row's result is bit-identical whatever the tiling and thread count.
  api::Simulator::Options simulator_options;
  simulator_options.stat_contours = false;
  std::mutex progress_mutex;
  api::Simulator(simulator_options)
      .run_each(
          indices.size(),
          [&](std::size_t slot) { return spec.scenario(indices[slot]); },
          options_.n_threads,
          [&](std::size_t slot, api::RunReport& report) {
            rows[slot] = to_scenario_result(indices[slot], report);
            if (options_.on_scenario) {
              const std::lock_guard<std::mutex> lock(progress_mutex);
              options_.on_scenario(rows[slot]);
            }
          });
  return rows;
}

SweepReport merge_shard_rows(const std::vector<SweepReport>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shard_rows: no reports to merge");
  }
  SweepReport merged;
  merged.sweep_name = shards.front().sweep_name;
  merged.grid_total = shards.front().grid_total;
  merged.shard = Shard{0, 1};
  merged.axes = shards.front().axes;
  for (const auto& shard : shards) {
    if (shard.sweep_name != merged.sweep_name ||
        shard.grid_total != merged.grid_total) {
      throw std::invalid_argument(
          "merge_shard_rows: reports come from different sweeps");
    }
    merged.scenarios.insert(merged.scenarios.end(), shard.scenarios.begin(),
                            shard.scenarios.end());
    merged.quarantined.insert(merged.quarantined.end(),
                              shard.quarantined.begin(),
                              shard.quarantined.end());
  }
  std::sort(merged.scenarios.begin(), merged.scenarios.end(),
            [](const ScenarioResult& a, const ScenarioResult& b) {
              return a.index < b.index;
            });
  std::sort(merged.quarantined.begin(), merged.quarantined.end(),
            [](const QuarantinedScenario& a, const QuarantinedScenario& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 1; i < merged.scenarios.size(); ++i) {
    if (merged.scenarios[i].index == merged.scenarios[i - 1].index) {
      throw std::invalid_argument(
          "merge_shard_rows: scenario " +
          std::to_string(merged.scenarios[i].index) +
          " appears in more than one shard");
    }
  }
  for (std::size_t i = 1; i < merged.quarantined.size(); ++i) {
    if (merged.quarantined[i].index == merged.quarantined[i - 1].index) {
      throw std::invalid_argument(
          "merge_shard_rows: quarantined scenario " +
          std::to_string(merged.quarantined[i].index) +
          " appears in more than one shard");
    }
  }
  // A cell is either a result row or a quarantine row, never both — a
  // shard that computed a scenario another shard quarantined means the
  // shards disagree about the grid and the merge is unsound.
  {
    std::size_t row = 0;
    for (const auto& q : merged.quarantined) {
      while (row < merged.scenarios.size() &&
             merged.scenarios[row].index < q.index) {
        ++row;
      }
      if (row < merged.scenarios.size() &&
          merged.scenarios[row].index == q.index) {
        throw std::invalid_argument(
            "merge_shard_rows: scenario " + std::to_string(q.index) +
            " is both computed and quarantined across shards");
      }
    }
  }
  // The merged report claims shard {0, 1} — the whole grid — so a missing
  // shard must be an error, not silently wrong full-grid statistics.
  // Quarantined cells count as covered: they are present in the report,
  // just as structured failures instead of rows.
  const std::size_t covered =
      merged.scenarios.size() + merged.quarantined.size();
  if (covered != merged.grid_total) {
    throw std::invalid_argument(
        "merge_shard_rows: union covers " + std::to_string(covered) + " of " +
        std::to_string(merged.grid_total) +
        " scenarios — a shard report is missing");
  }
  finalize_aggregates(merged);
  return merged;
}

Json to_json(const SweepReport& report) {
  Json j = Json::object();
  j.set("schema_version", report.schema_version);
  j.set("sweep", report.sweep_name);

  Json grid = Json::object();
  grid.set("total_scenarios", report.grid_total);
  grid.set("axes", util::write_array(report.axes, [](const SweepAxis& axis) {
             return to_json(axis);
           }));
  j.set("grid", std::move(grid));

  Json shard = Json::object();
  shard.set("index", report.shard.index);
  shard.set("count", report.shard.count);
  shard.set("scenarios", static_cast<std::uint64_t>(report.scenarios.size()));
  j.set("shard", std::move(shard));

  Json rows = Json::array();
  for (const auto& row : report.scenarios) rows.push_back(to_json(row));
  j.set("scenarios", std::move(rows));

  // Emitted only when present so fault-free reports keep their historical
  // bytes (the golden-report pins depend on this).
  if (!report.quarantined.empty()) {
    Json quarantined = Json::array();
    for (const auto& row : report.quarantined) {
      quarantined.push_back(to_json(row));
    }
    j.set("quarantined", std::move(quarantined));
  }

  Json agg = Json::object();
  const auto count = static_cast<std::uint64_t>(report.scenarios.size());
  agg.set("scenarios", count);
  if (!report.quarantined.empty()) {
    agg.set("quarantined",
            static_cast<std::uint64_t>(report.quarantined.size()));
  }
  agg.set("aligned", report.aligned_count);
  agg.set("error_free", report.error_free_count);
  agg.set("total_bits", report.total_bits);
  agg.set("total_errors", report.total_errors);
  agg.set("ber", to_json(report.ber, count));
  agg.set("ber_upper_bound", to_json(report.ber_upper_bound, count));
  agg.set("eye_height", to_json(report.eye_height, count));
  agg.set("eye_width_ui", to_json(report.eye_width_ui, count));
  agg.set("rx_swing_pp", to_json(report.rx_swing_pp, count));
  if (report.stat_count > 0) {
    Json stat = Json::object();
    stat.set("scenarios", report.stat_count);
    stat.set("cross_checked", report.stat_cross_checked_count);
    stat.set("consistent", report.stat_consistent_count);
    stat.set("min_ber", to_json(report.stat_min_ber, report.stat_count));
    stat.set("timing_margin_ui",
             to_json(report.stat_timing_margin_ui, report.stat_count));
    stat.set("eye_height_v",
             to_json(report.stat_eye_height_v, report.stat_count));
    agg.set("stat", std::move(stat));
  }
  j.set("aggregate", std::move(agg));
  return j;
}

}  // namespace serdes::sweep
