#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/bus_spec.h"
#include "api/channel_factory.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "core/ber.h"
#include "core/eq_training.h"
#include "core/eye.h"
#include "core/lane_link.h"
#include "core/link.h"
#include "opt/optimizer.h"
#include "stat/stat_engine.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"

namespace perfbench {

namespace api = serdes::api;
namespace core = serdes::core;
namespace sweep = serdes::sweep;
using serdes::util::Json;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Reports are written the way `serdes_cli` writes them by default.
constexpr int kIndent = 2;

// ---------------------------------------------------------------- parsing --

api::LinkSpec parse_link(const std::string& text) {
  api::LinkSpec spec = api::link_spec_from_json(Json::parse(text));
  if (auto err = api::validate_spec_with_paths(spec); !err.empty()) {
    throw std::invalid_argument(err);
  }
  return spec;
}

api::BusSpec parse_bus(const std::string& text) {
  api::BusSpec bus = api::bus_spec_from_json(Json::parse(text));
  bus.validate_or_throw();
  return bus;
}

sweep::SweepSpec parse_sweep(const std::string& text) {
  return sweep::SweepSpec::from_json(Json::parse(text));
}

OpResult top_op(std::string name, std::string kind) {
  OpResult op;
  op.name = std::move(name);
  op.kind = std::move(kind);
  return op;
}

std::string cell_name(const std::string& sweep_name, std::uint64_t index) {
  return sweep_name + "[" + std::to_string(index) + "]";
}

/// The report entry of a sweep task followed by one entry per cell, with
/// each cell's row serialized (outside any timed interval).
std::vector<OpResult> sweep_results(const std::string& name,
                                    const std::string& cell_kind,
                                    const sweep::SweepReport& report,
                                    std::string report_bytes, double ms,
                                    const std::vector<double>& cell_ms) {
  std::vector<OpResult> out;
  OpResult whole = top_op(name, "sweep_report");
  whole.ms = ms;
  whole.bytes = std::move(report_bytes);
  whole.sim_bits = report.total_bits;
  out.push_back(std::move(whole));
  for (const sweep::ScenarioResult& row : report.scenarios) {
    OpResult cell = top_op(cell_name(name, row.index), cell_kind);
    cell.top = false;
    cell.ms = row.index < cell_ms.size() ? cell_ms[row.index] : 0.0;
    cell.bytes = sweep::to_json(row).dump();
    cell.sim_bits = row.bits;
    out.push_back(std::move(cell));
  }
  return out;
}

// ------------------------------------------------------- untraced calls --

std::vector<OpResult> run_sweep(const std::string& name,
                                const std::string& cell_kind,
                                const std::string& text, int threads) {
  const Clock::time_point t0 = Clock::now();
  const sweep::SweepSpec spec = parse_sweep(text);
  std::vector<double> cell_ms(spec.scenario_count(), 0.0);
  // Worker threads call on_scenario under the runner's progress mutex.
  std::vector<std::pair<std::thread::id, Clock::time_point>> last_done;
  Clock::time_point run_start;
  sweep::SweepRunner::Options options;
  options.n_threads = threads;
  options.on_scenario = [&](const sweep::ScenarioResult& row) {
    const Clock::time_point now = Clock::now();
    const std::thread::id id = std::this_thread::get_id();
    auto it = std::find_if(last_done.begin(), last_done.end(),
                           [&](const auto& e) { return e.first == id; });
    Clock::time_point since = run_start;
    if (it == last_done.end()) {
      last_done.emplace_back(id, now);
    } else {
      since = it->second;
      it->second = now;
    }
    if (row.index < cell_ms.size()) cell_ms[row.index] = ms_between(since, now);
  };
  run_start = Clock::now();
  const sweep::SweepReport report = sweep::SweepRunner(options).run(spec);
  std::string bytes = sweep::to_json(report).dump(kIndent);
  const double ms = ms_between(t0, Clock::now());
  return sweep_results(name, cell_kind, report, std::move(bytes), ms,
                       cell_ms);
}

std::vector<OpResult> run_link(const std::string& name,
                               const std::string& kind,
                               const std::string& text) {
  OpResult op = top_op(name, kind);
  const Clock::time_point t0 = Clock::now();
  const api::RunReport report = api::Simulator().run(parse_link(text));
  op.bytes = api::to_json(report).dump(kIndent);
  op.ms = ms_between(t0, Clock::now());
  op.sim_bits = report.bits;
  return {op};
}

std::uint64_t bus_bits(const api::BusReport& report) {
  std::uint64_t bits = 0;
  for (const api::RunReport& lane : report.lanes) bits += lane.bits;
  return bits;
}

std::vector<OpResult> run_bus(const std::string& name, const std::string& kind,
                              const std::string& text) {
  OpResult op = top_op(name, kind);
  const Clock::time_point t0 = Clock::now();
  const api::BusReport report =
      api::Simulator().run_bus(parse_bus(text), /*n_threads=*/1);
  op.bytes = api::to_json(report).dump(kIndent);
  op.ms = ms_between(t0, Clock::now());
  op.sim_bits = bus_bits(report);
  return {op};
}

std::vector<OpResult> run_optimize(const std::string& name,
                                   const std::string& text) {
  OpResult op = top_op(name, "optimize");
  const Clock::time_point t0 = Clock::now();
  const serdes::opt::OptimizeReport report =
      serdes::opt::optimize(parse_link(text));
  op.bytes = api::to_json(report).dump(kIndent);
  op.ms = ms_between(t0, Clock::now());
  op.sim_bits = report.mc_bits;
  op.contract_ok = report.met && report.mc_consistent;
  return {op};
}

// --------------------------------------------------------- traced replay --

using Scope = Tracer::Scope;

/// Simulator::run, call by call (no crosstalk; default Simulator options).
api::RunReport replay_run(const api::LinkSpec& spec, Tracer& tracer) {
  const api::Simulator::Options options;
  const auto& factory = api::ChannelFactory::instance();
  api::RunReport report;
  report.spec = spec;
  report.confidence_level = options.confidence_level;

  core::LinkConfig cfg;
  {
    const Scope s(tracer, "api.lower");
    cfg = spec.to_link_config();
  }

  if (spec.eq == "trained") {
    std::unique_ptr<serdes::channel::Channel> channel;
    {
      const Scope s(tracer, "channel.build");
      channel = factory.create(spec.channel, cfg);
    }
    const Scope s(tracer, "core.train");
    const std::size_t n_taps = spec.dfe_taps.empty() ? 3 : spec.dfe_taps.size();
    core::TrainingResult trained =
        core::train_equalizer(cfg, *channel, spec.training_uis, n_taps);
    tracer.count("core.train_passes", trained.passes);
    cfg.dfe_taps = trained.dfe_taps;
    cfg.tx_ffe_deemphasis = trained.tx_ffe_deemphasis;
    cfg.rx_ctle_boost = serdes::util::decibels(trained.rx_ctle_boost_db);
    report.training = std::move(trained);
  }

  const bool want_stat = spec.analysis == "stat" || spec.analysis == "both";
  if (want_stat) {
    serdes::stat::StatAnalyzer::Options stat_options;
    stat_options.phase_bins_per_ui = options.stat_phase_bins_per_ui;
    stat_options.target_ber = spec.stat_target_ber;
    const serdes::stat::StatAnalyzer analyzer(stat_options);
    std::unique_ptr<serdes::channel::Channel> channel;
    {
      const Scope s(tracer, "channel.build");
      channel = factory.create(spec.channel, cfg);
    }
    {
      const Scope s(tracer, "stat.analyze");
      report.stat = analyzer.analyze(cfg, *channel);
    }
    tracer.count("stat.calls", 1);
    tracer.count("stat.isi_cursors", report.stat->isi_cursors);
    if (spec.analysis == "stat") return report;
  }

  cfg.capture_waveforms = true;
  cfg.capture_max_samples = static_cast<std::size_t>(
      options.diagnostic_window_uis *
      static_cast<std::uint64_t>(cfg.samples_per_ui));
  std::unique_ptr<serdes::channel::Channel> channel;
  {
    const Scope s(tracer, "channel.build");
    channel = factory.create(spec.channel, cfg);
  }
  std::optional<core::SerDesLink> link;
  {
    const Scope s(tracer, "core.link_build");
    link.emplace(cfg, std::move(channel));
  }
  core::BerMeasurement m;
  {
    const Scope s(tracer, "core.mc");
    bool first_chunk = true;
    m = core::measure_ber(
        *link, spec.payload_bits, spec.chunk_bits, options.confidence_level,
        spec.prbs_order, [&](const core::LinkResult& r) {
          if (!first_chunk) return;
          first_chunk = false;
          const Scope eye_scope(tracer, "core.eye");
          report.cdr_decision_phase = r.rx.cdr_decision_phase;
          report.cdr_phase_updates = r.rx.cdr_phase_updates;
          report.rx_swing_pp = r.rx_swing_pp;
          report.decision_threshold = r.decision_threshold;
          const core::EyeAnalyzer eye(
              serdes::util::hertz(cfg.bit_rate.value() /
                                  static_cast<double>(cfg.bits_per_ui())),
              options.eye_bins_per_ui);
          report.eye = eye.analyze(r.rx.restored, report.decision_threshold);
          if (spec.capture_waveforms) {
            report.tx_out = r.tx_out;
            report.channel_out = r.channel_out;
            report.restored = r.rx.restored;
          }
          link->set_capture_waveforms(false);
        });
  }
  tracer.count("core.mc_bits", static_cast<double>(m.bits));
  report.aligned = m.aligned;
  report.bits = m.bits;
  report.errors = m.errors;
  report.ber = m.ber;
  report.ber_upper_bound = m.ber_upper_bound;

  if (want_stat) {
    const Scope s(tracer, "stat.cross_check");
    serdes::stat::StatAnalyzer::cross_check(
        *report.stat, report.bits, report.errors, spec.cdr_oversampling,
        spec.cdr_glitch_filter_radius, options.stat_cross_check_slack);
  }
  return report;
}

/// SweepRunner::run (both validations, the lane-tile grouping pass and
/// the per-cell expansion), serially.
std::vector<OpResult> replay_sweep(const std::string& name,
                                   const std::string& cell_kind,
                                   const std::string& text, Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  sweep::SweepSpec spec;
  {
    const Scope s(tracer, "api.parse");
    spec = parse_sweep(text);
  }
  sweep::SweepReport report;
  report.sweep_name = spec.name;
  report.grid_total = spec.scenario_count();
  report.axes = spec.axes;
  for (int validation = 0; validation < 2; ++validation) {  // run, run_indices
    const Scope s(tracer, "sweep.expand");
    if (auto err = spec.validate(); !err.empty()) {
      throw std::invalid_argument("SweepRunner: invalid sweep: " + err);
    }
  }
  {
    const Scope s(tracer, "sweep.expand");
    for (std::uint64_t i = 0; i < report.grid_total; ++i) {
      if (api::Simulator::tile_eligible(spec.scenario(i))) {
        throw std::invalid_argument(
            "replay: lane-tiled sweep cells are not replayed");
      }
    }
  }
  std::vector<double> cell_ms(report.grid_total, 0.0);
  report.scenarios.resize(report.grid_total);
  for (std::uint64_t i = 0; i < report.grid_total; ++i) {
    const Clock::time_point c0 = Clock::now();
    api::LinkSpec cell;
    {
      const Scope s(tracer, "sweep.expand");
      cell = spec.scenario(i);
    }
    const api::RunReport run_report = replay_run(cell, tracer);
    {
      const Scope s(tracer, "sweep.aggregate");
      report.scenarios[i] = sweep::to_scenario_result(i, run_report);
    }
    cell_ms[i] = ms_between(c0, Clock::now());
  }
  {
    const Scope s(tracer, "sweep.aggregate");
    sweep::finalize_aggregates(report);
  }
  std::string bytes;
  {
    const Scope s(tracer, "api.serialize");
    bytes = sweep::to_json(report).dump(kIndent);
  }
  const double ms = ms_between(t0, Clock::now());
  tracer.end_wall();  // the row serialization below is bookkeeping
  return sweep_results(name, cell_kind, report, std::move(bytes), ms,
                       cell_ms);
}

std::vector<OpResult> replay_link(const std::string& name,
                                  const std::string& kind,
                                  const std::string& text, Tracer& tracer) {
  OpResult op = top_op(name, kind);
  const Clock::time_point t0 = Clock::now();
  api::LinkSpec spec;
  {
    const Scope s(tracer, "api.parse");
    spec = parse_link(text);
  }
  const api::RunReport report = replay_run(spec, tracer);
  {
    const Scope s(tracer, "api.serialize");
    op.bytes = api::to_json(report).dump(kIndent);
  }
  op.ms = ms_between(t0, Clock::now());
  op.sim_bits = report.bits;
  return {op};
}

/// Simulator::run_lane_tile, call by call.
std::vector<api::RunReport> replay_lane_tile(
    const std::vector<api::LinkSpec>& lane_specs, Tracer& tracer) {
  const api::Simulator::Options options;
  std::vector<api::RunReport> reports(lane_specs.size());
  const api::LinkSpec& base = lane_specs.at(0);
  core::LinkConfig cfg;
  std::vector<std::uint64_t> seeds;
  {
    const Scope s(tracer, "api.lower");
    for (const api::LinkSpec& spec : lane_specs) spec.validate_or_throw();
    const std::string key = api::Simulator::tile_key(base);
    for (const api::LinkSpec& spec : lane_specs) {
      if (api::Simulator::tile_key(spec) != key) {
        throw std::invalid_argument("replay: tile lanes differ in physics");
      }
      seeds.push_back(spec.seed);
    }
    cfg = base.to_link_config();
    cfg.capture_waveforms = true;
    cfg.capture_max_samples = static_cast<std::size_t>(
        options.diagnostic_window_uis *
        static_cast<std::uint64_t>(cfg.samples_per_ui));
  }
  std::unique_ptr<serdes::channel::Channel> channel;
  {
    const Scope s(tracer, "channel.build");
    channel = api::ChannelFactory::instance().create(base.channel, cfg);
  }
  std::optional<core::LaneLink> link;
  {
    const Scope s(tracer, "core.link_build");
    link.emplace(cfg, std::move(channel), std::move(seeds));
  }
  std::vector<core::LaneOutcome> outcomes;
  {
    const Scope s(tracer, "core.lane_measure");
    outcomes = link->measure(base.payload_bits, base.chunk_bits,
                             options.confidence_level, base.prbs_order);
  }
  const Scope s(tracer, "core.eye");
  const double threshold = link->receiver().decision_threshold();
  const core::EyeAnalyzer eye(cfg.bit_rate, options.eye_bins_per_ui);
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    core::LaneOutcome& o = outcomes[i];
    api::RunReport& report = reports[i];
    tracer.count("core.lane_bits", static_cast<double>(o.measurement.bits));
    report.spec = lane_specs[i];
    report.confidence_level = options.confidence_level;
    report.cdr_decision_phase = o.cdr_decision_phase;
    report.cdr_phase_updates = o.cdr_phase_updates;
    report.rx_swing_pp = o.rx_swing_pp;
    report.decision_threshold = threshold;
    report.eye = eye.analyze(o.restored, threshold);
    if (lane_specs[i].capture_waveforms) {
      report.tx_out = std::move(o.tx_out);
      report.channel_out = std::move(o.channel_out);
      report.restored = std::move(o.restored);
    }
    report.aligned = o.measurement.aligned;
    report.bits = o.measurement.bits;
    report.errors = o.measurement.errors;
    report.ber = o.measurement.ber;
    report.ber_upper_bound = o.measurement.ber_upper_bound;
  }
  return reports;
}

/// Simulator::run_bus on a zero-coupling bus of tile-eligible lanes:
/// run_batch's validation and grouping, then one lane tile per group.
std::vector<OpResult> replay_tiled_bus(const std::string& name,
                                       const std::string& text,
                                       Tracer& tracer) {
  OpResult op = top_op(name, "lane_tile");
  const Clock::time_point t0 = Clock::now();
  api::BusSpec bus;
  {
    const Scope s(tracer, "api.parse");
    bus = parse_bus(text);
  }
  std::vector<api::LinkSpec> lanes;
  {
    const Scope s(tracer, "api.lower");
    bus.validate_or_throw();
    lanes = bus.expand();
  }
  if (bus.has_coupling()) {
    throw std::invalid_argument("replay: the lane tile bus must be uncoupled");
  }
  for (const api::LinkSpec& lane : lanes) {
    core::LinkConfig cfg;
    {
      const Scope s(tracer, "api.lower");
      if (auto err = lane.validate(); !err.empty()) {
        throw std::invalid_argument(err);
      }
      cfg = lane.to_link_config();
    }
    const Scope s(tracer, "channel.build");
    (void)api::ChannelFactory::instance().create(lane.channel, cfg);
  }
  std::vector<std::vector<std::size_t>> tiles;
  {
    const Scope s(tracer, "api.lower");
    const std::string key = api::Simulator::tile_key(lanes.at(0));
    const auto width = static_cast<std::size_t>(lanes[0].lane_batch);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (!api::Simulator::tile_eligible(lanes[i]) ||
          api::Simulator::tile_key(lanes[i]) != key) {
        throw std::invalid_argument("replay: bus lanes must share one tile");
      }
      if (i % width == 0) tiles.emplace_back();
      tiles.back().push_back(i);
    }
  }
  api::BusReport report;
  report.name = bus.name;
  report.coupling = bus.coupling;
  report.next_coupling = bus.next_coupling;
  report.lanes.resize(lanes.size());
  for (const std::vector<std::size_t>& tile : tiles) {
    std::vector<api::LinkSpec> lane_specs;
    for (const std::size_t lane : tile) {
      api::LinkSpec lane_spec = lanes[lane];
      lane_spec.seed = api::Simulator::derive_lane_seed(lane_spec.seed, lane);
      lane_specs.push_back(std::move(lane_spec));
    }
    std::vector<api::RunReport> tile_reports =
        replay_lane_tile(lane_specs, tracer);
    for (std::size_t j = 0; j < tile.size(); ++j) {
      report.lanes[tile[j]] = std::move(tile_reports[j]);
    }
  }
  {
    const Scope s(tracer, "api.serialize");
    op.bytes = api::to_json(report).dump(kIndent);
  }
  op.ms = ms_between(t0, Clock::now());
  op.sim_bits = bus_bits(report);
  return {op};
}

/// A coupled bus: run_bus cannot be opened from outside, so it is one span
/// plus its lane count.
std::vector<OpResult> replay_coupled_bus(const std::string& name,
                                         const std::string& text,
                                         Tracer& tracer) {
  OpResult op = top_op(name, "pam4_bus");
  const Clock::time_point t0 = Clock::now();
  api::BusSpec bus;
  {
    const Scope s(tracer, "api.parse");
    bus = parse_bus(text);
  }
  api::BusReport report;
  {
    const Scope s(tracer, "api.run_bus");
    report = api::Simulator().run_bus(bus, /*n_threads=*/1);
  }
  tracer.count("api.bus_lanes", static_cast<double>(report.lanes.size()));
  {
    const Scope s(tracer, "api.serialize");
    op.bytes = api::to_json(report).dump(kIndent);
  }
  op.ms = ms_between(t0, Clock::now());
  op.sim_bits = bus_bits(report);
  return {op};
}

/// opt::optimize is one span plus its evaluation count.
std::vector<OpResult> replay_optimize(const std::string& name,
                                      const std::string& text,
                                      Tracer& tracer) {
  OpResult op = top_op(name, "optimize");
  const Clock::time_point t0 = Clock::now();
  api::LinkSpec spec;
  {
    const Scope s(tracer, "api.parse");
    spec = parse_link(text);
  }
  serdes::opt::OptimizeReport report;
  {
    const Scope s(tracer, "opt.optimize");
    report = serdes::opt::optimize(spec);
  }
  tracer.count("opt.evaluations", report.evaluations);
  tracer.count("opt.passes", report.passes);
  {
    const Scope s(tracer, "api.serialize");
    op.bytes = api::to_json(report).dump(kIndent);
  }
  op.ms = ms_between(t0, Clock::now());
  op.sim_bits = report.mc_bits;
  op.contract_ok = report.met && report.mc_consistent;
  return {op};
}

// ------------------------------------------------------------- workloads --

Task sweep_task(const std::string& name, const std::string& cell_kind,
                const std::string& path, int threads, Workload& w) {
  auto text = std::make_shared<const std::string>(read_file(path));
  const sweep::SweepSpec spec = parse_sweep(*text);
  if (auto err = spec.validate(); !err.empty()) {
    throw std::invalid_argument(path + ": " + err);
  }
  Task task;
  task.name = name;
  OpResult whole = top_op(name, "sweep_report");
  task.skeleton.push_back(whole);
  for (std::uint64_t i = 0; i < spec.scenario_count(); ++i) {
    const api::LinkSpec cell = spec.scenario(i);
    if (i < 8) w.probe_configs.push_back(cell.to_link_config());
    OpResult op = top_op(cell_name(name, i), cell_kind);
    op.top = false;
    task.skeleton.push_back(std::move(op));
  }
  task.run = [=] { return run_sweep(name, cell_kind, *text, threads); };
  task.replay = [=](Tracer& t) {
    return replay_sweep(name, cell_kind, *text, t);
  };
  return task;
}

Task link_task(const std::string& name, const std::string& kind,
               const std::string& path, Workload& w) {
  auto text = std::make_shared<const std::string>(read_file(path));
  w.probe_configs.push_back(parse_link(*text).to_link_config());
  Task task;
  task.name = name;
  task.skeleton.push_back(top_op(name, kind));
  task.run = [=] { return run_link(name, kind, *text); };
  task.replay = [=](Tracer& t) { return replay_link(name, kind, *text, t); };
  return task;
}

Task bus_task(const std::string& name, const std::string& kind,
              const std::string& path, Workload& w) {
  auto text = std::make_shared<const std::string>(read_file(path));
  const std::vector<api::LinkSpec> lanes = parse_bus(*text).expand();
  w.probe_configs.push_back(lanes.at(0).to_link_config());
  Task task;
  task.name = name;
  task.skeleton.push_back(top_op(name, kind));
  task.run = [=] { return run_bus(name, kind, *text); };
  if (kind == "lane_tile") {
    task.replay = [=](Tracer& t) { return replay_tiled_bus(name, *text, t); };
  } else {
    task.replay = [=](Tracer& t) {
      return replay_coupled_bus(name, *text, t);
    };
  }
  return task;
}

Task optimize_task(const std::string& name, const std::string& path,
                   Workload& w) {
  auto text = std::make_shared<const std::string>(read_file(path));
  w.probe_configs.push_back(parse_link(*text).to_link_config());
  Task task;
  task.name = name;
  task.skeleton.push_back(top_op(name, "optimize"));
  task.run = [=] { return run_optimize(name, *text); };
  task.replay = [=](Tracer& t) { return replay_optimize(name, *text, t); };
  return task;
}

std::vector<OpResult> failed(const Task& task, const std::string& what) {
  std::vector<OpResult> ops = task.skeleton;
  for (OpResult& op : ops) op.error = what;
  return ops;
}

}  // namespace

Pass Workload::run_pass() const {
  Pass pass;
  for (const Task& task : tasks) {
    std::vector<OpResult> ops;
    const Clock::time_point t0 = Clock::now();
    try {
      ops = task.run();
    } catch (const std::exception& e) {
      ops = failed(task, e.what());
      ops.front().ms = ms_between(t0, Clock::now());
    }
    for (OpResult& op : ops) {
      if (op.top) pass.wall_ms += op.ms;
      pass.ops.push_back(std::move(op));
    }
  }
  return pass;
}

Pass Workload::replay(Tracer& tracer) const {
  Pass pass;
  for (const Task& task : tasks) {
    std::vector<OpResult> ops;
    tracer.set_op(task.name);
    tracer.begin_wall();
    try {
      ops = task.replay(tracer);
    } catch (const std::exception& e) {
      ops = failed(task, e.what());
    }
    tracer.end_wall();
    for (OpResult& op : ops) {
      if (op.top) pass.wall_ms += op.ms;
      pass.ops.push_back(std::move(op));
    }
  }
  return pass;
}

Workload load_workload(const std::string& name, const std::string& input_dir) {
  const auto path = [&](const char* file) { return input_dir + "/" + file; };
  Workload w;
  if (name == "sweep_1k") {
    const std::string sweep_path = path("sweep.json");
    w.tasks.push_back(sweep_task("sweep_1k", "cell", sweep_path, 2, w));
    w.extra_checks = [sweep_path](const Pass& reference) {
      // The same sweep at 1 thread must serialize byte-identically.
      ExtraChecks out;
      Check check{"sweep_threads_1_vs_2", false, ""};
      try {
        const std::vector<OpResult> serial =
            run_sweep("sweep_1k", "cell", read_file(sweep_path), 1);
        out.serial_wall_ms = serial.front().ms;
        check.ok = !reference.ops.empty() &&
                   serial.front().bytes == reference.ops.front().bytes;
        if (!check.ok) check.detail = "1-thread report differs";
      } catch (const std::exception& e) {
        check.detail = e.what();
      }
      out.checks.push_back(std::move(check));
      return out;
    };
  } else if (name == "deep_mc") {
    w.tasks.push_back(link_task("nrz_deep", "nrz", path("nrz_deep.json"), w));
    w.tasks.push_back(
        bus_task("lane_tile", "lane_tile", path("lane_tile.json"), w));
    w.tasks.push_back(
        bus_task("pam4_bus", "pam4_bus", path("pam4_bus.json"), w));
  } else if (name == "design_loop") {
    w.tasks.push_back(sweep_task("stat_sweep", "stat_cell",
                                 path("stat_sweep.json"), 1, w));
    w.tasks.push_back(
        link_task("trained_cell", "trained_cell", path("trained.json"), w));
    w.tasks.push_back(optimize_task("optimize", path("optimize.json"), w));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (!w.extra_checks) {
    w.extra_checks = [](const Pass&) { return ExtraChecks{}; };
  }
  return w;
}

}  // namespace perfbench
