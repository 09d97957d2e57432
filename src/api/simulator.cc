#include "api/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/bus_spec.h"
#include "api/channel_factory.h"
#include "api/spec_json.h"
#include "core/ber.h"
#include "core/lane_link.h"
#include "core/link.h"
#include "stat/stat_engine.h"
#include "util/parallel.h"

namespace serdes::api {

bool Simulator::tile_eligible(const LinkSpec& spec) {
  // Lane tiles run NRZ only — PAM4 lanes always take the scalar path.
  // Trained lanes are excluded as well: each lane trains its own EQ from
  // its derived seed, so tiles could no longer share one instruction
  // stream over identical physics.
  return spec.lane_batch > 1 && spec.analysis == "mc" &&
         spec.modulation == "nrz" && spec.eq != "trained";
}

std::string Simulator::tile_key(const LinkSpec& spec) {
  LinkSpec key = spec;
  key.name.clear();
  key.seed = 0;
  return to_json(key).dump();
}

std::uint64_t Simulator::derive_lane_seed(std::uint64_t base_seed,
                                          std::size_t lane) {
  // splitmix64 step (Steele/Lea/Flood) over base ^ lane: well-mixed,
  // collision-free per lane, and stable across platforms and thread
  // schedules.
  std::uint64_t z = base_seed ^ (0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(lane) + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Sets the capture of `spec`'s Monte Carlo run.  The first chunk carries
/// the lock diagnostics and the eye, so it always captures the slicer
/// input the eye folds; it captures all four waveforms only when the spec
/// keeps them in the report.  Capture is bounded to the diagnostic window
/// so a deep first chunk does not cost O(chunk) memory.
void capture_diagnostics(const LinkSpec& spec, core::LinkConfig& cfg) {
  cfg.capture_waveforms = spec.capture_waveforms;
  cfg.capture_slicer_input = true;
  cfg.capture_max_samples = static_cast<std::size_t>(
      Simulator::Options::diagnostic_window_uis *
      static_cast<std::uint64_t>(cfg.samples_per_ui));
}

/// The first chunk's part of a report's Monte Carlo section, from its
/// lane's outcome: the lock diagnostics and decision threshold, the eye
/// folded per line UI (the symbol period under PAM4) and, when the spec
/// keeps them, the waveforms.
void set_first_chunk(RunReport& report, const core::LinkConfig& cfg,
                     core::LaneOutcome& o) {
  report.cdr_decision_phase = o.cdr_decision_phase;
  report.cdr_phase_updates = o.cdr_phase_updates;
  report.rx_swing_pp = o.rx_swing_pp;
  report.decision_threshold = o.decision_threshold;
  const core::EyeAnalyzer eye(
      util::hertz(cfg.bit_rate.value() /
                  static_cast<double>(cfg.bits_per_ui())),
      Simulator::Options::eye_bins_per_ui);
  report.eye = eye.analyze(o.restored, o.decision_threshold);
  if (report.spec.capture_waveforms) {
    report.tx_out = std::move(o.tx_out);
    report.channel_out = std::move(o.channel_out);
    report.restored = std::move(o.restored);
  }
}

/// The rest of the Monte Carlo section: the whole run's BER.
void set_ber(RunReport& report, const core::BerMeasurement& m) {
  report.aligned = m.aligned;
  report.bits = m.bits;
  report.errors = m.errors;
  report.ber = m.ber;
  report.ber_upper_bound = m.ber_upper_bound;
  report.confidence_level = m.confidence_level;
}

/// One unit of batched work: the indices of the specs it runs, as one
/// lane tile or (a single index) one scalar run.
struct WorkItem {
  bool tile = false;
  std::vector<std::size_t> specs;
};

/// Splits specs 0..count-1 into work items: a scalar run per spec, except
/// tile-eligible specs, grouped by tile_key in first-seen order and cut
/// into tiles of at most lane_batch lanes.
std::vector<WorkItem> plan_work(
    std::size_t count, const std::function<LinkSpec(std::size_t)>& spec_at) {
  std::vector<WorkItem> items;
  std::vector<std::string> keys;  // insertion-ordered: deterministic
  std::vector<WorkItem> groups;   // one per key, every eligible spec
  std::vector<std::size_t> widths;
  for (std::size_t i = 0; i < count; ++i) {
    const LinkSpec spec = spec_at(i);
    if (!Simulator::tile_eligible(spec)) {
      items.push_back(WorkItem{false, {i}});
      continue;
    }
    const std::string key = Simulator::tile_key(spec);
    const auto found = std::find(keys.begin(), keys.end(), key);
    const auto g = static_cast<std::size_t>(found - keys.begin());
    if (found == keys.end()) {
      keys.push_back(key);
      groups.push_back(WorkItem{true, {}});
      widths.push_back(static_cast<std::size_t>(spec.lane_batch));
    }
    groups[g].specs.push_back(i);
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::vector<std::size_t>& group = groups[g].specs;
    for (std::size_t at = 0; at < group.size(); at += widths[g]) {
      const std::size_t end = std::min(group.size(), at + widths[g]);
      items.push_back(WorkItem{
          true, {group.begin() + static_cast<std::ptrdiff_t>(at),
                 group.begin() + static_cast<std::ptrdiff_t>(end)}});
    }
  }
  return items;
}

}  // namespace

RunReport Simulator::run(const LinkSpec& spec) const {
  return run_impl(spec, {});
}

RunReport Simulator::run_impl(
    const LinkSpec& spec, const std::vector<core::XtalkPath>& xtalk) const {
  RunReport report;
  report.spec = spec;

  core::LinkConfig cfg = spec.to_link_config();
  cfg.xtalk = xtalk;

  // Link training first: eq "trained" replays a deterministic preamble
  // and rewrites the executed EQ settings (DFE taps, FFE, CTLE) before
  // either engine runs, so stat and MC see the same trained link.  The
  // report's spec keeps the authored values; the converged settings land
  // in report.training.
  if (spec.eq == "trained") {
    const auto train_channel =
        ChannelFactory::instance().create(spec.channel, cfg);
    const std::size_t n_taps =
        spec.dfe_taps.empty() ? 3 : spec.dfe_taps.size();
    core::TrainingResult trained = core::train_equalizer(
        cfg, *train_channel, spec.training_uis, n_taps);
    cfg.dfe_taps = trained.dfe_taps;
    cfg.tx_ffe_deemphasis = trained.tx_ffe_deemphasis;
    cfg.rx_ctle_boost = util::decibels(trained.rx_ctle_boost_db);
    report.training = std::move(trained);
  }

  // Statistical analysis first: it is cheap (no bit stream), and a
  // "stat"-only run returns here without ever building the MC datapath's
  // traffic.  The channel model is the same factory-built instance kind
  // the MC path would run, so both engines see identical physics.
  const bool want_stat = spec.analysis == "stat" || spec.analysis == "both";
  if (want_stat) {
    stat::StatAnalyzer::Options stat_options;
    stat_options.phase_bins_per_ui = Options::stat_phase_bins_per_ui;
    stat_options.target_ber = spec.stat_target_ber;
    stat_options.contours = options_.stat_contours;
    const stat::StatAnalyzer analyzer(stat_options);
    const auto channel = ChannelFactory::instance().create(spec.channel, cfg);
    report.stat = analyzer.analyze(cfg, *channel);
    if (spec.analysis == "stat") return report;
  }
  capture_diagnostics(spec, cfg);
  core::SerDesLink link(cfg,
                        ChannelFactory::instance().create(spec.channel, cfg));

  // The observer sees the first chunk alone, before any other starts,
  // takes what the report keeps of it and turns capture off for the bulk
  // chunks.  It drops the chunk's waveforms before the bulk starts:
  // holding the slicer capture (512 KiB at the defaults) through the
  // fan-out made a cold 300000-bit run about 8% slower, since glibc raises
  // its mmap threshold only when such a block is freed.
  const core::BerMeasurement m = core::measure_ber(
      link, spec.payload_bits, spec.chunk_bits, Options::confidence_level,
      spec.prbs_order, [&](core::LinkResult& first) {
        core::LaneOutcome outcome;
        outcome.take_first_chunk(first);
        set_first_chunk(report, cfg, outcome);
        link.set_capture_waveforms(false);
      });
  set_ber(report, m);

  if (want_stat) {
    // "both": the MC measurement must land inside the stat engine's
    // predicted BER band — the two engines regression-test each other.
    stat::StatAnalyzer::cross_check(*report.stat, report.bits, report.errors,
                                    spec.cdr_oversampling,
                                    spec.cdr_glitch_filter_radius,
                                    Options::stat_cross_check_slack);
  }
  return report;
}

std::vector<RunReport> Simulator::run_lane_tile(
    const std::vector<LinkSpec>& lane_specs) const {
  std::vector<RunReport> reports(lane_specs.size());
  if (lane_specs.empty()) return reports;
  const LinkSpec& base = lane_specs[0];
  const std::string key = tile_key(base);
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    const LinkSpec& spec = lane_specs[i];
    const std::string lane =
        "run_lane_tile lane " + std::to_string(i) + " ('" + spec.name + "'): ";
    if (auto err = spec.validate(); !err.empty()) {
      throw std::invalid_argument(lane + err);
    }
    if (!tile_eligible(spec)) {
      throw std::invalid_argument(
          lane + "lane tiles run NRZ \"mc\" scenarios with fixed EQ and "
                 "lane_batch > 1");
    }
    if (tile_key(spec) != key) {
      throw std::invalid_argument(
          lane + "lane specs must be identical up to name and seed");
    }
  }

  core::LinkConfig cfg = base.to_link_config();
  capture_diagnostics(base, cfg);  // tile_key keeps capture_waveforms
  std::vector<std::uint64_t> seeds(lane_specs.size());
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    seeds[i] = lane_specs[i].seed;
  }
  core::LaneLink link(cfg,
                      ChannelFactory::instance().create(base.channel, cfg),
                      std::move(seeds));
  std::vector<core::LaneOutcome> outcomes =
      link.measure(base.payload_bits, base.chunk_bits,
                   Options::confidence_level, base.prbs_order);
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    reports[i].spec = lane_specs[i];
    set_first_chunk(reports[i], cfg, outcomes[i]);
    set_ber(reports[i], outcomes[i].measurement);
  }
  return reports;
}

void Simulator::run_each(
    std::size_t count, const std::function<LinkSpec(std::size_t)>& spec_at,
    int n_threads,
    const std::function<void(std::size_t, RunReport&)>& done) const {
  const std::vector<WorkItem> items = plan_work(count, spec_at);
  util::parallel_for(items.size(), n_threads, [&](std::size_t idx) {
    const WorkItem& item = items[idx];
    std::vector<LinkSpec> lane_specs;
    lane_specs.reserve(item.specs.size());
    for (const std::size_t i : item.specs) lane_specs.push_back(spec_at(i));
    std::vector<RunReport> out =
        item.tile ? run_lane_tile(lane_specs)
                  : std::vector<RunReport>{run(lane_specs[0])};
    for (std::size_t j = 0; j < item.specs.size(); ++j) {
      done(item.specs[j], out[j]);
    }
  });
}

std::vector<RunReport> Simulator::run_batch(const std::vector<LinkSpec>& specs,
                                            int n_threads) const {
  // Fail fast, before any lane burns cycles.  Constructing each lane's
  // channel up front also catches unknown kinds nested inside composite
  // stages (channel construction is cheap next to running a lane).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (auto err = specs[i].validate(); !err.empty()) {
      throw std::invalid_argument("run_batch lane " + std::to_string(i) +
                                  " ('" + specs[i].name + "'): " + err);
    }
    try {
      (void)ChannelFactory::instance().create(specs[i].channel,
                                              specs[i].to_link_config());
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("run_batch lane " + std::to_string(i) +
                                  " ('" + specs[i].name + "'): " + e.what());
    }
  }

  // Every lane's seed derivation and report index use its original batch
  // position, so the output is bit-identical whatever the tiling and the
  // thread count.
  std::vector<RunReport> reports(specs.size());
  run_each(
      specs.size(),
      [&](std::size_t i) {
        LinkSpec lane_spec = specs[i];
        if (options_.derive_lane_seeds) {
          lane_spec.seed = derive_lane_seed(lane_spec.seed, i);
        }
        return lane_spec;
      },
      n_threads,
      [&](std::size_t i, RunReport& report) {
        reports[i] = std::move(report);
      });
  return reports;
}

namespace {

/// Crosstalk paths seen by victim lane `v`: for every aggressor lane
/// a != v, a FEXT path (through the victim's channel) from `coupling` and
/// a NEXT path (direct) from `next_coupling`, zero gains dropped.  The
/// aggressor's stream is the shared framed PRBS pattern delayed by the
/// lane distance |v - a| UIs — a deterministic skew that decorrelates
/// aggressor symbols from the victim's without extra pattern state.
std::vector<core::XtalkPath> xtalk_for_lane(const BusSpec& spec,
                                            std::size_t v) {
  std::vector<core::XtalkPath> paths;
  const auto n = static_cast<std::size_t>(spec.lanes);
  for (std::size_t a = 0; a < n; ++a) {
    if (a == v) continue;  // self-coupling is a lint finding, never run
    const int delay = static_cast<int>(v > a ? v - a : a - v);
    if (!spec.coupling.empty() && spec.coupling[v][a] != 0.0) {
      core::XtalkPath p;
      p.gain = spec.coupling[v][a];
      p.through_channel = true;
      p.delay_ui = delay;
      paths.push_back(p);
    }
    if (!spec.next_coupling.empty() && spec.next_coupling[v][a] != 0.0) {
      core::XtalkPath p;
      p.gain = spec.next_coupling[v][a];
      p.through_channel = false;
      p.delay_ui = delay;
      paths.push_back(p);
    }
  }
  return paths;
}

}  // namespace

BusReport Simulator::run_bus(const BusSpec& spec, int n_threads) const {
  spec.validate_or_throw();
  const std::vector<LinkSpec> lanes = spec.expand();

  BusReport report;
  report.name = spec.name;
  report.coupling = spec.coupling;
  report.next_coupling = spec.next_coupling;

  if (!spec.has_coupling()) {
    // No crosstalk: the bus IS N independent lanes — take the batched
    // path (tiling and all) so reports are byte-identical to run_batch.
    report.lanes = run_batch(lanes, n_threads);
    return report;
  }

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    (void)ChannelFactory::instance().create(lanes[i].channel,
                                            lanes[i].to_link_config());
  }

  report.lanes.resize(lanes.size());
  util::parallel_for(lanes.size(), n_threads, [&](std::size_t i) {
    LinkSpec lane_spec = lanes[i];
    if (options_.derive_lane_seeds) {
      lane_spec.seed = derive_lane_seed(lane_spec.seed, i);
    }
    report.lanes[i] = run_impl(lane_spec, xtalk_for_lane(spec, i));
  });
  return report;
}

}  // namespace serdes::api
