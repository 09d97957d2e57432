// Simulator façade: turns declarative LinkSpecs into structured reports.
//
// `run(spec)` executes one link scenario — chunked PRBS traffic with
// fresh per-chunk noise, exactly like core::measure_ber — and returns a
// RunReport with BER statistics (with the confidence-bound treatment),
// CDR lock diagnostics and eye metrics.  `run_batch(specs, n_threads)`
// fans independent lanes out across worker threads; each lane derives a
// deterministic seed from its base seed and lane index (splitmix64), so
// results are bit-identical whatever the thread count.
//
// Threads: a top-level `run` fans out inside the engines — the stat
// engine's 64 sampling phases, each training step's two candidate replays
// and the Monte Carlo chunks after the first (core::measure_chunks, in
// windows of at most 2^18 lane-bits, for a scalar run and a lane tile
// alike) go over util::parallel_for at the hardware concurrency.  Under
// `run_batch`, `run_bus` and sweep::SweepRunner every lane, tile or
// scenario is a parallel_for task, so those inner fan-outs run inline on
// its thread: a batch asked for N threads uses N, and a 1-thread sweep
// stays serial.  Reports are byte-identical either way.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analog/waveform.h"
#include "api/link_spec.h"
#include "core/eq_training.h"
#include "core/eye.h"
#include "stat/stat_report.h"

namespace serdes::api {

struct BusSpec;    // api/bus_spec.h
struct BusReport;  // api/bus_spec.h

/// Structured outcome of one lane.
struct RunReport {
  /// Report schema version.  Version 2 added `schema_version` itself plus
  /// the bus/PAM4 sections (BusReport, StatReport per-eye margins); a
  /// report parsed from JSON without the key reads back as version 1.
  /// Version 3 added the DFE / link-training surface: LinkSpec `dfe_taps`
  /// / `eq` / `training_uis`, the `training` section below, and the
  /// StatReport DFE model fields.
  int schema_version = 3;

  /// The spec that produced this report (seed shows the derived per-lane
  /// value when the report came from run_batch).
  LinkSpec spec;

  // ---- BER ----
  bool aligned = false;
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
  double ber = 0.0;
  /// Upper bound on the true BER at `confidence_level`.
  double ber_upper_bound = 1.0;
  double confidence_level = 0.95;

  // ---- Lock / front-end diagnostics (from the first chunk) ----
  int cdr_decision_phase = 0;
  std::uint64_t cdr_phase_updates = 0;
  double rx_swing_pp = 0.0;
  double decision_threshold = 0.0;

  // ---- Eye metrics on the restored waveform (first chunk) ----
  core::EyeMetrics eye{};

  // ---- Statistical analysis (when spec.analysis is "stat" or "both") ----
  /// Analytical bathtub / contour / margin surfaces; for "both" runs the
  /// cross-check fields record whether the MC BER above landed inside the
  /// engine's predicted band.  For "stat" runs the MC fields stay zeroed.
  std::optional<stat::StatReport> stat;

  // ---- Link training (when spec.eq is "trained") ----
  /// Converged equalizer settings the run actually executed with.  The
  /// spec above keeps the authored (pre-training) values.
  std::optional<core::TrainingResult> training;

  // ---- Waveforms (only when spec.capture_waveforms) ----
  analog::Waveform tx_out;
  analog::Waveform channel_out;
  analog::Waveform restored;

  [[nodiscard]] bool error_free() const {
    return aligned && errors == 0 && bits > 0;
  }
  [[nodiscard]] const std::string& name() const { return spec.name; }
};

class Simulator {
 public:
  struct Options {
    /// Confidence level for the BER upper bound.
    static constexpr double confidence_level = 0.95;
    /// Eye-folding resolution (bins per unit interval).
    static constexpr int eye_bins_per_ui = 64;
    /// Diagnostics (lock, eye metrics, report waveforms) come from the
    /// first `diagnostic_window_uis` unit intervals of the first chunk, so
    /// per-lane capture memory stays bounded however deep the chunk is.
    static constexpr std::uint64_t diagnostic_window_uis = 4096;
    /// Sampling-phase resolution of the stat engine's bathtub/contours.
    static constexpr int stat_phase_bins_per_ui = 64;
    /// `"both"`-mode model slack: the MC BER must fall within
    /// [band_low / slack, band_high * slack], Poisson-widened (see
    /// stat::StatAnalyzer::cross_check).
    static constexpr double stat_cross_check_slack = 4.0;

    /// When true (default), run_batch gives lane i the seed
    /// derive_lane_seed(spec.seed, i) so lanes with the same base seed see
    /// uncorrelated noise.  Turn off for paired comparisons (ablations)
    /// where every lane must face the identical noise realization.
    bool derive_lane_seeds = true;
    /// When false, the stat engine bisects only the best phase's eye
    /// contour (stat::StatAnalyzer::Options::contours): every margin is
    /// bit-identical, but `contour_high_v` / `contour_low_v` come back
    /// empty, so such reports are not for serialization.  For callers that
    /// read only the margins (sweep rows, optimizer scores).
    bool stat_contours = true;
  };

  Simulator() = default;
  explicit Simulator(Options options) : options_(options) {}

  /// Runs one scenario.  Throws std::invalid_argument on an invalid spec
  /// or unknown channel kind.
  [[nodiscard]] RunReport run(const LinkSpec& spec) const;

  /// Runs every lane of a sweep, `n_threads` lanes in flight at a time
  /// (n_threads <= 0 picks the hardware concurrency).  All specs are
  /// validated before any lane starts.  Lane i runs with seed
  /// derive_lane_seed(specs[i].seed, i) (or its own seed unchanged when
  /// Options::derive_lane_seeds is off); reports come back in spec order
  /// and are bit-identical for any thread count.
  [[nodiscard]] std::vector<RunReport> run_batch(
      const std::vector<LinkSpec>& specs, int n_threads = 0) const;

  /// Runs one lane tile: every spec must be tile_eligible and describe the
  /// same physics (identical up to name and seed); any other spec is
  /// rejected with std::invalid_argument naming its lane before any lane
  /// runs.  Seeds are used exactly as given (no per-lane derivation —
  /// run_batch derives before grouping).  Lane i's report is bit-identical
  /// to run(lane_specs[i]).
  [[nodiscard]] std::vector<RunReport> run_lane_tile(
      const std::vector<LinkSpec>& lane_specs) const;

  /// The dispatch behind run_batch and sweep::SweepRunner: runs specs
  /// 0..count-1 (`spec_at(i)` builds spec i, so callers need not hold them
  /// all), `n_threads` work items at a time.  Tile-eligible specs are
  /// grouped by tile_key in first-seen order and cut into lane tiles of at
  /// most lane_batch lanes; every other spec is one scalar run.  Spec i's
  /// report goes to `done(i, report)` on the worker that ran it.  The
  /// plan is deterministic, so reports never depend on the scheduling.
  void run_each(std::size_t count,
                const std::function<LinkSpec(std::size_t)>& spec_at,
                int n_threads,
                const std::function<void(std::size_t, RunReport&)>& done) const;

  /// Runs an N-lane bus (see api/bus_spec.h).  A zero-coupling bus routes
  /// through run_batch — per-lane reports byte-identical to standalone
  /// runs, lane tiling included.  Nonzero coupling takes the scalar
  /// crosstalk path: each victim lane's stream gains the configured
  /// FEXT/NEXT aggressor injections (MC) and bounded-interference ISI
  /// terms (stat), with seeds derived exactly as run_batch derives them,
  /// so toggling coupling never reshuffles lane noise.
  [[nodiscard]] BusReport run_bus(const BusSpec& spec,
                                  int n_threads = 0) const;

  /// Deterministic per-lane seed: one splitmix64 step over
  /// base ^ (0x9e3779b97f4a7c15 * (lane + 1)).
  [[nodiscard]] static std::uint64_t derive_lane_seed(std::uint64_t base_seed,
                                                      std::size_t lane);

  /// True when `spec` can execute on the lane-tiled path: lane_batch > 1
  /// on an NRZ "mc" scenario with fixed EQ (the stat engine has no bit
  /// stream to batch).
  [[nodiscard]] static bool tile_eligible(const LinkSpec& spec);
  /// Lane-tiling group key: the spec JSON with the per-lane degrees of
  /// freedom (name, seed) neutralized.  Equal keys mean identical
  /// physics, so one lane tile serves every such spec.
  [[nodiscard]] static std::string tile_key(const LinkSpec& spec);

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  /// run() with crosstalk paths injected into the lowered LinkConfig —
  /// the per-victim-lane primitive behind run_bus (both the MC datapath
  /// and the stat engine read LinkConfig::xtalk).
  [[nodiscard]] RunReport run_impl(
      const LinkSpec& spec, const std::vector<core::XtalkPath>& xtalk) const;

  Options options_{};
};

}  // namespace serdes::api
