// Closed-loop equalizer design: coordinate descent over a link's EQ knobs
// with the statistical engine as the objective oracle.
//
// Monte Carlo cannot drive an optimizer at the paper's 1e-15 budget — a
// single candidate evaluation would need trillions of bits.  The stat
// engine computes the same link's bathtub in milliseconds and is exactly
// deterministic, so it serves as the inner-loop oracle: the optimizer
// walks the TX FFE de-emphasis, the RX CTLE boost and the DFE taps by
// halving coordinate steps, keeping a candidate only when it improves the
// (min_ber, voltage_margin) objective lexicographically.  The winner is
// then validated the expensive way once: a Monte Carlo `"both"` run whose
// measured BER must land inside the stat engine's own prediction band —
// the optimizer's answer ships with its cross-examination attached.
//
// Everything is derived from the spec: the search is deterministic, so
// the same spec always produces the same OptimizeReport, byte for byte
// once serialized (the golden tests pin this).
#pragma once

#include <cstdint>
#include <vector>

#include "api/link_spec.h"

namespace serdes::opt {

struct OptimizeOptions {
  /// BER the design must meet; 0 means use the spec's stat_target_ber.
  double target_ber = 0.0;
  /// Coordinate-descent passes; each pass halves every knob's step.
  int passes = 4;
  /// DFE taps to search (capped by the LinkSpec's 8-tap maximum).
  std::size_t n_dfe_taps = 3;
  /// Payload floor for the winner's Monte Carlo cross-check.
  std::uint64_t cross_check_payload_bits = 65536;
  /// Skip the descent when the authored knobs already meet the target
  /// (the baseline is the winner; the cross-check still runs).
  bool accept_baseline = true;
};

/// Outcome of one optimize() call.  `spec` keeps the authored scenario;
/// the winner fields are the knob values the search settled on.
struct OptimizeReport {
  int schema_version = 1;

  /// The authored scenario (winner evaluations run it with eq "fixed"
  /// and the knobs below substituted).
  api::LinkSpec spec;

  /// BER the search optimized toward.
  double target_ber = 1e-15;

  // ---- Baseline (the authored knobs, before any descent) ----
  double baseline_min_ber = 1.0;
  bool baseline_met = false;

  // ---- Winner ----
  std::vector<double> dfe_taps;
  double tx_ffe_deemphasis = 0.0;
  double rx_ctle_boost_db = 0.0;
  double winner_min_ber = 1.0;
  double winner_voltage_margin_v = 0.0;
  /// Winner meets the target BER at the stat engine's best phase.
  bool met = false;

  // ---- Search accounting ----
  /// Stat-engine evaluations spent (baseline included).
  int evaluations = 0;
  /// Descent passes actually run (0 when the baseline was accepted).
  int passes = 0;

  // ---- Monte Carlo cross-check of the winner ----
  bool cross_checked = false;
  std::uint64_t mc_bits = 0;
  std::uint64_t mc_errors = 0;
  double mc_ber = 0.0;
  /// The MC error count landed inside the stat engine's prediction band
  /// (StatAnalyzer::cross_check) — the oracle and the datapath agree on
  /// the winner.
  bool mc_consistent = false;
};

/// Runs the coordinate-descent search for `spec`.  Throws
/// std::invalid_argument when the spec does not validate or the stat
/// engine cannot linearize it.
[[nodiscard]] OptimizeReport optimize(const api::LinkSpec& spec,
                                      const OptimizeOptions& options = {});

}  // namespace serdes::opt
