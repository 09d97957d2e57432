#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/simulator.h"

namespace serdes::opt {

namespace {

// Search box per knob — inside the LinkSpec validation ranges with room
// to spare, wide enough to cover every operating point the paper sweeps.
constexpr double kMaxBoostDb = 12.0;
constexpr double kBoostStep0 = 3.0;
constexpr double kMaxFfeAlpha = 0.45;
constexpr double kFfeStep0 = 0.1;
constexpr double kMaxDfeTap = 0.3;
constexpr double kDfeStep0 = 0.06;

/// Candidate knob vector the descent walks.
struct Knobs {
  double boost_db = 0.0;
  double alpha = 0.0;
  std::vector<double> taps;
};

/// Lexicographic objective: primarily the bathtub minimum, then the
/// voltage margin as the tie-breaker — deep-BER bathtubs flush to 0, so
/// without the margin term every deeply-open candidate would tie and the
/// search would stall at the first one it met.
struct Score {
  double min_ber = 1.0;
  double margin = 0.0;
};

bool better(const Score& a, const Score& b) {
  if (a.min_ber != b.min_ber) return a.min_ber < b.min_ber;
  return a.margin > b.margin;
}

}  // namespace

OptimizeReport optimize(const api::LinkSpec& authored,
                        const OptimizeOptions& options) {
  if (options.passes < 1 || options.passes > 16) {
    throw std::invalid_argument("optimize: passes must be in [1, 16]");
  }
  authored.validate_or_throw();

  OptimizeReport report;
  report.spec = authored;
  report.target_ber =
      options.target_ber > 0.0 ? options.target_ber : authored.stat_target_ber;
  if (!(report.target_ber > 0.0) || report.target_ber >= 0.5) {
    throw std::invalid_argument("optimize: target_ber must be in (0, 0.5)");
  }

  // The TX FFE axis is NRZ-only.
  const bool nrz = authored.modulation == "nrz";
  const std::size_t n_taps = std::min<std::size_t>(options.n_dfe_taps, 8);

  // Scores read min_ber and voltage_margin_v, and the winner's "both" run
  // reads only the cross-check verdict: none needs the per-phase contours.
  api::Simulator::Options simulator_options;
  simulator_options.stat_contours = false;
  const api::Simulator simulator(simulator_options);
  const auto evaluate = [&](const Knobs& k) {
    api::LinkSpec s = authored;
    s.eq = "fixed";  // the optimizer owns the knobs; no inner training
    s.analysis = "stat";
    s.rx_ctle_boost_db = k.boost_db;
    s.tx_ffe_deemphasis = k.alpha;
    s.dfe_taps = k.taps;
    const api::RunReport r = simulator.run(s);
    ++report.evaluations;
    return Score{r.stat->min_ber, r.stat->voltage_margin_v};
  };

  Knobs knobs;
  knobs.boost_db = std::clamp(authored.rx_ctle_boost_db, 0.0, kMaxBoostDb);
  knobs.alpha =
      nrz ? std::clamp(authored.tx_ffe_deemphasis, 0.0, kMaxFfeAlpha) : 0.0;
  knobs.taps = authored.dfe_taps;
  knobs.taps.resize(n_taps, 0.0);
  for (double& t : knobs.taps) t = std::clamp(t, -kMaxDfeTap, kMaxDfeTap);

  Score best = evaluate(knobs);
  report.baseline_min_ber = best.min_ber;
  report.baseline_met = best.min_ber <= report.target_ber;

  if (!(options.accept_baseline && report.baseline_met)) {
    // Coordinate descent, steps halving per pass.  Each knob tries one
    // step either way and keeps the move only when the oracle improves —
    // greedy, deterministic, and cheap enough (a stat evaluation is
    // milliseconds) that the simple search beats anything clever here.
    for (int pass = 0; pass < options.passes; ++pass) {
      const double scale = std::pow(0.5, pass);
      const auto descend = [&](double* knob, double step, double lo,
                               double hi) {
        for (const double cand : {*knob + step, *knob - step}) {
          const double c = std::clamp(cand, lo, hi);
          if (c == *knob) continue;
          const double prev = *knob;
          *knob = c;
          const Score s = evaluate(knobs);
          if (better(s, best)) {
            best = s;
          } else {
            *knob = prev;
          }
        }
      };
      descend(&knobs.boost_db, kBoostStep0 * scale, 0.0, kMaxBoostDb);
      if (nrz) {
        descend(&knobs.alpha, kFfeStep0 * scale, 0.0, kMaxFfeAlpha);
      }
      for (double& tap : knobs.taps) {
        descend(&tap, kDfeStep0 * scale, -kMaxDfeTap, kMaxDfeTap);
      }
      ++report.passes;
    }
  }

  report.dfe_taps = knobs.taps;
  report.tx_ffe_deemphasis = knobs.alpha;
  report.rx_ctle_boost_db = knobs.boost_db;
  report.winner_min_ber = best.min_ber;
  report.winner_voltage_margin_v = best.margin;
  report.met = best.min_ber <= report.target_ber;

  // ---- Winner validation: one Monte Carlo "both" run ---------------------
  // The oracle designed the link; the datapath gets the last word.  The
  // measured error count must land inside the stat engine's own prediction
  // band for the winner (StatAnalyzer::cross_check via analysis "both").
  {
    api::LinkSpec s = authored;
    s.eq = "fixed";
    s.analysis = "both";
    s.rx_ctle_boost_db = knobs.boost_db;
    s.tx_ffe_deemphasis = knobs.alpha;
    s.dfe_taps = knobs.taps;
    s.payload_bits =
        std::max(authored.payload_bits, options.cross_check_payload_bits);
    // An all-zero tap vector is byte-identical to no DFE in the datapath;
    // dropping it reports such a winner without a DFE.
    if (std::all_of(s.dfe_taps.begin(), s.dfe_taps.end(),
                    [](double t) { return t == 0.0; })) {
      s.dfe_taps.clear();
    }
    const api::RunReport r = simulator.run(s);
    report.cross_checked = true;
    report.mc_bits = r.bits;
    report.mc_errors = r.errors;
    report.mc_ber = r.ber;
    report.mc_consistent = r.stat.has_value() && r.stat->consistent;
  }
  return report;
}

}  // namespace serdes::opt
