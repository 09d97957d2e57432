#include "core/eq_training.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/chain_plan.h"
#include "core/receiver.h"
#include "util/parallel.h"
#include "util/prbs.h"

namespace serdes::core {

namespace {

// Outer coordinate-search passes over the CTLE/FFE knobs; the step sizes
// halve per pass.
constexpr int kPasses = 3;
// Clamp on |tap| as a fraction of the reference amplitude: a feedback tap
// beyond about half the main cursor means the eye is closed faster than
// feedback can reopen it — that residue belongs to the CTLE/FFE.
constexpr double kTapClampFraction = 0.45;
constexpr double kMaxCtleBoostDb = 12.0;
constexpr double kMaxFfeAlpha = 0.4;

/// One training replay: streams `tx` through the crosstalk-free chain to
/// the slicer input and returns its samples.  The NRZ tail needs the
/// whole-stream DC mean first, so it takes the same first pass as a link
/// run, and resumes from it as a link run does; the PAM4 chain ends at the
/// CTLE and needs none.
std::vector<double> replay(const ChainPlan& plan, bool nrz,
                           const channel::Channel& channel, const Launch& tx,
                           std::uint64_t awgn_seed) {
  ChainPlan::PassOptions options;
  options.awgn_seed = awgn_seed;
  ChainPlan::ScalarKept kept;
  if (nrz) {
    options.mean = plan.first_pass(channel, tx, awgn_seed,
                                   ChainPlan::Probes::kNone, 0, &kept)
                       .mean;
  }
  ChainPlan::Pass chain = plan.pass(channel, tx, options, std::move(kept));
  pipe::LevelPulseSource source = plan.source(tx);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(source.total_samples()));
  (void)plan.stream(
      source, chain,
      [&](const pipe::BlockView& v) {
        samples.insert(samples.end(), v.data, v.data + v.size);
      },
      /*capture_tx=*/false);
  return samples;
}

/// Best integer-sample alignment of symbol n against y[n*spu + L]: the lag
/// in [0, 8*spu) maximizing the symbol/sample correlation.  The chain's
/// group delay (driver, channel, filter poles) stays well inside 8 UIs for
/// every supported channel model.
std::size_t align_lag(const std::vector<double>& y,
                      const std::vector<double>& d, int spu) {
  const std::size_t max_lag = static_cast<std::size_t>(8 * spu);
  std::size_t best = 0;
  double best_corr = -std::numeric_limits<double>::infinity();
  for (std::size_t lag = 0; lag < max_lag; ++lag) {
    double corr = 0.0;
    for (std::size_t n = 8; n + 9 < d.size(); ++n) {
      const std::size_t idx = n * static_cast<std::size_t>(spu) + lag;
      if (idx >= y.size()) break;
      corr += d[n] * y[idx];
    }
    if (corr > best_corr) {
      best_corr = corr;
      best = lag;
    }
  }
  return best;
}

struct LmsOutcome {
  std::vector<double> taps;
  double amplitude = 0.0;
  /// Near-worst-case slicer margin (volts): the 5th percentile over the
  /// converged tail of level_separation - |residual|, where the residual
  /// is what remains of each sample after the trained model (amplitude,
  /// DFE-corrected ISI) is subtracted.  The outer coordinate search
  /// maximizes this — it is exactly the quantity slicer errors eat into.
  double margin = 0.0;
};

/// The sign-sign LMS inner loop over one replayed preamble, followed by a
/// margin-scoring sweep of the converged tail.
LmsOutcome run_lms(const std::vector<double>& y, const std::vector<double>& d,
                   int spu, double reference, std::size_t lag,
                   std::vector<double> taps, bool nrz) {
  const std::size_t n_taps = taps.size();
  const std::size_t start = n_taps + 2;
  const std::size_t n_syms = d.size();

  // Robust amplitude init: mean |x| over the first symbols (the model's
  // main cursor dominates even before the taps converge).
  double amp = 0.0;
  std::size_t amp_count = 0;
  for (std::size_t n = start; n < n_syms && amp_count < 256; ++n) {
    const std::size_t idx = n * static_cast<std::size_t>(spu) + lag;
    if (idx >= y.size()) break;
    amp += std::fabs(y[idx] - reference);
    ++amp_count;
  }
  amp = amp_count > 0 ? amp / static_cast<double>(amp_count) : 1e-3;
  amp = std::max(amp, 1e-6);

  // Geometric step decay from 5% to 0.1% of the amplitude across the
  // preamble: early steps move taps quickly, late steps average noise out.
  double mu = 0.05 * amp;
  const double mu_final = 0.001 * amp;
  const double span =
      static_cast<double>(n_syms > start ? n_syms - start : 1);
  const double decay = std::pow(mu_final / mu, 1.0 / span);

  std::vector<double> tap_sum(n_taps, 0.0);
  std::size_t tail_count = 0;
  const std::size_t tail_start = start + (n_syms - start) * 3 / 4;
  const std::size_t half_start = start + (n_syms - start) / 2;

  for (std::size_t n = start; n < n_syms; ++n) {
    const std::size_t idx = n * static_cast<std::size_t>(spu) + lag;
    if (idx >= y.size()) break;
    const double x = y[idx] - reference;
    double pred = amp * d[n];
    for (std::size_t k = 0; k < n_taps; ++k) pred += taps[k] * d[n - 1 - k];
    const double e = x - pred;
    const double s = e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0);
    const double clamp = kTapClampFraction * amp;
    for (std::size_t k = 0; k < n_taps; ++k) {
      taps[k] += mu * s * d[n - 1 - k];
      taps[k] = std::clamp(taps[k], -clamp, clamp);
    }
    amp += 0.5 * mu * s * d[n];
    amp = std::max(amp, 1e-6);
    mu *= decay;
    if (n >= tail_start) {
      for (std::size_t k = 0; k < n_taps; ++k) tap_sum[k] += taps[k];
      ++tail_count;
    }
  }

  LmsOutcome out;
  out.taps.resize(n_taps, 0.0);
  if (tail_count > 0) {
    for (std::size_t k = 0; k < n_taps; ++k) {
      out.taps[k] = tap_sum[k] / static_cast<double>(tail_count);
    }
  }
  out.amplitude = amp;

  // Margin scoring with the converged taps.  NRZ slices against one
  // threshold amp away from each rail; PAM4 levels sit 2*amp/3 apart, so
  // the slicer margin per symbol is amp/3.
  const double separation = nrz ? amp : amp / 3.0;
  std::vector<double> margins;
  margins.reserve(n_syms - half_start);
  for (std::size_t n = half_start; n < n_syms; ++n) {
    const std::size_t idx = n * static_cast<std::size_t>(spu) + lag;
    if (idx >= y.size()) break;
    double pred = amp * d[n];
    for (std::size_t k = 0; k < n_taps; ++k) {
      pred += out.taps[k] * d[n - 1 - k];
    }
    margins.push_back(separation - std::fabs(y[idx] - reference - pred));
  }
  if (margins.empty()) {
    out.margin = 0.0;
  } else {
    std::sort(margins.begin(), margins.end());
    out.margin = margins[margins.size() / 20];  // 5th percentile
  }
  return out;
}

}  // namespace

TrainingResult train_equalizer(const LinkConfig& config,
                               const channel::Channel& channel,
                               int training_uis, std::size_t n_taps) {
  if (training_uis < 64) {
    throw std::invalid_argument(
        "train_equalizer: need at least 64 training UIs");
  }
  const bool nrz = config.modulation == LinkConfig::Modulation::kNrz;
  const int spu = config.samples_per_ui;
  const Receiver rx(config);

  // Known training symbols: the config's PRBS from its seed state.  NRZ
  // maps bits onto +/-1; PAM4 gray-maps bit pairs exactly like the payload
  // TX and trains in the symbol convention {-1, -1/3, +1/3, +1}.
  util::PrbsGenerator prbs(config.prbs_order);
  const auto n_syms = static_cast<std::size_t>(training_uis);
  std::vector<double> symbols(n_syms);
  const std::vector<std::uint8_t> bits =
      prbs.next_bits(nrz ? n_syms : 2 * n_syms);
  for (std::size_t n = 0; n < n_syms; ++n) {
    if (nrz) {
      symbols[n] = bits[n] ? 1.0 : -1.0;
    } else {
      const int symbol =
          ChainPlan::gray_symbol(bits[2 * n] != 0, bits[2 * n + 1] != 0);
      symbols[n] = (2.0 * static_cast<double>(symbol) - 3.0) / 3.0;
    }
  }

  // A candidate (alpha, boost) is evaluated in two parts.  Its replay
  // streams the chain, measures the reference and aligns the symbols; it
  // depends on nothing but the candidate, so replays run concurrently and
  // are reused.  Training then adapts the DFE taps by sign-sign LMS
  // (warm-started from the current taps) and scores the margin.  Every
  // candidate replays against the same AWGN stream (the training seed,
  // disjoint from the payload, jitter and sampler streams), so margin
  // comparisons are paired, never noise-vs-noise.  The replay is
  // crosstalk-free: training sees the victim's own channel only.
  struct Replay {
    std::vector<double> y;
    double reference = 0.0;
    std::size_t lag = 0;
  };
  const std::uint64_t train_seed = ChainPlan::training_seed(config.noise_seed);
  const auto replay_at = [&](double alpha, double boost_db) {
    LinkConfig candidate = config;
    candidate.xtalk.clear();
    candidate.tx_ffe_deemphasis = alpha;
    candidate.rx_ctle_boost = util::decibels(boost_db);
    const ChainPlan plan(candidate, rx);
    const Launch tx =
        nrz ? plan.nrz_launch(bits) : plan.pam4_launch(bits, /*preamble=*/0);
    Replay r;
    r.y = replay(plan, nrz, channel, tx, train_seed);
    // Reference the symbol deviation is measured against: the sampler
    // threshold in the restored NRZ domain; the stream mean in the PAM4
    // CTLE domain (the slicer calibration midpoint converges to it).
    r.reference = rx.decision_threshold();
    if (!nrz) {
      double sum = 0.0;
      for (const double v : r.y) sum += v;
      r.reference =
          r.y.empty() ? 0.0 : sum / static_cast<double>(r.y.size());
    }
    r.lag = align_lag(r.y, symbols, spu);
    return r;
  };
  const auto train = [&](const Replay& r, const std::vector<double>& warm) {
    return run_lms(r.y, symbols, spu, r.reference, r.lag, warm, nrz);
  };

  double alpha = nrz ? config.tx_ffe_deemphasis : 0.0;
  double boost_db = config.rx_ctle_boost.value();
  std::vector<double> taps = config.dfe_taps;
  taps.resize(n_taps, 0.0);

  // Outer coordinate search: the DFE taps adapt by LMS inside every
  // evaluation; the CTLE boost and (NRZ) FFE alpha walk by halving steps,
  // keeping a candidate only when it improves the trained margin.  The
  // chain's restoring nonlinearity rails away small-signal gradients, so
  // a measured-margin comparison is the robust adaptation signal here —
  // the step direction is still decided by the sign of a preamble-averaged
  // error statistic, in the sign-sign spirit.  `current` is the replay at
  // the current (alpha, boost).
  Replay current = replay_at(alpha, boost_db);
  LmsOutcome best = train(current, taps);
  taps = best.taps;
  // One coordinate step: `knob` +/- `step`, clamped to [0, max].  A
  // candidate equal to the knob is skipped; the rest train from the current
  // taps, in order, and are kept when they improve the margin.  A clamped
  // candidate equal to the knob's starting value still trains once the
  // other candidate has moved the knob off it; its replay is `current`.
  // Every other candidate is a new replay, and those run concurrently.
  const auto coordinate_step = [&](double& knob, double step, double max,
                                   const auto& replay_with) {
    const double start = knob;
    const double cands[2] = {std::clamp(knob + step, 0.0, max),
                             std::clamp(knob - step, 0.0, max)};
    Replay replays[2];
    util::parallel_for(2, 0, [&](std::size_t i) {
      if (cands[i] != start) replays[i] = replay_with(cands[i]);
    });
    for (std::size_t i = 0; i < 2; ++i) {
      const double c = cands[i];
      if (c == knob) continue;
      const LmsOutcome out = train(c == start ? current : replays[i], taps);
      if (out.margin > best.margin) {
        best = out;
        knob = c;
        taps = out.taps;
      }
    }
    if (knob != start) current = std::move(replays[knob == cands[0] ? 0 : 1]);
  };
  for (int pass = 0; pass < kPasses; ++pass) {
    coordinate_step(boost_db, 2.0 * std::pow(0.5, pass), kMaxCtleBoostDb,
                    [&](double c) { return replay_at(alpha, c); });
    if (nrz) {
      coordinate_step(alpha, 0.1 * std::pow(0.5, pass), kMaxFfeAlpha,
                      [&](double c) { return replay_at(c, boost_db); });
    }
  }

  TrainingResult result;
  result.dfe_taps = taps;
  result.tx_ffe_deemphasis = alpha;
  result.rx_ctle_boost_db = boost_db;
  result.amplitude = best.amplitude;
  result.training_uis = training_uis;
  result.passes = kPasses;
  return result;
}

}  // namespace serdes::core
