#include "stat/stat_engine.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analog/filters.h"
#include "core/chain_plan.h"
#include "core/receiver.h"
#include "pipe/stage.h"
#include "pipe/stages.h"
#include "util/math.h"
#include "util/parallel.h"

namespace serdes::stat {

// ---------------------------------------------------------------------------
// IsiMixture
// ---------------------------------------------------------------------------

IsiMixture IsiMixture::build(const std::vector<double>& cursors,
                             const Options& options) {
  std::vector<double> half;  // per-cursor +/- amplitudes
  half.reserve(cursors.size());
  for (const double c : cursors) {
    if (c != 0.0) half.push_back(0.5 * std::fabs(c));
  }

  IsiMixture mix;
  const int n = static_cast<int>(half.size());
  if (n <= options.max_exact_bits) {
    // Exact enumeration: 2^n equiprobable sums.  v - c and v + c are both
    // sorted when v is, so merging them keeps the list sorted.
    mix.exact_ = true;
    const std::size_t count = std::size_t{1} << n;
    mix.value_.reserve(count);
    mix.value_.assign(1, 0.0);
    std::vector<double> next;
    next.reserve(count);
    for (const double c : half) {
      const std::vector<double>& v = mix.value_;
      const std::size_t m = v.size();
      next.resize(2 * m);
      // v[j] + c >= v[j] - c, so j never passes i: the minus run ends first.
      std::size_t i = 0;
      std::size_t j = 0;
      std::size_t o = 0;
      while (i < m) {
        const double minus = v[i] - c;
        const double plus = v[j] + c;
        if (plus < minus) {
          next[o++] = plus;
          ++j;
        } else {
          next[o++] = minus;
          ++i;
        }
      }
      while (j < m) next[o++] = v[j++] + c;
      mix.value_.swap(next);
    }
    const double p = 1.0 / static_cast<double>(mix.value_.size());
    mix.prob_.assign(mix.value_.size(), p);
  } else {
    // Grid convolution: iterative two-point shifts with linear splitting of
    // fractional bin offsets — O(cursors x bins).  The grid carries slack
    // of one bin per cursor so split mass never falls off the edge.
    mix.exact_ = false;
    double reach = 0.0;
    for (const double c : half) reach += c;
    const int bins = std::max(options.grid_bins, 2 * n + 41) | 1;
    const double step =
        2.0 * reach / static_cast<double>(bins - 1 - 2 * (n + 2));
    const int center = bins / 2;
    const auto size = static_cast<std::ptrdiff_t>(bins);
    std::vector<double> pdf(static_cast<std::size_t>(bins), 0.0);
    std::vector<double> scratch(pdf.size(), 0.0);
    pdf[static_cast<std::size_t>(center)] = 1.0;
    // Every bin outside [first, last] holds +0.0, in both buffers.
    std::ptrdiff_t first = center;
    std::ptrdiff_t last = center;
    for (const double c : half) {
      const double s = c / step;
      const auto lo = static_cast<std::ptrdiff_t>(std::floor(s));
      const double frac = s - static_cast<double>(lo);
      const double keep = 1.0 - frac;
      const double* in = pdf.data();
      double* out = scratch.data();
      const auto at = [&](std::ptrdiff_t i) -> double {
        return i >= 0 && i < size ? in[i] : 0.0;
      };
      const auto edge = [&](std::ptrdiff_t i) {
        const double plus = keep * at(i - lo) + frac * at(i - lo - 1);
        const double minus = keep * at(i + lo) + frac * at(i + lo + 1);
        out[i] = 0.5 * (plus + minus);
      };
      // Bin i reads bins i - lo - 1 .. i + lo + 1, so the mass spreads by
      // lo + 1 each way; the bins beyond stay +0.0.  The interior, bins
      // lo + 1 .. size - 2 - lo, reads in bounds; it may be empty.
      first = std::max<std::ptrdiff_t>(0, first - lo - 1);
      last = std::min(size - 1, last + lo + 1);
      const std::ptrdiff_t inner_first = std::clamp(lo + 1, first, last + 1);
      const std::ptrdiff_t inner_last =
          std::clamp(size - 2 - lo, inner_first - 1, last);
      for (std::ptrdiff_t i = first; i < inner_first; ++i) edge(i);
      for (std::ptrdiff_t i = inner_first; i <= inner_last; ++i) {
        const double plus = keep * in[i - lo] + frac * in[i - lo - 1];
        const double minus = keep * in[i + lo] + frac * in[i + lo + 1];
        out[i] = 0.5 * (plus + minus);
      }
      for (std::ptrdiff_t i = inner_last + 1; i <= last; ++i) edge(i);
      pdf.swap(scratch);
    }
    mix.value_.reserve(static_cast<std::size_t>(last - first + 1));
    mix.prob_.reserve(static_cast<std::size_t>(last - first + 1));
    for (std::ptrdiff_t i = first; i <= last; ++i) {
      const double p = pdf[static_cast<std::size_t>(i)];
      if (p <= 0.0) continue;
      mix.value_.push_back(static_cast<double>(i - center) * step);
      mix.prob_.push_back(p);
    }
    if (mix.value_.empty()) {
      mix.value_.assign(1, 0.0);
      mix.prob_.assign(1, 1.0);
    }
  }

  // Normalize and build the inclusive prefix sums the tail windows use.
  double total = 0.0;
  for (const double p : mix.prob_) total += p;
  mix.cum_.resize(mix.prob_.size());
  double run = 0.0;
  for (std::size_t i = 0; i < mix.prob_.size(); ++i) {
    mix.prob_[i] /= total;
    run += mix.prob_[i];
    mix.cum_[i] = run;
    mix.prob_max_ = std::max(mix.prob_max_, mix.prob_[i]);
  }
  return mix;
}

namespace {

/// Gaussian tails narrower than this many sigma are numerically zero
/// (Q(39) ~ 1e-333), so mixture terms outside the window contribute
/// exactly 0 or their full mass.
constexpr double kTailWindowSigmas = 39.0;

/// Targets below this go straight to the full sum.  Underflow in `rest`
/// and `err` (below) is absolute, not relative; above this p it stays far
/// below p's last bit.
constexpr double kMinDecidedP = 0x1p-900;

/// Which side of p a tail lies on, from its leading terms: +1 above, -1
/// below, 0 when the window runs out first.  The tail function returns
/// clamp(S, 0, 1), with S the rounded sum, in index order, of a base b and
/// m window terms t_i = prob_i * Q_i >= 0; for p in (0, 1) the clamp never
/// moves S across p.  `term(k)` gives the k-th (prob, Q) pair of a walk
/// that visits the same terms, by the same expressions, largest Q first.
/// After k visited terms:
///   est  = the rounded running sum b + t_(1) + ... + t_(k),
///   mag  = |b| + t_(1) + ... + t_(k),
///   rest = 2 * (m - k) * prob_max * Q_(k).
/// Q does not grow along the walk, so every unvisited term is at most
/// prob_max * Q_(k); the factor 2 absorbs erfc's ulp-level
/// non-monotonicity, so rest bounds the unvisited sum R.  With u = 2^-53
/// and g_m = m u / (1 - m u), recursive summation bounds the rounding of S
/// by g_m (mag + R) and that of est by g_k mag, so
///   est - e <= S <= est + rest + e,  e <= 2 g_m (mag + rest).
/// err = rho (mag + rest) with rho = 4 (m + 4) u exceeds e by more than the
/// rounding of err, mag and the two comparisons, so each verdict is the one
/// S itself gives.
template <class Term>
int tail_side(double base, std::size_t m, double prob_max, double p,
              Term&& term) {
  const double rho = 4.0 * static_cast<double>(m + 4) * 0x1p-53;
  double est = base;
  double mag = std::fabs(base);
  for (std::size_t k = 0; k < m; ++k) {
    const auto [prob, q] = term(k);
    const double t = prob * q;
    est += t;
    mag += t;
    const double rest = 2.0 * static_cast<double>(m - 1 - k) * (prob_max * q);
    const double err = rho * (mag + rest);
    if (est - err > p) return 1;
    if (est + rest + err < p) return -1;
  }
  return 0;
}

bool decidable(double sigma, double p) {
  return sigma > 0.0 && p >= kMinDecidedP && p < 1.0;
}

}  // namespace

std::pair<std::size_t, std::size_t> IsiMixture::window(double x,
                                                       double sigma) const {
  const double w = kTailWindowSigmas * sigma;
  const auto lo = std::lower_bound(value_.begin(), value_.end(), x - w);
  const auto hi = std::upper_bound(lo, value_.end(), x + w);
  return {static_cast<std::size_t>(lo - value_.begin()),
          static_cast<std::size_t>(hi - value_.begin())};
}

double IsiMixture::upper_tail(double x, double sigma) const {
  if (value_.empty()) return 0.0;
  if (sigma <= 0.0) {
    // Strict mass above x.
    const auto it = std::upper_bound(value_.begin(), value_.end(), x);
    const auto idx = static_cast<std::size_t>(it - value_.begin());
    return idx == 0 ? 1.0 : 1.0 - cum_[idx - 1];
  }
  const auto [lo, hi] = window(x, sigma);
  // Values above the window contribute their full mass (Q ~ 1).
  double sum = hi == 0 ? 1.0 : 1.0 - cum_[hi - 1];
  for (std::size_t i = lo; i < hi; ++i) {
    sum += prob_[i] * util::q_function((x - value_[i]) / sigma);
  }
  // The prefix sums carry ~1e-16 of rounding; a tail is a probability.
  return std::clamp(sum, 0.0, 1.0);
}

double IsiMixture::lower_tail(double x, double sigma) const {
  if (value_.empty()) return 0.0;
  if (sigma <= 0.0) {
    const auto it = std::lower_bound(value_.begin(), value_.end(), x);
    const auto idx = static_cast<std::size_t>(it - value_.begin());
    return idx == 0 ? 0.0 : cum_[idx - 1];
  }
  const auto [lo, hi] = window(x, sigma);
  double sum = lo == 0 ? 0.0 : cum_[lo - 1];
  for (std::size_t i = lo; i < hi; ++i) {
    sum += prob_[i] * util::q_function((value_[i] - x) / sigma);
  }
  return std::clamp(sum, 0.0, 1.0);
}

bool IsiMixture::lower_tail_at_most(double x, double sigma, double p) const {
  if (decidable(sigma, p)) {
    const auto [lo, hi] = window(x, sigma);
    // Q((v - x) / sigma) falls as v rises: walk up from lo.
    const int side = tail_side(
        lo == 0 ? 0.0 : cum_[lo - 1], hi - lo, prob_max_, p,
        [&](std::size_t k) {
          const std::size_t i = lo + k;
          return std::pair{prob_[i],
                           util::q_function((value_[i] - x) / sigma)};
        });
    if (side != 0) return side < 0;
  }
  return lower_tail(x, sigma) <= p;
}

bool IsiMixture::upper_tail_at_least(double x, double sigma, double p) const {
  if (decidable(sigma, p)) {
    const auto [lo, hi] = window(x, sigma);
    // Q((x - v) / sigma) falls as v drops: walk down from hi - 1.
    const int side = tail_side(
        hi == 0 ? 1.0 : 1.0 - cum_[hi - 1], hi - lo, prob_max_, p,
        [&](std::size_t k) {
          const std::size_t i = hi - 1 - k;
          return std::pair{prob_[i],
                           util::q_function((x - value_[i]) / sigma)};
        });
    if (side != 0) return side > 0;
  }
  return upper_tail(x, sigma) >= p;
}

double IsiMixture::upper_quantile(double p, double sigma) const {
  const double pad = sigma > 0.0 ? (kTailWindowSigmas + 1.0) * sigma : 0.0;
  double lo = value_.front() - pad - 1e-18;
  double hi = value_.back() + pad + 1e-18;
  // upper_tail is decreasing in v: tail(lo) ~ 1, tail(hi) ~ 0.
  for (int i = 0; i < 200 && hi - lo > 1e-16 * (std::fabs(lo) +
                                                std::fabs(hi) + 1.0);
       ++i) {
    const double mid = 0.5 * (lo + hi);
    if (upper_tail_at_least(mid, sigma, p)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double IsiMixture::lower_quantile(double p, double sigma) const {
  const double pad = sigma > 0.0 ? (kTailWindowSigmas + 1.0) * sigma : 0.0;
  double lo = value_.front() - pad - 1e-18;
  double hi = value_.back() + pad + 1e-18;
  // lower_tail is increasing in v: tail(lo) ~ 0, tail(hi) ~ 1.
  for (int i = 0; i < 200 && hi - lo > 1e-16 * (std::fabs(lo) +
                                                std::fabs(hi) + 1.0);
       ++i) {
    const double mid = 0.5 * (lo + hi);
    if (lower_tail_at_most(mid, sigma, p)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double slicer_error_probability(double main_cursor, const IsiMixture& isi,
                                double offset, double sigma) {
  return 0.5 * (isi.lower_tail(-0.5 * main_cursor - offset, sigma) +
                isi.upper_tail(0.5 * main_cursor - offset, sigma));
}

std::pair<std::uint64_t, std::uint64_t> poisson_band(double lambda) {
  constexpr double kZ = 3.5;           // ~2e-4 per tail
  constexpr double kTailEps = 2.3e-4;  // matching exact-CDF cut
  if (!(lambda > 0.0)) return {0, 0};
  if (lambda > 50.0) {
    const double spread = kZ * std::sqrt(lambda);
    const double lo = std::floor(std::max(0.0, lambda - spread));
    const double hi = std::ceil(lambda + spread);
    return {static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi)};
  }
  // Exact CDF scan: pmf(k) computed iteratively from pmf(0) = e^-lambda.
  double pmf = std::exp(-lambda);
  double cdf = pmf;
  std::uint64_t k = 0;
  std::uint64_t lo = 0;
  bool lo_set = cdf > kTailEps;  // observing below k=0 is impossible anyway
  std::uint64_t hi = 0;
  while (cdf < 1.0 - kTailEps && k < 100000) {
    ++k;
    pmf *= lambda / static_cast<double>(k);
    cdf += pmf;
    if (!lo_set && cdf > kTailEps) {
      lo = k;
      lo_set = true;
    }
  }
  hi = k;
  return {lo, hi};
}

// ---------------------------------------------------------------------------
// StatAnalyzer
// ---------------------------------------------------------------------------

namespace {

/// Runs per-UI launch levels (launched at t = 0) through the linear front
/// half of the MC datapath — TX pulse shaping, the channel model and the
/// optional CTLE, exactly the stages the Monte Carlo path instantiates from
/// the same plan, noise-free — then the RFI and restoring output poles, and
/// returns the resulting sample vector.
std::vector<double> run_linear_chain(const core::ChainPlan& plan,
                                     const channel::Channel& channel,
                                     util::Hertz rfi_bandwidth,
                                     util::Hertz restore_bandwidth,
                                     bool rx_poles,
                                     std::vector<double> levels) {
  const core::Launch tx{std::move(levels), util::seconds(0.0)};
  pipe::LevelPulseSource source = plan.source(tx);
  core::ChainPlan::PassOptions options;
  options.stop = core::ChainPlan::Stop::kEqualized;
  core::ChainPlan::Pass front = plan.pass(channel, tx, options);
  // The RFI output pole is linear in place; the restoring stage's output
  // pole sits after its VTC, but around a marginal decision the whole
  // chain operates in its linear region, so its smoothing applies to the
  // decision variable as well.
  analog::OnePoleLowPass rfi_pole(rfi_bandwidth, source.dt());
  analog::OnePoleLowPass restore_pole(restore_bandwidth, source.dt());

  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(source.total_samples()));
  pipe::Block blk;
  while (source.produce(blk, 16384) > 0) {
    const pipe::BlockView processed = front.pipeline.process(blk.view());
    // Without rx_poles (PAM4) the slicers read the CTLE output directly:
    // no RFI or restoring stage in the datapath, so no output poles either.
    for (std::size_t i = 0; i < processed.size; ++i) {
      const double x = processed.data[i];
      out.push_back(rx_poles ? restore_pole.step(rfi_pole.step(x)) : x);
    }
  }
  return out;
}

}  // namespace

double noise_power_gain(const core::LinkConfig& cfg, util::Hertz rfi_bandwidth,
                        util::Hertz restore_bandwidth, bool rx_poles) {
  const util::Second dt = cfg.sample_period();
  // pipe::CtleStage's arithmetic, stepped here one sample at a time.
  std::optional<analog::OnePoleLowPass> ctle_pole;
  double ctle_k = 0.0;
  if (cfg.rx_ctle_boost.value() > 0.0) {
    ctle_pole.emplace(cfg.rx_ctle_pole, dt);
    ctle_k = util::db_to_amplitude(cfg.rx_ctle_boost) - 1.0;
  }
  analog::OnePoleLowPass rfi_pole(rfi_bandwidth, dt);
  analog::OnePoleLowPass restore_pole(restore_bandwidth, dt);

  // A bound on every later |g|, the input being 0 from here on: the CTLE
  // output is -k times its pole's output, and the RX poles follow.
  const auto later_bound = [&] {
    const double c =
        ctle_pole ? std::fabs(ctle_k) * ctle_pole->output_bound(0.0) : 0.0;
    return rx_poles ? restore_pole.output_bound(rfi_pole.output_bound(c)) : c;
  };

  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kStopCheck = 32;  // samples between stop tests
  double total = 0.0;
  double x = 1.0;  // the unit impulse, then zeros
  for (std::size_t fed = 0; fed < (1u << 22); fed += kBlock) {
    double block_sum = 0.0;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const double c = ctle_pole ? x + ctle_k * (x - ctle_pole->step(x)) : x;
      const double g = rx_poles ? restore_pole.step(rfi_pole.step(c)) : c;
      block_sum += g * g;
      x = 0.0;
      if ((i + 1) % kStopCheck != 0) continue;
      // Every later g * g is at most g2_max.  If adding g2_max leaves
      // block_sum as it is, the rest of this block does too, and the total
      // becomes `settled`.  If adding a whole block of them (2 * kBlock *
      // g2_max covers the rounding) leaves `settled` as it is, so does
      // every later block, and the loop returns `settled` wherever it
      // stops.
      const double g_max = later_bound();
      const double g2_max = g_max * g_max;
      const double settled = total + block_sum;
      if (block_sum + g2_max == block_sum &&
          settled + 2.0 * static_cast<double>(kBlock) * g2_max == settled) {
        return settled;
      }
    }
    total += block_sum;
    if (block_sum < total * 1e-18) break;
  }
  return total;
}

namespace {

/// Linear interpolation into the pulse response at fractional sample
/// index `idx` (0 outside the captured support).
double pulse_at(const std::vector<double>& pulse, double idx) {
  if (idx <= 0.0 || pulse.size() < 2 ||
      idx >= static_cast<double>(pulse.size() - 1)) {
    return 0.0;
  }
  const auto lo = static_cast<std::size_t>(idx);
  const double frac = idx - static_cast<double>(lo);
  return pulse[lo] + frac * (pulse[lo + 1] - pulse[lo]);
}

/// Circular convolution kernel for sampling jitter on the phase grid:
/// Gaussian random jitter (proper per-bin mass integration, so kernels
/// narrower than one bin degrade gracefully to identity) combined with the
/// arcsine distribution of sinusoidal jitter.
std::vector<double> jitter_kernel(double rj_ui, double sj_ui, int phase_bins) {
  const double bin = 1.0 / static_cast<double>(phase_bins);
  std::vector<double> kernel(1, 1.0);  // offsets [-K..K] around index K
  auto convolve = [&](const std::vector<double>& other) {
    std::vector<double> result(kernel.size() + other.size() - 1, 0.0);
    for (std::size_t i = 0; i < kernel.size(); ++i) {
      for (std::size_t j = 0; j < other.size(); ++j) {
        result[i + j] += kernel[i] * other[j];
      }
    }
    kernel = std::move(result);
  };
  if (rj_ui > 0.0) {
    const int reach =
        static_cast<int>(std::ceil(5.0 * rj_ui / bin)) + 1;
    std::vector<double> gauss(static_cast<std::size_t>(2 * reach + 1), 0.0);
    for (int r = -reach; r <= reach; ++r) {
      const double a = (static_cast<double>(r) - 0.5) * bin / rj_ui;
      const double b = (static_cast<double>(r) + 0.5) * bin / rj_ui;
      gauss[static_cast<std::size_t>(r + reach)] =
          util::q_function(a) - util::q_function(b);
    }
    convolve(gauss);
  }
  if (sj_ui > 0.0) {
    constexpr int kSjPoints = 64;
    const int reach = static_cast<int>(std::ceil(sj_ui / bin)) + 1;
    std::vector<double> arcsine(static_cast<std::size_t>(2 * reach + 1), 0.0);
    for (int j = 0; j < kSjPoints; ++j) {
      const double theta = 2.0 * std::numbers::pi *
                           (static_cast<double>(j) + 0.5) / kSjPoints;
      const double s = sj_ui * std::sin(theta) / bin;
      const auto lo = static_cast<int>(std::floor(s));
      const double frac = s - static_cast<double>(lo);
      arcsine[static_cast<std::size_t>(lo + reach)] +=
          (1.0 - frac) / kSjPoints;
      arcsine[static_cast<std::size_t>(lo + 1 + reach)] += frac / kSjPoints;
    }
    convolve(arcsine);
  }
  double total = 0.0;
  for (const double w : kernel) total += w;
  for (double& w : kernel) w /= total;
  return kernel;
}

}  // namespace

StatReport StatAnalyzer::analyze(const core::LinkConfig& cfg,
                                 const channel::Channel& channel) const {
  if (options_.phase_bins_per_ui < 8) {
    throw std::invalid_argument("StatAnalyzer: need >= 8 phase bins per UI");
  }
  if (!(options_.target_ber > 0.0) || options_.target_ber >= 0.5) {
    throw std::invalid_argument("StatAnalyzer: target_ber must be in (0, 0.5)");
  }
  const int spu = cfg.samples_per_ui;
  if (spu < 2) {
    throw std::invalid_argument("StatAnalyzer: need >= 2 samples per UI");
  }

  core::Receiver rx(cfg);
  const analog::RfiStage& rfi = rx.rfi_stage();
  const analog::RestoringInverter& restoring = rx.restoring();

  // PAM4 drops the RFI/restoring nonlinearities from the datapath: three
  // mean-relative slicers read the CTLE output.  The same pulse-response
  // machinery applies; only the RX poles, the threshold mapping, and the
  // per-cursor interference PDF change.
  const bool pam4 = cfg.modulation == core::LinkConfig::Modulation::kPam4;
  const bool rx_poles = !pam4;

  // Pulse responses run the Monte Carlo chain's own front stages, laid out
  // by the same plan, noise- and crosstalk-free (crosstalk enters the
  // model below as bounded interference).
  core::LinkConfig linear_cfg = cfg;
  linear_cfg.xtalk.clear();
  const core::ChainPlan plan(linear_cfg, rx);

  // ---- 1. Single-bit pulse response through the linear front half -------
  // Superposition: the TX shaper is affine in the per-bit launch levels and
  // the channel / CTLE / RFI-pole stages are LTI, so response(one bit) -
  // response(all zeros) is exactly the contribution of one transmitted '1'.
  // The post-cursor budget grows until the tail has decayed.
  constexpr int kPreUis = 8;
  int post_uis = 64;
  std::vector<double> pulse;
  for (;;) {
    const std::size_t nbits = static_cast<std::size_t>(kPreUis + 1 + post_uis);
    std::vector<std::uint8_t> bits(nbits, 0);
    bits[kPreUis] = 1;
    pulse = run_linear_chain(plan, channel, rfi.bandwidth(),
                             restoring.bandwidth(), rx_poles,
                             plan.nrz_launch(bits).levels);
    if (cfg.tx_ffe_deemphasis != 0.0) {
      // The FFE's mid-rail offset makes the all-zero response nonzero;
      // subtracting it leaves exactly one bit's contribution.  (The
      // baseline itself shifts signal and stream mean equally, so it
      // cancels out of the mean-relative decision variable.)
      const std::vector<double> base = run_linear_chain(
          plan, channel, rfi.bandwidth(), restoring.bandwidth(), rx_poles,
          plan.nrz_launch(std::vector<std::uint8_t>(nbits, 0)).levels);
      for (std::size_t i = 0; i < pulse.size() && i < base.size(); ++i) {
        pulse[i] -= base[i];
      }
    }
    double peak = 0.0;
    for (const double v : pulse) peak = std::max(peak, std::fabs(v));
    double tail = 0.0;
    const std::size_t tail_start =
        pulse.size() > static_cast<std::size_t>(2 * spu)
            ? pulse.size() - static_cast<std::size_t>(2 * spu)
            : 0;
    for (std::size_t i = tail_start; i < pulse.size(); ++i) {
      tail = std::max(tail, std::fabs(pulse[i]));
    }
    if (peak == 0.0) {
      throw std::invalid_argument(
          "StatAnalyzer: channel produced an all-zero pulse response");
    }
    if (tail <= options_.isi_epsilon * peak ||
        post_uis >= options_.max_pulse_uis) {
      break;
    }
    post_uis = std::min(post_uis * 2, options_.max_pulse_uis);
  }

  // ---- 2. Linear-domain slicer threshold and noise sigma ----------------
  // NRZ: the RFI saturating VTC and the restoring inverter are memoryless
  // and monotone, so the sampler's decision maps back to a single threshold
  // at the linear point: the channel-referred deviation from the stream
  // mean at which restore(saturate(v)) crosses the decision threshold.
  // PAM4: the slicers are calibrated to the stream statistics themselves
  // (middle threshold at the mean), so the mean-relative threshold is 0 and
  // the sampler noise maps back at unit slope.
  double v_th = 0.0;
  double sampler_sigma_lin = cfg.sampler.input_noise_rms;
  double chain_slope = 1.0;
  if (!pam4) {
    const double decision_threshold = rx.decision_threshold();
    const auto chain = [&](double v) {
      return restoring.restore_level(rfi.saturate(v));
    };
    const double vdd = cfg.driver.vdd.value();
    const auto v_th_opt = util::bisect(
        [&](double v) { return chain(v) - decision_threshold; }, -vdd, vdd,
        1e-15);
    if (!v_th_opt) {
      throw std::invalid_argument(
          "StatAnalyzer: front-end transfer curve never crosses the decision "
          "threshold");
    }
    v_th = *v_th_opt;
    // Sampler input-referred noise, mapped back through the static gain of
    // the saturating chain at the threshold.
    const double slope_h = 1e-6;
    chain_slope =
        (chain(v_th + slope_h) - chain(v_th - slope_h)) / (2.0 * slope_h);
    sampler_sigma_lin =
        chain_slope > 0.0 ? cfg.sampler.input_noise_rms / chain_slope : 0.0;
  }

  const double sigma0 = core::per_sample_noise_sigma(cfg);
  const double chain_gain_sq =
      noise_power_gain(cfg, rfi.bandwidth(), restoring.bandwidth(), rx_poles);
  const double sigma =
      std::sqrt(sigma0 * sigma0 * chain_gain_sq +
                sampler_sigma_lin * sampler_sigma_lin);

  // ---- 2a. DFE feedback taps, mapped to the linear decision point -------
  // The MC sink subtracts tap k times the previous decision from the
  // sampled value — NRZ in the restored domain (divide by the chain slope
  // to channel-refer, exactly like the sampler noise above), PAM4 directly
  // in the slicer (CTLE) domain.  With correct feedback the subtraction
  // cancels post-cursor ISI: cursor main+1+k keeps its DC half but its
  // data-dependent +/- amplitude shrinks from c to c - 2*t_lin.
  std::vector<double> dfe_lin;
  if (!cfg.dfe_taps.empty()) {
    dfe_lin.reserve(cfg.dfe_taps.size());
    const double back_map = (!pam4 && chain_slope > 0.0) ? chain_slope : 1.0;
    for (const double t : cfg.dfe_taps) dfe_lin.push_back(t / back_map);
  }

  // ---- 2b. Crosstalk aggressor pulse responses --------------------------
  // A FEXT aggressor runs through the victim's own channel + RX chain, so
  // its pulse is just the victim pulse scaled by the coupling gain.  A
  // NEXT aggressor skips the channel: one extra pulse extraction through a
  // 0 dB flat channel (shared by every NEXT path).  UI delays permute the
  // cursor indices without changing the set, so they drop out of the
  // statistical model.
  std::vector<double> next_pulse;
  bool any_fext = false;
  bool any_next = false;
  for (const core::XtalkPath& x : cfg.xtalk) {
    if (x.gain == 0.0) continue;
    (x.through_channel ? any_fext : any_next) = true;
  }
  if (any_next) {
    const std::size_t nbits =
        static_cast<std::size_t>(pulse.size()) /
            static_cast<std::size_t>(spu) +
        2;
    std::vector<std::uint8_t> bits(nbits, 0);
    constexpr int kPreUisNext = 8;
    bits[kPreUisNext] = 1;
    const channel::FlatChannel flat{util::decibels(0.0)};
    next_pulse = run_linear_chain(plan, flat, rfi.bandwidth(),
                                  restoring.bandwidth(), rx_poles,
                                  plan.rail_levels(bits));
  }

  // ---- 3. Per-phase cursor decomposition and tail statistics ------------
  StatReport report;
  report.target_ber = options_.target_ber;
  report.sigma_v = sigma;
  report.threshold_v = v_th;

  const int n_phases = options_.phase_bins_per_ui;
  const int total_uis = static_cast<int>(pulse.size()) / spu + 1;
  double pulse_sum = 0.0;
  for (const double v : pulse) pulse_sum += v;
  double next_pulse_sum = 0.0;
  for (const double v : next_pulse) next_pulse_sum += v;
  // AC-coupling estimate of the stream mean (deviation from the all-zero
  // baseline): half the pulse's DC content per UI — the victim's own plus
  // every aggressor path's scaled DC (the slicer calibration sees the
  // composite stream's mean).
  double mean_off = 0.5 * pulse_sum / static_cast<double>(spu);
  for (const core::XtalkPath& x : cfg.xtalk) {
    if (x.gain == 0.0) continue;
    mean_off += 0.5 * x.gain * (x.through_channel ? pulse_sum : next_pulse_sum) /
                static_cast<double>(spu);
  }
  const int next_total_uis =
      next_pulse.empty() ? 0 : static_cast<int>(next_pulse.size()) / spu + 1;

  std::vector<double> raw_ber(static_cast<std::size_t>(n_phases), 0.5);
  // The eye contour per phase: under PAM4 the middle sub-eye's.
  std::vector<double> contour_high(static_cast<std::size_t>(n_phases), 0.0);
  std::vector<double> contour_low(static_cast<std::size_t>(n_phases), 0.0);
  std::vector<double> phase_main(static_cast<std::size_t>(n_phases), 0.0);
  std::vector<int> phase_isi_count(static_cast<std::size_t>(n_phases), 0);
  std::vector<double> phase_burst(static_cast<std::size_t>(n_phases), 1.0);
  // PAM4 per-sub-eye traces (lower / middle / upper), per phase.
  std::vector<std::vector<double>> eye_ber(
      3, std::vector<double>(static_cast<std::size_t>(n_phases), 0.5));
  std::vector<std::vector<double>> eye_high(
      3, std::vector<double>(static_cast<std::size_t>(n_phases), 0.0));
  std::vector<std::vector<double>> eye_low(
      3, std::vector<double>(static_cast<std::size_t>(n_phases), 0.0));

  // Gray-code bit cost of deciding s' when s was sent, in bits (out of the
  // 2 a symbol carries): levels 0..3 map to (0,0) (0,1) (1,1) (1,0).
  static constexpr int kGrayHamming[4][4] = {{0, 1, 2, 1},
                                             {1, 0, 1, 2},
                                             {2, 1, 0, 1},
                                             {1, 2, 1, 0}};

  // One sampling phase: slices the pulse into cursors, builds the ISI
  // mixture once and records the slicer BER and DFE burst factor.  With
  // `with_contour` it also bisects the eye contour at target_ber (under
  // PAM4, all three sub-eyes) from that same mixture.  A phase reads only
  // shared inputs and writes only its own slot `b` of the per-phase
  // vectors, so phases run concurrently.
  const auto phase = [&](int b, bool with_contour) {
    const double off = (static_cast<double>(b) + 0.5) / n_phases;
    std::vector<double> cursors;
    cursors.reserve(static_cast<std::size_t>(total_uis));
    double sum_all = 0.0;
    double l1_all = 0.0;
    double h0 = 0.0;
    int main_idx = -1;
    for (int m = 0; m < total_uis; ++m) {
      const double c =
          pulse_at(pulse, (static_cast<double>(m) + off) * spu);
      cursors.push_back(c);
      sum_all += c;
      l1_all += std::fabs(c);
      if (c > h0) {
        h0 = c;
        main_idx = m;
      }
    }
    if (main_idx < 0 || h0 <= 0.0) return;  // dead eye: BER 0.5

    // DFE residual cancellation: tap k feeds back the decision of symbol
    // n-1-k, i.e. the cursor at main+1+k.  Only the data-dependent +/-
    // amplitude shrinks — the cursor's DC half (already in sum_all / the
    // slicer calibration range) is untouched, because the subtracted
    // feedback term has zero mean over equiprobable data.
    for (std::size_t k = 0; k < dfe_lin.size(); ++k) {
      const std::size_t idx =
          static_cast<std::size_t>(main_idx) + 1 + k;
      if (idx < cursors.size()) cursors[idx] -= 2.0 * dfe_lin[k];
    }

    // Expected follow-on errors per error: a wrong feedback decision
    // flips tap k's correction, shifting the next decision by the full
    // feedback swing.  q sums the per-tap conditional error probabilities
    // against the residual mixture; the bathtub picks up the geometric
    // burst-length factor 1 / (1 - q).
    const auto dfe_burst_factor = [&](const IsiMixture& mixture,
                                      double eye_main, double base_offset,
                                      double swing_scale) {
      double q = 0.0;
      for (const double t : dfe_lin) {
        const double s = swing_scale * std::fabs(t);
        if (s <= 0.0) continue;
        q += 0.5 * (slicer_error_probability(eye_main, mixture,
                                             base_offset + s, sigma) +
                    slicer_error_probability(eye_main, mixture,
                                             base_offset - s, sigma));
      }
      // Clamp from below too: deep-eye tail sums can go ~1e-16 negative
      // from prefix-sum rounding, and a burst factor must never shrink
      // the BER.
      return 1.0 / (1.0 - std::clamp(q, 0.0, 0.5));
    };

    std::vector<double> isi;
    isi.reserve(cursors.size());
    for (int m = 0; m < static_cast<int>(cursors.size()); ++m) {
      if (m == main_idx) continue;
      if (std::fabs(cursors[static_cast<std::size_t>(m)]) >
          options_.isi_epsilon * h0) {
        isi.push_back(cursors[static_cast<std::size_t>(m)]);
      }
    }
    // Crosstalk enters the mixture as bounded interference: every
    // aggressor cursor — its peak included, since aggressor data is
    // independent of the victim's decision — is one more ISI tap.
    for (const core::XtalkPath& x : cfg.xtalk) {
      if (x.gain == 0.0) continue;
      const std::vector<double>& agg = x.through_channel ? pulse : next_pulse;
      const int agg_uis = x.through_channel ? total_uis : next_total_uis;
      for (int m = 0; m < agg_uis; ++m) {
        const double c =
            x.gain * pulse_at(agg, (static_cast<double>(m) + off) * spu);
        sum_all += c;
        l1_all += std::fabs(c);
        if (std::fabs(c) > options_.isi_epsilon * h0) isi.push_back(c);
      }
    }
    const int isi_count = static_cast<int>(isi.size());

    if (!pam4) {
      const IsiMixture mix = IsiMixture::build(isi, options_.mixture);
      const double offset = 0.5 * sum_all - mean_off - v_th;
      raw_ber[static_cast<std::size_t>(b)] =
          slicer_error_probability(h0, mix, offset, sigma);
      if (!dfe_lin.empty()) {
        const double f = dfe_burst_factor(mix, h0, offset, 2.0);
        phase_burst[static_cast<std::size_t>(b)] = f;
        raw_ber[static_cast<std::size_t>(b)] =
            std::min(0.5, raw_ber[static_cast<std::size_t>(b)] * f);
      }
      if (with_contour) {
        contour_high[static_cast<std::size_t>(b)] =
            offset + 0.5 * h0 + mix.lower_quantile(options_.target_ber, sigma);
        contour_low[static_cast<std::size_t>(b)] =
            offset - 0.5 * h0 + mix.upper_quantile(options_.target_ber, sigma);
      }
    } else {
      // PAM4: each interfering cursor takes four equiprobable values
      // {-c/2, -c/6, +c/6, +c/2} — the sum of two independent binary
      // components +/-(c/3) and +/-(c/6), so the binary mixture machinery
      // applies to an expanded cursor list (full amplitudes 2c/3 and c/3;
      // build() halves them).
      std::vector<double> expanded;
      expanded.reserve(isi.size() * 2);
      for (const double c : isi) {
        expanded.push_back(2.0 * c / 3.0);
        expanded.push_back(c / 3.0);
      }
      const IsiMixture mix = IsiMixture::build(expanded, options_.mixture);
      // The MC slicers calibrate on the clean composite stream: middle
      // threshold at the range midpoint (= half the cursor sum — the
      // all-3s ceiling plus the all-0s floor, halved), outer thresholds
      // a third of the clean range away, and that range is the L1 norm
      // of the composite cursor set.  Relative to the midpoint, symbol s
      // contributes d_s * h0 through the main cursor, d_s in {-1/2,
      // -1/6, +1/6, +1/2}, and every interferer is in the mixture — so
      // the model's shift is identically zero.
      const double shift = 0.0;
      const double spacing = l1_all / 3.0;
      const double d[4] = {-0.5, -1.0 / 6.0, 1.0 / 6.0, 0.5};
      const double t[3] = {-spacing, 0.0, spacing};
      double region[4][4];  // [sent][decided]
      for (int s = 0; s < 4; ++s) {
        const double mu = d[s] * h0 + shift;
        const double f0 = mix.lower_tail(t[0] - mu, sigma);
        const double f1 = mix.lower_tail(t[1] - mu, sigma);
        const double f2 = mix.lower_tail(t[2] - mu, sigma);
        region[s][0] = f0;
        region[s][1] = std::max(0.0, f1 - f0);
        region[s][2] = std::max(0.0, f2 - f1);
        region[s][3] = std::max(0.0, 1.0 - f2);
      }
      double ber = 0.0;
      for (int s = 0; s < 4; ++s) {
        for (int r = 0; r < 4; ++r) {
          ber += 0.25 * region[s][r] *
                 static_cast<double>(kGrayHamming[s][r]) / 2.0;
        }
      }
      raw_ber[static_cast<std::size_t>(b)] = std::min(0.5, ber);
      if (!dfe_lin.empty()) {
        // Adjacent-level feedback errors dominate PAM4: the symbol weight
        // moves by 2/3, so a wrong decision shifts the next sample by 2/3
        // of the tap.  The middle sub-eye (level spacing h0/3) stands in
        // for the conditional re-error probability of all three.
        const double f = dfe_burst_factor(mix, h0 / 3.0, 0.0, 2.0 / 3.0);
        phase_burst[static_cast<std::size_t>(b)] = f;
        raw_ber[static_cast<std::size_t>(b)] =
            std::min(0.5, raw_ber[static_cast<std::size_t>(b)] * f);
      }
      // Per-sub-eye surfaces: sub-eye k separates symbol k (below the
      // boundary t[k]) from symbol k+1 (above it).
      for (int k = 0; k < 3; ++k) {
        const double mu_lo = d[k] * h0 + shift;
        const double mu_hi = d[k + 1] * h0 + shift;
        eye_ber[static_cast<std::size_t>(k)][static_cast<std::size_t>(b)] =
            0.5 * (mix.upper_tail(t[k] - mu_lo, sigma) +
                   mix.lower_tail(t[k] - mu_hi, sigma));
        if (!with_contour) continue;
        eye_high[static_cast<std::size_t>(k)][static_cast<std::size_t>(b)] =
            mu_hi + mix.lower_quantile(options_.target_ber, sigma);
        eye_low[static_cast<std::size_t>(k)][static_cast<std::size_t>(b)] =
            mu_lo + mix.upper_quantile(options_.target_ber, sigma);
      }
      // The scalar contours track the middle sub-eye (the NRZ analogue:
      // the boundary at the calibrated midpoint).
      contour_high[static_cast<std::size_t>(b)] =
          eye_high[1][static_cast<std::size_t>(b)];
      contour_low[static_cast<std::size_t>(b)] =
          eye_low[1][static_cast<std::size_t>(b)];
    }
    phase_main[static_cast<std::size_t>(b)] = h0;
    phase_isi_count[static_cast<std::size_t>(b)] = isi_count;
  };
  util::parallel_for(static_cast<std::size_t>(n_phases), 0,
                     [&](std::size_t b) {
                       phase(static_cast<int>(b), options_.contours);
                     });

  // ---- 4. Jitter folding and margins ------------------------------------
  const double ui_s = cfg.unit_interval().value();
  const std::vector<double> kernel =
      jitter_kernel(cfg.rx_random_jitter.value() / ui_s,
                    cfg.rx_sinusoidal_jitter.value() / ui_s, n_phases);
  report.bathtub_ber.assign(static_cast<std::size_t>(n_phases), 0.0);
  const int reach = static_cast<int>(kernel.size()) / 2;
  for (int b = 0; b < n_phases; ++b) {
    double acc = 0.0;
    for (int r = -reach; r <= reach; ++r) {
      const int src = ((b + r) % n_phases + n_phases) % n_phases;
      acc += kernel[static_cast<std::size_t>(r + reach)] *
             raw_ber[static_cast<std::size_t>(src)];
    }
    report.bathtub_ber[static_cast<std::size_t>(b)] = acc;
  }

  int best = 0;
  for (int b = 1; b < n_phases; ++b) {
    if (report.bathtub_ber[static_cast<std::size_t>(b)] <
        report.bathtub_ber[static_cast<std::size_t>(best)]) {
      best = b;
    }
  }
  // Margins-only mode bisects the one contour the margins read, from the
  // same cursors and mixture as the full analysis, so every margin below
  // is bit-identical.  The call also recomputes this phase's BER and burst
  // factor, to the same bits.
  if (!options_.contours) phase(best, true);
  report.best_phase_ui = (static_cast<double>(best) + 0.5) / n_phases;
  report.min_ber = report.bathtub_ber[static_cast<std::size_t>(best)];
  report.main_cursor_v = phase_main[static_cast<std::size_t>(best)];
  report.isi_cursors = phase_isi_count[static_cast<std::size_t>(best)];
  if (!dfe_lin.empty()) {
    report.dfe_taps_applied = dfe_lin;
    report.dfe_burst_factor = phase_burst[static_cast<std::size_t>(best)];
  }
  report.eye_height_v = contour_high[static_cast<std::size_t>(best)] -
                        contour_low[static_cast<std::size_t>(best)];
  report.voltage_margin_v =
      std::min(contour_high[static_cast<std::size_t>(best)],
               -contour_low[static_cast<std::size_t>(best)]);
  if (options_.contours) {
    report.contour_high_v = std::move(contour_high);
    report.contour_low_v = std::move(contour_low);
  }

  if (pam4) {
    // Per-sub-eye margins at the best phase (lower, middle, upper), with
    // the sub-eye's own jitter-folded slicer error probability.  The
    // scalar eye_height/voltage_margin above already track the middle
    // sub-eye's contours; tighten them to the worst sub-eye so the scalar
    // summary stays the binding margin.
    const double h0 = phase_main[static_cast<std::size_t>(best)];
    const double t[3] = {-h0 / 3.0, 0.0, h0 / 3.0};
    report.pam4_eye_height_v.assign(3, 0.0);
    report.pam4_voltage_margin_v.assign(3, 0.0);
    report.pam4_eye_ber.assign(3, 0.5);
    for (int k = 0; k < 3; ++k) {
      const double high =
          eye_high[static_cast<std::size_t>(k)][static_cast<std::size_t>(best)];
      const double low =
          eye_low[static_cast<std::size_t>(k)][static_cast<std::size_t>(best)];
      report.pam4_eye_height_v[static_cast<std::size_t>(k)] = high - low;
      report.pam4_voltage_margin_v[static_cast<std::size_t>(k)] =
          std::min(high - t[k], t[k] - low);
      double acc = 0.0;
      for (int r = -reach; r <= reach; ++r) {
        const int src = ((best + r) % n_phases + n_phases) % n_phases;
        acc += kernel[static_cast<std::size_t>(r + reach)] *
               eye_ber[static_cast<std::size_t>(k)]
                      [static_cast<std::size_t>(src)];
      }
      report.pam4_eye_ber[static_cast<std::size_t>(k)] = acc;
    }
    report.eye_height_v =
        std::min({report.pam4_eye_height_v[0], report.pam4_eye_height_v[1],
                  report.pam4_eye_height_v[2]});
    report.voltage_margin_v =
        std::min({report.pam4_voltage_margin_v[0],
                  report.pam4_voltage_margin_v[1],
                  report.pam4_voltage_margin_v[2]});
  }

  if (report.min_ber <= options_.target_ber) {
    int open = 1;
    int left = 1;
    while (left < n_phases &&
           report.bathtub_ber[static_cast<std::size_t>(
               ((best - left) % n_phases + n_phases) % n_phases)] <=
               options_.target_ber) {
      ++open;
      ++left;
    }
    int right = 1;
    while (open < n_phases &&
           report.bathtub_ber[static_cast<std::size_t>((best + right) %
                                                       n_phases)] <=
               options_.target_ber) {
      ++open;
      ++right;
    }
    report.timing_margin_ui =
        std::min(1.0, static_cast<double>(open) / n_phases);
  }
  return report;
}

void StatAnalyzer::cross_check(StatReport& report, std::uint64_t bits,
                               std::uint64_t errors, int cdr_oversampling,
                               int cdr_glitch_filter_radius, double slack) {
  report.cross_checked = true;
  report.mc_ber =
      bits > 0 ? static_cast<double>(errors) / static_cast<double>(bits) : 0.0;

  // The bathtub is the classic single-slicer BER, but the Monte Carlo
  // receiver decides each bit by a majority vote over the glitch filter's
  // 2g+1 adjacent oversampling phases.  With independent per-phase noise
  // the vote BER is the probability that >= g+1 phase-samples are wrong —
  // a lower bound on the real vote BER (noise correlation between the
  // phases only pushes it back up toward the single-slicer value, which
  // bounds it from above since the vote can only help).  The band spans
  // that structural interval over the CDR's phase-pick window, widened by
  // the model-slack factor.
  double lo = report.min_ber;
  double hi = report.min_ber;
  const int n = static_cast<int>(report.bathtub_ber.size());
  if (n > 0) {
    const auto& bt = report.bathtub_ber;
    int best = 0;
    for (int b = 1; b < n; ++b) {
      if (bt[static_cast<std::size_t>(b)] <
          bt[static_cast<std::size_t>(best)]) {
        best = b;
      }
    }
    const int g = std::max(0, cdr_glitch_filter_radius);
    const int delta =
        cdr_oversampling > 0
            ? std::max(1, n / std::max(1, cdr_oversampling))
            : 0;
    const auto vote_ber = [&](int center) {
      // P(>= g+1 of the 2g+1 phase-samples wrong), phases spaced delta
      // bins apart, independent: DP over the per-phase error probs.
      std::vector<double> more_wrong(1, 1.0);  // P(exactly k wrong so far)
      for (int k = -g; k <= g; ++k) {
        const double p = bt[static_cast<std::size_t>(
            ((center + k * delta) % n + n) % n)];
        std::vector<double> next(more_wrong.size() + 1, 0.0);
        for (std::size_t w = 0; w < more_wrong.size(); ++w) {
          next[w] += more_wrong[w] * (1.0 - p);
          next[w + 1] += more_wrong[w] * p;
        }
        more_wrong = std::move(next);
      }
      double sum = 0.0;
      for (std::size_t w = static_cast<std::size_t>(g) + 1;
           w < more_wrong.size(); ++w) {
        sum += more_wrong[w];
      }
      return sum;
    };
    // CDR phase placement: quantization alone puts the decision phase
    // within half a phase spacing of the optimum, but the edge-centroid
    // criterion is biased on dispersive (asymmetric-eye) channels, so the
    // ceiling window allows a full phase spacing of misplacement.  The
    // floor only loosens with a wider window, so one window serves both.
    const int window =
        cdr_oversampling > 0
            ? static_cast<int>(std::ceil(
                  static_cast<double>(n) /
                  static_cast<double>(cdr_oversampling))) +
                  1
            : 1;
    for (int r = -window; r <= window; ++r) {
      const int b = ((best + r) % n + n) % n;
      lo = std::min(lo, vote_ber(b));
      hi = std::max(hi, bt[static_cast<std::size_t>(b)]);
    }
  }
  double s = slack > 1.0 ? slack : 1.0;
  // DFE feedback is outside the linear model's accuracy contract: the MC
  // sink's slicer can mis-feed during CDR settling and per-chunk warm-up
  // (zero history), and real bursts cluster instead of thinning like the
  // geometric factor assumes.  Double the slack both ways for trained /
  // DFE-equipped links.
  const bool dfe = !report.dfe_taps_applied.empty();
  if (dfe) s *= 2.0;
  report.band_low = lo / s;
  report.band_high = std::min(0.5, hi * s);

  const auto [k_lo, ignored_hi] =
      poisson_band(static_cast<double>(bits) * report.band_low);
  auto [ignored_lo, k_hi] =
      poisson_band(static_cast<double>(bits) * report.band_high);
  (void)ignored_hi;
  (void)ignored_lo;
  // Floor of a couple of stray errors: sub-1e-4 effects the linear model
  // does not carry (sampler metastability at transitions, AC-coupling
  // transients) must not flag an otherwise-clean deep-BER run.  DFE links
  // additionally tolerate one warm-up burst per feedback tap.
  k_hi = std::max<std::uint64_t>(
      k_hi, dfe ? 2 + 2 * report.dfe_taps_applied.size() : 2);
  report.consistent = errors >= k_lo && errors <= k_hi;
}

}  // namespace serdes::stat
