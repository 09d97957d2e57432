// Statistical-engine suite: closed-form regression pins for the mixture
// primitives (pure AWGN and two-tap ISI at <= 1e-12), grid-vs-exact
// consistency, the contour quantiles pinned bit for bit to a full-sum
// bisection, the mixture build and the noise gain pinned bit for bit to
// plain loops, engine-level sanity at the paper operating point, the
// analysis-mode plumbing through api::Simulator, margins-only analyses
// pinned byte for byte to the full one, and — the core of the
// golden-report tier — MC-vs-stat cross-validation: for every built-in
// channel kind the Monte Carlo BER must fall inside the stat engine's
// predicted band.  SlowDeep cases re-run the cross-validation at 1M bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/bus_spec.h"
#include "api/channel_factory.h"
#include "api/spec_json.h"
#include "analog/filters.h"
#include "core/receiver.h"
#include "pipe/lane_stages.h"
#include "stat/stat_engine.h"
#include "util/math.h"
#include "util/parallel.h"
#include "util/random.h"
#include "mixture_reference.h"

namespace serdes {
namespace {

using stat::IsiMixture;
using mixture_reference::PlainMixture;
using mixture_reference::plain_mixture;
using stat::StatAnalyzer;

double q(double x) { return util::q_function(x); }

TEST(IsiMixtureTest, PureAwgnMatchesQFunctionClosedForm) {
  // No ISI: slicer error probability collapses to the two-sided Q form.
  const IsiMixture mix = IsiMixture::build({});
  for (const double h : {0.03, 0.002}) {
    for (const double offset : {0.0, 0.0003, -0.0007}) {
      for (const double sigma : {0.005, 0.001, 0.00017}) {
        const double expected = 0.5 * (q((0.5 * h + offset) / sigma) +
                                       q((0.5 * h - offset) / sigma));
        const double got =
            stat::slicer_error_probability(h, mix, offset, sigma);
        // Deep tails included: at sigma = 0.00017 the BER is ~1e-17.
        EXPECT_NEAR(got, expected, 1e-12 * expected + 1e-300)
            << "h=" << h << " offset=" << offset << " sigma=" << sigma;
      }
    }
  }
}

TEST(IsiMixtureTest, TwoTapIsiMatchesClosedForm) {
  // One ISI cursor c: the symbol sees +/- c/2 with probability 1/2 each,
  // so the BER is the average of four Gaussian tails.
  const double h = 0.036;
  const double c = 0.008;
  const double sigma = 0.0009;
  const double offset = 0.0002;
  const IsiMixture mix = IsiMixture::build({c});
  ASSERT_TRUE(mix.exact());
  const double expected =
      0.25 * (q((0.5 * h + offset + 0.5 * c) / sigma) +
              q((0.5 * h + offset - 0.5 * c) / sigma) +
              q((0.5 * h - offset + 0.5 * c) / sigma) +
              q((0.5 * h - offset - 0.5 * c) / sigma));
  const double got = stat::slicer_error_probability(h, mix, offset, sigma);
  EXPECT_NEAR(got, expected, 1e-12 * expected);
}

TEST(IsiMixtureTest, ExactEnumerationMatchesHandRolledSum) {
  const std::vector<double> cursors = {0.004, -0.002, 0.0013};
  const double h = 0.03;
  const double sigma = 0.0011;
  const IsiMixture mix = IsiMixture::build(cursors);
  ASSERT_TRUE(mix.exact());
  double expected = 0.0;
  for (int pattern = 0; pattern < 8; ++pattern) {
    double isi = 0.0;
    for (int k = 0; k < 3; ++k) {
      isi += ((pattern >> k) & 1 ? 0.5 : -0.5) * cursors[static_cast<std::size_t>(k)];
    }
    expected += 0.5 * (q((0.5 * h + isi) / sigma) + q((0.5 * h - isi) / sigma));
  }
  expected /= 8.0;
  EXPECT_NEAR(stat::slicer_error_probability(h, mix, 0.0, sigma), expected,
              1e-12 * expected);
}

TEST(IsiMixtureTest, GridConvolutionTracksExactEnumeration) {
  // 14 cursors exceed the default exact budget; the grid path must agree
  // with a forced exact enumeration to well within the cross-check slack.
  std::vector<double> cursors;
  for (int k = 0; k < 14; ++k) {
    cursors.push_back(0.004 / (1.0 + 0.6 * k) * (k % 2 == 0 ? 1.0 : -1.0));
  }
  IsiMixture::Options exact_opts;
  exact_opts.max_exact_bits = 16;
  const IsiMixture exact = IsiMixture::build(cursors, exact_opts);
  const IsiMixture grid = IsiMixture::build(cursors);
  ASSERT_TRUE(exact.exact());
  ASSERT_FALSE(grid.exact());
  const double h = 0.03;
  for (const double sigma : {0.003, 0.0008}) {
    const double be = stat::slicer_error_probability(h, exact, 0.0, sigma);
    const double bg = stat::slicer_error_probability(h, grid, 0.0, sigma);
    EXPECT_NEAR(bg, be, 0.02 * be) << "sigma=" << sigma;
  }
}

TEST(IsiMixtureTest, QuantilesInvertTails) {
  const IsiMixture mix = IsiMixture::build({0.006, 0.003, -0.0015});
  const double sigma = 0.0007;
  for (const double p : {1e-3, 1e-9, 1e-15}) {
    const double lo = mix.lower_quantile(p, sigma);
    EXPECT_NEAR(mix.lower_tail(lo, sigma), p, 1e-6 * p) << "p=" << p;
    const double hi = mix.upper_quantile(p, sigma);
    EXPECT_NEAR(mix.upper_tail(hi, sigma), p, 1e-6 * p) << "p=" << p;
    EXPECT_LT(lo, hi);
  }
}

// The quantile bisections decide each step from the leading window terms.
// They must land on exactly the bits of the full-sum bisection below,
// which runs on the public tails.

/// The smallest support point: the largest x with no mass strictly below.
double support_front(const IsiMixture& mix) {
  double lo = -1.0;  // below every ISI sum the corpus builds
  double hi = 0.0;   // above the front of a symmetric, non-trivial sum
  while (std::nextafter(lo, hi) != hi) {
    const double mid = 0.5 * (lo + hi);
    (mix.lower_tail(mid, 0.0) == 0.0 ? lo : hi) = mid;
  }
  return lo;
}

/// The bisection as it ran when every step summed the whole window.  The
/// ISI sum is symmetric about 0 and the mixture keeps that exactly, so the
/// largest support point is -front.
double full_sum_quantile(const IsiMixture& mix, double front, double p,
                         double sigma, bool upper) {
  const double pad = sigma > 0.0 ? 40.0 * sigma : 0.0;
  double lo = front - pad - 1e-18;
  double hi = -front + pad + 1e-18;
  for (int i = 0; i < 200 && hi - lo > 1e-16 * (std::fabs(lo) +
                                                std::fabs(hi) + 1.0);
       ++i) {
    const double mid = 0.5 * (lo + hi);
    const bool below_crossing = upper ? mix.upper_tail(mid, sigma) >= p
                                      : mix.lower_tail(mid, sigma) <= p;
    (below_crossing ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(IsiMixtureTest, QuantilesMatchFullSumBisectionBitForBit) {
  util::Rng rng(0x5eed5e7a7u);
  int grid_floor_positive = 0;  // grid mixtures with 1 - cum.back() > 0
  int grid_floor_negative = 0;  // ... and < 0
  int checked = 0;
  int mismatched = 0;
  for (int m = 0; m < 64; ++m) {
    // 1-24 cursors of mixed sign; some are 1e-4 of their neighbours, some
    // differ from the previous one by 1e-4 of it (near-coincident points).
    const int n = 1 + static_cast<int>(rng.below(24));
    std::vector<double> cursors;
    for (int k = 0; k < n; ++k) {
      double c = 0.02 * std::pow(0.8, k) * rng.uniform(0.5, 1.5);
      if (rng.chance(0.15)) c *= 1e-4;
      if (k > 0 && rng.chance(0.15)) c = cursors.back() * (1.0 - 1e-4);
      if (rng.chance(0.3)) c = -c;
      cursors.push_back(c);
    }
    IsiMixture::Options options;
    if (rng.chance(0.3)) options.max_exact_bits = 0;  // grid at any size
    const IsiMixture mix = IsiMixture::build(cursors, options);
    if (!mix.exact()) {
      const double cum_back = mix.lower_tail(1.0, 0.0);
      grid_floor_positive += cum_back < 1.0 ? 1 : 0;
      grid_floor_negative += cum_back > 1.0 ? 1 : 0;
    }
    const double front = support_front(mix);
    ASSERT_EQ(bits_of(mix.lower_tail(std::nextafter(-front, 1.0), 0.0)),
              bits_of(mix.lower_tail(1.0, 0.0)))
        << "support not symmetric, mixture " << m;
    const double log_sigma = rng.uniform(std::log(1e-4), std::log(1e-2));
    for (const double sigma : {0.0, 1e-6, std::exp(log_sigma)}) {
      for (int j = 0; j < 6; ++j) {
        const double p =
            j == 0 ? 1e-15
                   : std::exp(rng.uniform(std::log(1e-15), std::log(0.4999)));
        for (const bool upper : {false, true}) {
          const double want = full_sum_quantile(mix, front, p, sigma, upper);
          const double got = upper ? mix.upper_quantile(p, sigma)
                                   : mix.lower_quantile(p, sigma);
          ++checked;
          if (bits_of(got) != bits_of(want)) {
            ++mismatched;
            ADD_FAILURE() << (upper ? "upper" : "lower") << "_quantile(" << p
                          << ", " << sigma << ") on mixture " << m << " ("
                          << n << " cursors, " << mix.size()
                          << " points): " << got << " != " << want;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatched, 0) << "of " << checked;
  EXPECT_GT(grid_floor_positive, 0);
  EXPECT_GT(grid_floor_negative, 0);
}

// The mixture build and the noise gain skip work the plain loops below
// do: bounds checks, a final sort, empty grid bins and a subnormal tail.
// Both must land on exactly the plain loops' bits.

/// A splitmix64 stream: the corpora below do not move with util::Rng.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1p-53;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(double p) { return uniform(0.0, 1.0) < p; }
};

/// The index of the first entry whose bits differ (0 when the sizes
/// differ), or -1.
long first_bit_mismatch(const std::vector<double>& got,
                        const std::vector<double>& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits_of(got[i]) != bits_of(want[i])) return static_cast<long>(i);
  }
  return -1;
}

TEST(IsiMixtureTest, BuildMatchesPlainLoopsBitForBit) {
  SplitMix64 rng{0x15a3c0de};
  int exact = 0;
  int grid = 0;
  int grid_at_floor = 0;
  for (int m = 0; m < 240; ++m) {
    // Cursor count: 1-79, with n = 12 and 13 (either side of the default
    // exact budget) every fourth mixture.
    const int n = m % 4 == 0 ? 12 + (m / 4) % 2
                             : 1 + static_cast<int>(rng.below(79));
    std::vector<double> cursors;
    for (int k = 0; k < n; ++k) {
      double c = std::exp(rng.uniform(std::log(1e-5), std::log(0.05)));
      if (rng.chance(0.15)) c *= 1e-4;
      if (k > 0 && rng.chance(0.15)) c = cursors.back() * (1.0 - 1e-12);
      if (k > 0 && rng.chance(0.1)) c = cursors.back();  // tied sums
      if (rng.chance(0.4)) c = -c;
      cursors.push_back(c);
    }
    if (m % 5 == 1) {
      // One dominant cursor among tiny ones.
      for (double& c : cursors) c *= 1e-3;
      cursors[rng.below(cursors.size())] = 0.3;
    }
    if (m % 7 == 2) cursors.push_back(0.0);  // skipped
    IsiMixture::Options options;
    // grid_bins at its 2n + 41 floor, at the default or in between.
    const std::uint64_t bins = rng.below(3);
    options.grid_bins = bins == 0   ? 1
                        : bins == 1 ? 4097
                                    : 64 + static_cast<int>(rng.below(2000));
    if (m % 3 == 0 && n < 12) options.max_exact_bits = 0;  // grid at any size
    const IsiMixture mix = IsiMixture::build(cursors, options);
    const PlainMixture want = plain_mixture(cursors, options);
    ASSERT_EQ(mix.exact(), want.exact) << "mixture " << m;
    (mix.exact() ? exact : grid) += 1;
    grid_at_floor += !mix.exact() && options.grid_bins == 1 ? 1 : 0;
    EXPECT_EQ(first_bit_mismatch(mix.values(), want.value), -1)
        << "values of mixture " << m << " (" << n << " cursors)";
    EXPECT_EQ(first_bit_mismatch(mix.probabilities(), want.prob), -1)
        << "probabilities of mixture " << m << " (" << n << " cursors)";
    EXPECT_EQ(first_bit_mismatch(mix.cumulative(), want.cum), -1)
        << "prefix sums of mixture " << m << " (" << n << " cursors)";
  }
  EXPECT_GT(exact, 30);
  EXPECT_GT(grid, 100);
  EXPECT_GT(grid_at_floor, 20);
}

/// The noise gain as a plain loop: pipe::LaneCtleStage's one-lane case
/// over whole 4096-sample blocks, then the RFI and restoring poles, until a
/// block adds less than 1e-18 of the total.
double plain_noise_power_gain(const core::LinkConfig& cfg,
                              util::Hertz rfi_bandwidth,
                              util::Hertz restore_bandwidth, bool rx_poles) {
  std::optional<pipe::LaneCtleStage> ctle;
  if (cfg.rx_ctle_boost.value() > 0.0) {
    ctle.emplace(cfg.rx_ctle_boost, cfg.rx_ctle_pole, cfg.sample_period(), 1);
  }
  analog::OnePoleLowPass pole(rfi_bandwidth, cfg.sample_period());
  analog::OnePoleLowPass restore_pole(restore_bandwidth, cfg.sample_period());
  constexpr std::size_t kBlock = 4096;
  std::vector<double> buf(kBlock, 0.0);
  pipe::LaneBlock out;
  double total = 0.0;
  buf[0] = 1.0;
  for (std::size_t fed = 0; fed < (1u << 22); fed += kBlock) {
    const pipe::LaneView view{buf.data(),         kBlock, 1, fed,
                              util::seconds(0.0), cfg.sample_period(),
                              false};
    const double* data = view.data;
    if (ctle) {
      ctle->process(view, out);
      data = out.data();
    }
    double block_sum = 0.0;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const double g =
          rx_poles ? restore_pole.step(pole.step(data[i])) : data[i];
      block_sum += g * g;
    }
    total += block_sum;
    buf[0] = 0.0;
    if (block_sum < total * 1e-18) break;
  }
  return total;
}

TEST(NoisePowerGainTest, MatchesPlainLoopBitForBit) {
  // The receiver bandwidths of three front ends: the paper default, a
  // slow one and a fast one whose RFI pole sits at the 0.98-Nyquist clamp
  // at the lowest sample rates (the restoring pole sits there in all
  // three at 16 samples per UI and 2 Gb/s).
  std::vector<analog::RfiDesign> designs(3);
  designs[1].wn_um = 1.0;
  designs[1].wp_um = 1.5;
  designs[1].load_cap = util::femtofarads(80.0);
  designs[2].wn_um = 16.0;
  designs[2].wp_um = 24.0;
  designs[2].load_cap = util::femtofarads(2.0);
  SplitMix64 rng{0x7e57a11};
  int checked = 0;
  int mismatched = 0;
  for (const analog::RfiDesign& design : designs) {
    for (const double rate_gbps : {1.0, 2.0, 10.0, 32.0}) {
      for (const int spu : {2, 16, 256}) {
        core::LinkConfig cfg = api::LinkSpec::paper_default().to_link_config();
        cfg.rfi = design;
        cfg.bit_rate = util::gigahertz(rate_gbps);
        cfg.samples_per_ui = spu;
        const core::Receiver rx(cfg);
        const util::Hertz rfi_bw = rx.rfi_stage().bandwidth();
        const util::Hertz restore_bw = rx.restoring().bandwidth();
        for (const double boost : {0.0, 0.5, 4.0, 12.0, 40.0}) {
          for (int pole = 0; pole < (boost > 0.0 ? 4 : 1); ++pole) {
            cfg.rx_ctle_boost = util::decibels(boost);
            cfg.rx_ctle_pole = util::hertz(
                std::exp(rng.uniform(std::log(1e8), std::log(2e10))));
            for (const bool rx_poles : {true, false}) {
              const double want =
                  plain_noise_power_gain(cfg, rfi_bw, restore_bw, rx_poles);
              const double got =
                  stat::noise_power_gain(cfg, rfi_bw, restore_bw, rx_poles);
              ++checked;
              if (bits_of(got) != bits_of(want)) {
                ++mismatched;
                ADD_FAILURE() << "noise gain " << got << " != " << want
                              << " at " << rate_gbps << " Gb/s, " << spu
                              << " samples/UI, CTLE " << boost << " dB at "
                              << cfg.rx_ctle_pole.value() << " Hz, RFI "
                              << rfi_bw.value() << " Hz, restoring "
                              << restore_bw.value() << " Hz, rx_poles "
                              << rx_poles;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatched, 0) << "of " << checked;
}

TEST(PoissonBandTest, CoversTheMeanAndRejectsOutliers) {
  {
    const auto [lo, hi] = stat::poisson_band(1e-9);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 0u);
  }
  {
    const auto [lo, hi] = stat::poisson_band(5.0);
    EXPECT_EQ(lo, 0u);
    EXPECT_GE(hi, 10u);
    EXPECT_LT(hi, 30u);
  }
  {
    const auto [lo, hi] = stat::poisson_band(10000.0);
    EXPECT_LT(lo, 10000u);
    EXPECT_GT(hi, 10000u);
    EXPECT_GT(lo, 9000u);
    EXPECT_LT(hi, 11000u);
  }
}

TEST(StatAnalyzerTest, PaperDefaultReachesDeepBerInstantly) {
  const api::LinkSpec spec = api::LinkSpec::paper_default();
  const core::LinkConfig cfg = spec.to_link_config();
  const auto channel =
      api::ChannelFactory::instance().create(spec.channel, cfg);
  const stat::StatReport report = StatAnalyzer().analyze(cfg, *channel);

  ASSERT_EQ(report.bathtub_ber.size(), 64u);
  ASSERT_EQ(report.contour_high_v.size(), 64u);
  ASSERT_EQ(report.contour_low_v.size(), 64u);
  // The paper point runs error-free in MC; analytically its BER is far
  // below the 1e-15 link-budget target with a wide margin at that target.
  EXPECT_LT(report.min_ber, 1e-20);
  EXPECT_GT(report.timing_margin_ui, 0.4);
  EXPECT_GT(report.eye_height_v, 0.0);
  EXPECT_GT(report.voltage_margin_v, 0.0);
  EXPECT_GT(report.main_cursor_v, 0.02);
  EXPECT_GT(report.sigma_v, 0.0);
  // Bathtub walls: phases near the bit boundary are orders of magnitude
  // worse than the center.
  double worst = 0.0;
  for (const double b : report.bathtub_ber) worst = std::max(worst, b);
  EXPECT_GT(worst, 1e-3);
}

TEST(StatAnalyzerTest, DeterministicAcrossCalls) {
  const api::LinkSpec spec = api::LinkSpec::paper_default();
  const core::LinkConfig cfg = spec.to_link_config();
  const auto channel =
      api::ChannelFactory::instance().create(spec.channel, cfg);
  const stat::StatReport a = StatAnalyzer().analyze(cfg, *channel);
  const stat::StatReport b = StatAnalyzer().analyze(cfg, *channel);
  EXPECT_EQ(api::to_json(a).dump(), api::to_json(b).dump());
}

/// The margins-only report must be the full one with its two contour
/// vectors cleared, byte for byte, and its best-phase eye height must be
/// the full contour's opening there (the middle sub-eye under PAM4).
void expect_margins_only_matches(const api::RunReport& full,
                                 const api::RunReport& margins,
                                 const std::string& label) {
  ASSERT_TRUE(full.stat.has_value()) << label;
  ASSERT_TRUE(margins.stat.has_value()) << label;
  const stat::StatReport& f = *full.stat;
  const stat::StatReport& m = *margins.stat;
  EXPECT_TRUE(m.contour_high_v.empty()) << label;
  EXPECT_TRUE(m.contour_low_v.empty()) << label;
  ASSERT_EQ(f.contour_high_v.size(), f.bathtub_ber.size()) << label;
  ASSERT_EQ(f.contour_low_v.size(), f.bathtub_ber.size()) << label;
  const auto best = static_cast<std::size_t>(
      std::min_element(f.bathtub_ber.begin(), f.bathtub_ber.end()) -
      f.bathtub_ber.begin());
  const double height = f.contour_high_v[best] - f.contour_low_v[best];
  if (m.pam4_eye_height_v.empty()) {
    EXPECT_EQ(m.eye_height_v, height) << label;
  } else {
    ASSERT_EQ(m.pam4_eye_height_v.size(), 3u) << label;
    EXPECT_EQ(m.pam4_eye_height_v[1], height) << label;
  }
  api::RunReport cleared = full;
  cleared.stat->contour_high_v.clear();
  cleared.stat->contour_low_v.clear();
  EXPECT_EQ(api::to_json(margins).dump(), api::to_json(cleared).dump())
      << label;
}

TEST(StatAnalyzerTest, MarginsOnlyMatchesFullAnalysis) {
  api::Simulator::Options margins_only;
  margins_only.stat_contours = false;
  const api::Simulator full_sim;
  const api::Simulator margins_sim(margins_only);
  // Runs `spec` both ways, compares, and returns the full report.  Each
  // mode runs again inside a one-worker parallel_for, where the engine's
  // phases run inline instead of fanning out: the same bytes.
  const auto check = [&](const std::string& label,
                         const api::LinkSpec& spec) {
    api::RunReport full = full_sim.run(spec);
    const api::RunReport margins = margins_sim.run(spec);
    expect_margins_only_matches(full, margins, label);
    api::RunReport inline_full;
    api::RunReport inline_margins;
    util::parallel_for(1, 1, [&](std::size_t) {
      inline_full = full_sim.run(spec);
      inline_margins = margins_sim.run(spec);
    });
    EXPECT_EQ(api::to_json(inline_full).dump(), api::to_json(full).dump())
        << label;
    EXPECT_EQ(api::to_json(inline_margins).dump(),
              api::to_json(margins).dump())
        << label;
    return full.stat.value();
  };

  api::LinkSpec paper = api::LinkSpec::paper_default();
  paper.analysis = "stat";
  EXPECT_LE(check("paper default", paper).isi_cursors, 12);  // exact
  const api::LinkSpec lossy =
      api::LinkBuilder()
          .channel(api::ChannelSpec::lossy_line(8.0, 12.0, 4.0))
          .noise_rms(0.004)
          .analysis("stat")
          .build_spec();
  EXPECT_GT(check("lossy line", lossy).isi_cursors, 12);  // grid mixture
  const api::LinkSpec dfe =
      api::LinkBuilder()
          .channel(api::ChannelSpec::fir({0.8, 0.15, 0.05}))
          .noise_rms(0.002)
          .dfe({0.01, 0.005, 0.002})
          .analysis("stat")
          .build_spec();
  EXPECT_EQ(check("fir + dfe", dfe).dfe_taps_applied.size(), 3u);
  const api::LinkSpec burst = api::LinkBuilder()
                                  .channel(api::ChannelSpec::flat(34.0))
                                  .noise_rms(0.004)
                                  .dfe({0.04, 0.015, 0.005})
                                  .analysis("stat")
                                  .build_spec();
  EXPECT_GT(check("dfe burst", burst).dfe_burst_factor, 1.0);
  api::LinkSpec jitter = paper;
  jitter.analysis = "both";
  jitter.payload_bits = 4096;
  jitter.chunk_bits = 4096;
  jitter.random_jitter_s = 20e-12;
  jitter.sinusoidal_jitter_s = 50e-12;
  EXPECT_TRUE(check("rj + sj", jitter).cross_checked);
  api::LinkSpec closed = paper;
  closed.noise_rms_v = 0.05;
  EXPECT_LT(check("closed eye", closed).eye_height_v, 0.0);
  const api::LinkSpec pam4 = api::LinkBuilder()
                                 .channel(api::ChannelSpec::flat(4.0))
                                 .modulation("pam4")
                                 .noise_rms(0.005)
                                 .analysis("stat")
                                 .build_spec();
  EXPECT_EQ(check("pam4", pam4).pam4_eye_height_v.size(), 3u);

  // A PAM4 bus with FEXT and NEXT: every lane's mixture carries the
  // aggressor cursors, and all three sub-eyes are bisected at the best
  // phase.
  api::BusSpec bus;
  bus.name = "margins_bus";
  bus.lanes = 3;
  bus.base = api::LinkBuilder()
                 .channel(api::ChannelSpec::flat(4.0))
                 .modulation("pam4")
                 .noise_rms(0.005)
                 .analysis("stat")
                 .build_spec();
  bus.coupling.assign(3, std::vector<double>(3, 0.0));
  bus.next_coupling.assign(3, std::vector<double>(3, 0.0));
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t a = 0; a < 3; ++a) {
      if (a + 1 == v || v + 1 == a) {
        bus.coupling[v][a] = 0.03;
        bus.next_coupling[v][a] = 0.01;
      }
    }
  }
  const api::BusReport full_bus = full_sim.run_bus(bus, 1);
  const api::BusReport margins_bus = margins_sim.run_bus(bus, 1);
  ASSERT_EQ(full_bus.lanes.size(), 3u);
  ASSERT_EQ(margins_bus.lanes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_margins_only_matches(full_bus.lanes[i], margins_bus.lanes[i],
                                "pam4 bus lane " + std::to_string(i));
  }
}

TEST(SimulatorAnalysisModes, StatSkipsMonteCarloEntirely) {
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.analysis = "stat";
  const api::RunReport report = api::Simulator().run(spec);
  ASSERT_TRUE(report.stat.has_value());
  EXPECT_FALSE(report.stat->cross_checked);
  EXPECT_EQ(report.bits, 0u);
  EXPECT_FALSE(report.aligned);
}

TEST(SimulatorAnalysisModes, McOmitsStatReport) {
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.payload_bits = 4096;
  const api::RunReport report = api::Simulator().run(spec);
  EXPECT_FALSE(report.stat.has_value());
  EXPECT_GT(report.bits, 0u);
}

TEST(SimulatorAnalysisModes, InvalidAnalysisIsRejectedWithFieldPath) {
  api::LinkSpec spec;
  spec.analysis = "statt";
  const auto issue = spec.first_issue();
  EXPECT_EQ(issue.field, "analysis");
  EXPECT_FALSE(issue.ok());
}

TEST(SimulatorAnalysisModes, StatReportJsonRoundTripsExactly) {
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.analysis = "stat";
  const api::RunReport report = api::Simulator().run(spec);
  const std::string once = api::to_json(report).dump();
  const api::RunReport reparsed =
      api::run_report_from_json(util::Json::parse(once));
  EXPECT_EQ(api::to_json(reparsed).dump(), once);
  ASSERT_TRUE(reparsed.stat.has_value());
  EXPECT_EQ(reparsed.stat->bathtub_ber.size(),
            report.stat->bathtub_ber.size());
}

// ---------------------------------------------------------------------------
// MC-vs-stat cross-validation: the heart of the "both" regression tier.
// ---------------------------------------------------------------------------

/// One "both" run; asserts the MC BER landed inside the predicted band.
void expect_consistent(api::ChannelSpec channel, double noise_rms,
                       std::uint64_t payload_bits,
                       std::uint64_t chunk_bits = 4096) {
  api::LinkSpec spec;
  spec.name = "cross_check";
  spec.channel = std::move(channel);
  spec.noise_rms_v = noise_rms;
  spec.payload_bits = payload_bits;
  spec.chunk_bits = chunk_bits;
  spec.analysis = "both";
  const api::RunReport report = api::Simulator().run(spec);
  ASSERT_TRUE(report.stat.has_value()) << spec.channel.kind;
  const stat::StatReport& s = *report.stat;
  EXPECT_TRUE(s.cross_checked) << spec.channel.kind;
  EXPECT_TRUE(s.consistent)
      << spec.channel.kind << ": mc_ber=" << s.mc_ber << " ("
      << report.errors << "/" << report.bits << ") outside band ["
      << s.band_low << ", " << s.band_high << "], stat min_ber="
      << s.min_ber;
  EXPECT_LE(s.band_low, s.band_high);
}

TEST(McVsStat, FlatChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::flat(34.0), 0.006, 100000);
}

TEST(McVsStat, RcChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::rc(2.5e9, 24.0), 0.004, 100000);
}

TEST(McVsStat, LossyLineChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::lossy_line(8.0, 8.0, 6.0), 0.015,
                    100000);
}

TEST(McVsStat, FirChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::fir({0.1, 0.55, 0.25, -0.08}), 0.08,
                    100000);
}

TEST(McVsStat, DeepBerScenarioStaysErrorFreeAndConsistent) {
  // At the paper operating point MC sees zero errors; the stat engine must
  // agree that zero errors over this many bits is the expected outcome.
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.payload_bits = 20000;
  spec.analysis = "both";
  const api::RunReport report = api::Simulator().run(spec);
  ASSERT_TRUE(report.stat.has_value());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_TRUE(report.stat->consistent);
  EXPECT_LT(report.stat->band_high, 1e-6);
}

// ---- SlowDeep tier: nightly-depth sweeps --------------------------------

TEST(SlowDeep, CrossValidationAtOneMillionBits) {
  expect_consistent(api::ChannelSpec::flat(34.0), 0.006, 1u << 20);
  // Dispersive channels truncate a couple of tail bits per chunk, so the
  // deep runs use one chunk: the chunked accounting otherwise tops the
  // payload up with tiny catch-up chunks whose framing failures measure
  // the deframer, not the slicer.
  expect_consistent(api::ChannelSpec::rc(2.5e9, 24.0), 0.004, 1u << 20,
                    1u << 20);
  expect_consistent(api::ChannelSpec::lossy_line(8.0, 8.0, 6.0), 0.015,
                    1u << 20, 1u << 20);
  expect_consistent(api::ChannelSpec::fir({0.1, 0.55, 0.25, -0.08}), 0.08,
                    1u << 20, 1u << 20);
}

TEST(SlowDeep, NoiseSweepStaysConsistentOnFlatChannel) {
  for (const double noise : {0.004, 0.006, 0.008, 0.010}) {
    expect_consistent(api::ChannelSpec::flat(34.0), noise, 1u << 18);
  }
}

}  // namespace
}  // namespace serdes
