// Eye analysis, sensitivity sweeps and the cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "api/link_builder.h"
#include "channel/channel.h"
#include "core/cost_model.h"
#include "core/eye.h"
#include "core/link.h"
#include "analog/filters.h"
#include "core/sensitivity.h"
#include "util/prbs.h"
#include "util/random.h"

namespace serdes::core {
namespace {

TEST(Eye, CleanNrzEyeIsWideOpen) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto bits = prbs.next_bits(400);
  auto w = analog::Waveform::nrz(bits, util::nanoseconds(0.5), 32, 0.0, 1.0,
                                 util::picoseconds(50.0));
  EyeAnalyzer eye(util::gigahertz(2.0));
  const auto m = eye.analyze(w, 0.5);
  EXPECT_TRUE(m.open());
  EXPECT_GT(m.eye_height, 0.9);   // sharp edges: nearly full swing
  EXPECT_GT(m.eye_width_ui, 0.7);
  EXPECT_GE(m.best_phase_ui, 0.0);
  EXPECT_LE(m.best_phase_ui, 1.0);
}

TEST(Eye, NoiseClosesEyeVertically) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto bits = prbs.next_bits(400);
  auto clean = analog::Waveform::nrz(bits, util::nanoseconds(0.5), 32, 0.0,
                                     1.0, util::picoseconds(100.0));
  auto noisy = clean;
  util::Rng rng(5);
  noisy.add_noise(rng, 0.1);
  EyeAnalyzer eye(util::gigahertz(2.0));
  EXPECT_LT(eye.analyze(noisy, 0.5).eye_height,
            eye.analyze(clean, 0.5).eye_height);
}

TEST(Eye, ClosedEyeReportsNonPositiveHeight) {
  // Pure noise: no eye at all.
  auto w = analog::Waveform::constant(util::seconds(0.0),
                                      util::Second{15.625e-12}, 20000, 0.5);
  util::Rng rng(6);
  w.add_noise(rng, 0.3);
  EyeAnalyzer eye(util::gigahertz(2.0));
  const auto m = eye.analyze(w, 0.5);
  EXPECT_LE(m.eye_height, 0.05);
}

TEST(Eye, BandwidthLimitedEyeSmaller) {
  // A band-limited (one-pole filtered) eye loses vertical opening to ISI.
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto bits = prbs.next_bits(300);
  auto sharp = analog::Waveform::nrz(bits, util::nanoseconds(0.5), 32, 0.0,
                                     1.0, util::picoseconds(20.0));
  auto slow = sharp;
  analog::OnePoleLowPass lpf(util::megahertz(600.0),
                             slow.sample_period());
  lpf.process(slow);
  EyeAnalyzer eye(util::gigahertz(2.0));
  EXPECT_LT(eye.analyze(slow, 0.5).eye_height,
            eye.analyze(sharp, 0.5).eye_height);
}

/// Waveform::value_at as it was before the interpolation moved inline:
/// one out-of-line call per time point.
double reference_value_at(const analog::Waveform& w, util::Second t) {
  const std::vector<double>& s = w.samples();
  if (s.empty()) return 0.0;
  const double idx = (t - w.start_time()) / w.sample_period();
  if (idx <= 0.0) return s.front();
  const auto lo = static_cast<std::size_t>(idx);
  if (lo + 1 >= s.size()) return s.back();
  const double frac = idx - static_cast<double>(lo);
  return s[lo] + frac * (s[lo + 1] - s[lo]);
}

/// Reference fold with the phase-bin edges recomputed per call and one
/// reference_value_at per bin — the formula EyeAnalyzer used before the
/// offsets were hoisted to construction and the bins were split into
/// flat index / read / update passes.  The library fold must match it bit
/// for bit.
EyeAnalyzer::FoldedEye reference_fold(const analog::Waveform& w,
                                      util::Hertz bit_rate, int bins,
                                      double threshold, int skip_uis = 8) {
  EyeAnalyzer::FoldedEye eye;
  eye.high_min.assign(static_cast<std::size_t>(bins),
                      std::numeric_limits<double>::infinity());
  eye.low_max.assign(static_cast<std::size_t>(bins),
                     -std::numeric_limits<double>::infinity());
  const double ui = util::period(bit_rate).value();
  const double t_start = w.start_time().value() + skip_uis * ui;
  const double t_end = w.end_time().value();
  const auto total_uis = static_cast<std::int64_t>((t_end - t_start) / ui) - 1;
  for (std::int64_t n = 0; n < total_uis; ++n) {
    const double t0 = t_start + static_cast<double>(n) * ui;
    const bool high =
        reference_value_at(w, util::seconds(t0 + 0.5 * ui)) > threshold;
    for (int b = 0; b < bins; ++b) {
      const double t = t0 + (static_cast<double>(b) + 0.5) * ui / bins;
      const double v = reference_value_at(w, util::seconds(t));
      auto& hm = eye.high_min[static_cast<std::size_t>(b)];
      auto& lm = eye.low_max[static_cast<std::size_t>(b)];
      if (high) {
        hm = std::min(hm, v);
      } else {
        lm = std::max(lm, v);
      }
    }
  }
  for (int b = 0; b < bins; ++b) {
    auto& hm = eye.high_min[static_cast<std::size_t>(b)];
    auto& lm = eye.low_max[static_cast<std::size_t>(b)];
    if (!std::isfinite(hm)) hm = threshold;
    if (!std::isfinite(lm)) lm = threshold;
  }
  return eye;
}

TEST(Eye, FoldedEyeBinAssignmentPinnedAgainstPerCallEdges) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto bits = prbs.next_bits(300);
  auto w = analog::Waveform::nrz(bits, util::nanoseconds(0.5), 16, 0.0, 1.8,
                                 util::picoseconds(100.0));
  util::Rng rng(11);
  w.add_noise(rng, 0.02);
  for (const int bins : {8, 64}) {
    const EyeAnalyzer eye(util::gigahertz(2.0), bins);
    const auto hoisted = eye.fold(w, 0.9);
    const auto reference =
        reference_fold(w, util::gigahertz(2.0), bins, 0.9);
    ASSERT_EQ(hoisted.high_min.size(), static_cast<std::size_t>(bins));
    for (int b = 0; b < bins; ++b) {
      const auto i = static_cast<std::size_t>(b);
      EXPECT_EQ(hoisted.high_min[i], reference.high_min[i])
          << "bins=" << bins << " b=" << b;
      EXPECT_EQ(hoisted.low_max[i], reference.low_max[i])
          << "bins=" << bins << " b=" << b;
      EXPECT_EQ(eye.bin_phase_offset(b),
                (static_cast<double>(b) + 0.5) *
                    util::period(util::gigahertz(2.0)).value() / bins)
          << "bins=" << bins << " b=" << b;
    }
  }
}

/// True when both folds hold the same bits in every bin.
bool same_fold_bits(const EyeAnalyzer::FoldedEye& a,
                    const EyeAnalyzer::FoldedEye& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return same(a.high_min, b.high_min) && same(a.low_max, b.low_max);
}

TEST(Eye, FoldMatchesValueAtReferenceOnLinkCapturesAndEdges) {
  const util::Hertz rate = util::gigahertz(2.0);
  const EyeAnalyzer eye(rate, 64);
  // Restored captures of flat, RC and lossy-line links.
  for (const api::ChannelSpec& ch :
       {api::ChannelSpec::flat(20.0), api::ChannelSpec::rc(2.5e9, 6.0),
        api::ChannelSpec::lossy_line(4.0, 6.0, 4.0)}) {
    api::LinkBuilder builder;
    builder.payload_bits(1024).chunk_bits(1024).channel(ch).capture_waveforms(
        true);
    core::SerDesLink link = builder.build_link();
    const auto result = link.run_prbs(1024);
    const double threshold = link.receiver().decision_threshold();
    ASSERT_GT(result.rx.restored.size(), 1000u) << ch.kind;
    EXPECT_TRUE(same_fold_bits(
        eye.fold(result.rx.restored, threshold),
        reference_fold(result.rx.restored, rate, 64, threshold)))
        << ch.kind;
  }
  // Edges: fewer UIs than skip_uis (nothing folds at skip 8), one sample
  // held across many UIs, and sampling coarser than the UI, whose last
  // folded UIs read bins past the last sample (the end clamp).  A negative
  // skip reads bins before the first sample (the start clamp).
  std::vector<double> wave(100);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i] = std::sin(0.37 * static_cast<double>(i));
  }
  const analog::Waveform few_uis{util::seconds(0.0), util::picoseconds(31.25),
                                 wave};
  const analog::Waveform one_sample{util::seconds(1e-9),
                                    util::nanoseconds(10.0), {0.7}};
  const analog::Waveform coarse{util::picoseconds(-130.0),
                                util::nanoseconds(1.0), wave};
  for (const int skip : {8, 0, -2}) {
    for (const analog::Waveform* w : {&few_uis, &one_sample, &coarse}) {
      EXPECT_TRUE(same_fold_bits(eye.fold(*w, 0.1, skip),
                                 reference_fold(*w, rate, 64, 0.1, skip)))
          << "skip " << skip << " size " << w->size();
    }
  }
}

TEST(Eye, FoldIdenticalForStreamBlockSizesOneAnd4096) {
  // The folded eye of a captured link waveform must not depend on the
  // streaming block size the capture flowed through (block sizes 1 and
  // 4096 bracket the chunking extremes).
  EyeAnalyzer::FoldedEye folds[2];
  std::size_t idx = 0;
  for (const std::uint64_t block : {std::uint64_t{1}, std::uint64_t{4096}}) {
    api::LinkBuilder builder;
    builder.payload_bits(512)
        .chunk_bits(512)
        .stream_block_samples(block)
        .capture_waveforms(true);
    core::SerDesLink link = builder.build_link();
    const auto result = link.run_prbs(512);
    ASSERT_TRUE(result.aligned) << "block=" << block;
    const EyeAnalyzer eye(util::gigahertz(2.0), 64);
    folds[idx++] =
        eye.fold(result.rx.restored, link.receiver().decision_threshold());
  }
  ASSERT_EQ(folds[0].high_min.size(), folds[1].high_min.size());
  for (std::size_t b = 0; b < folds[0].high_min.size(); ++b) {
    EXPECT_EQ(folds[0].high_min[b], folds[1].high_min[b]) << "bin " << b;
    EXPECT_EQ(folds[0].low_max[b], folds[1].low_max[b]) << "bin " << b;
  }
}

TEST(Eye, ValidatesBins) {
  EXPECT_THROW(EyeAnalyzer(util::gigahertz(2.0), 4), std::invalid_argument);
}

TEST(Eye, LinkEyeOpenAtPaperPoint) {
  SerDesLink link =
      api::LinkBuilder().flat_channel(util::decibels(34.0)).build_link();
  const auto r = link.run_prbs(1024);
  EyeAnalyzer eye(util::gigahertz(2.0));
  const auto m = eye.analyze(r.rx.restored, link.receiver().decision_threshold());
  EXPECT_TRUE(m.open());
  EXPECT_GT(m.eye_height, 0.2);
}

TEST(Sensitivity, At2GbpsNearPaperValue) {
  // Paper: 32 mV at 2 GHz.  Model calibration places this in the tens of
  // millivolts; the test pins the decade, not the digit.
  SensitivitySweepConfig sweep;
  sweep.bits_per_trial = 1200;
  const double s = measure_sensitivity(LinkConfig::paper_default(),
                                       util::gigahertz(2.0), sweep);
  EXPECT_GT(s, 0.005);
  EXPECT_LT(s, 0.08);
}

TEST(Sensitivity, LowRateFloorNearPaperValue) {
  // Paper Fig 9: ~15 mV at the low-frequency end.
  SensitivitySweepConfig sweep;
  sweep.bits_per_trial = 1200;
  const double s = measure_sensitivity(LinkConfig::paper_default(),
                                       util::megahertz(10.0), sweep);
  EXPECT_GT(s, 0.004);
  EXPECT_LT(s, 0.04);
}

TEST(Sensitivity, MaxLossShrinksWithRate) {
  // Fig 9's right axis: tolerable channel loss falls as rate rises.
  SensitivitySweepConfig sweep;
  sweep.bits_per_trial = 1200;
  const LinkConfig cfg = LinkConfig::paper_default();
  const double loss_low =
      measure_max_channel_loss(cfg, util::megahertz(10.0), sweep);
  const double loss_high =
      measure_max_channel_loss(cfg, util::gigahertz(2.0), sweep);
  EXPECT_GT(loss_low, loss_high);
  EXPECT_GT(loss_low, 40.0);   // ~50 dB regime at low rates
  EXPECT_LT(loss_high, 45.0);  // tens of dB at 2 Gbps
}

TEST(Sensitivity, SweepReturnsAllPoints) {
  SensitivitySweepConfig sweep;
  sweep.bits_per_trial = 600;
  const std::vector<util::Hertz> rates = {util::megahertz(10.0),
                                          util::gigahertz(1.0)};
  const auto points = sensitivity_sweep(LinkConfig::paper_default(), rates,
                                        sweep);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].bit_rate.value(), 10e6);
  EXPECT_GT(points[0].sensitivity_v, 0.0);
  EXPECT_GT(points[0].max_channel_loss_db, 0.0);
}

TEST(CostModel, OpenPdkAlwaysCheaper) {
  const auto curve = asic_cost_curve();
  ASSERT_EQ(curve.size(), 6u);
  for (const auto& p : curve) {
    EXPECT_LT(p.open_total, p.conventional_total) << p.node_nm << " nm";
    EXPECT_DOUBLE_EQ(p.open_total, p.fab_cost);
    EXPECT_GT(p.pdk_license_cost, 0.0);
  }
}

TEST(CostModel, CostsGrowTowardSmallerNodes) {
  const auto curve = asic_cost_curve();
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i].node_nm, curve[i - 1].node_nm);
    EXPECT_GT(curve[i].fab_cost, curve[i - 1].fab_cost);
    EXPECT_GT(curve[i].conventional_total, curve[i - 1].conventional_total);
  }
}

TEST(CostModel, LicenseShareGrowsWithScaling) {
  // The licensing penalty worsens at advanced nodes (the paper's Fig 2
  // motivation for the open PDK).
  const auto curve = asic_cost_curve();
  const double share_90 = curve.front().pdk_license_cost /
                          curve.front().conventional_total;
  const double share_14 = curve.back().pdk_license_cost /
                          curve.back().conventional_total;
  EXPECT_GT(share_14, share_90);
}

TEST(CostModel, NormalizedAt90nm) {
  const auto curve = asic_cost_curve();
  EXPECT_DOUBLE_EQ(curve.front().node_nm, 90);
  EXPECT_DOUBLE_EQ(curve.front().fab_cost, 1.0);
}

}  // namespace
}  // namespace serdes::core
