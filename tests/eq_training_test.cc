// Link-training regression tier: sign-sign LMS convergence bounds, the
// trained/fixed contract on RunReport, byte-determinism of trained runs
// across engines and thread counts, and the DFE's interaction with the
// CDR glitch filter — including the all-zero-tap identity (a DFE whose
// every tap is 0.0 must be bit-identical to no DFE at all, on the
// scalar, PAM4 and lane-tiled sinks alike).
#include "core/eq_training.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "api/channel_factory.h"
#include "api/link_builder.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "util/parallel.h"

namespace serdes {
namespace {

using api::LinkBuilder;
using api::LinkSpec;
using api::RunReport;
using api::Simulator;

/// The lossy operating point where fixed knobs lose the link but
/// training rescues it (same channel as examples/specs/trained_ci.json,
/// shorter payload for test budget).
LinkSpec lossy_spec(std::uint64_t payload_bits) {
  return LinkBuilder()
      .channel(api::ChannelSpec::lossy_line(8.0, 12.0, 4.0))
      .noise_rms(0.004)
      .payload_bits(payload_bits)
      .chunk_bits(4096)
      .seed(20260808)
      .build_spec();
}

// ---- Sign-sign LMS convergence ---------------------------------------

TEST(EqTraining, NoIsiChannelTrainsNearZeroTaps) {
  // A flat channel has no post-cursor ISI, so a converged DFE has
  // nothing to cancel: every tap must settle near zero relative to the
  // trained reference amplitude.
  const auto spec = LinkBuilder()
                        .flat_channel(util::decibels(6.0))
                        .noise_rms(0.002)
                        .payload_bits(4096)
                        .eq("trained")
                        .training_uis(4096)
                        .build_spec();
  const RunReport report = Simulator().run(spec);
  ASSERT_TRUE(report.training.has_value());
  const auto& training = *report.training;
  ASSERT_FALSE(training.dfe_taps.empty());
  ASSERT_GT(training.amplitude, 0.0);
  for (const double tap : training.dfe_taps) {
    EXPECT_LT(std::fabs(tap), 0.05 * training.amplitude)
        << "no-ISI channel converged a materially nonzero tap";
  }
  EXPECT_TRUE(report.error_free());
}

TEST(EqTraining, PostCursorChannelConverges) {
  // One brutal post-cursor: h = [0.7, 0.3] leaves the untrained link
  // near coin-flip BER (thousands of errors in 8k bits), and the ISI is
  // beyond the DFE clamp's reach — convergence must engage the TX FFE
  // de-emphasis, the outer loop's escalation path.  The trained link
  // runs clean.
  const auto spec = LinkBuilder()
                        .channel(api::ChannelSpec::fir({0.7, 0.3}))
                        .noise_rms(0.003)
                        .payload_bits(8192)
                        .build_spec();
  const Simulator sim;
  const RunReport fixed = sim.run(spec);
  EXPECT_GT(fixed.errors, 1000u);

  const auto trained_spec =
      LinkBuilder(spec).eq("trained").training_uis(4096).build_spec();
  const RunReport trained = sim.run(trained_spec);
  EXPECT_TRUE(trained.aligned);
  EXPECT_EQ(trained.errors, 0u);
  ASSERT_TRUE(trained.training.has_value());
  const auto& training = *trained.training;
  EXPECT_GT(training.tx_ffe_deemphasis, 0.0)
      << "the outer loop never escalated to the TX FFE";
  EXPECT_GT(training.amplitude, 0.0);
  EXPECT_EQ(training.training_uis, 4096);
  EXPECT_GT(training.passes, 0);
}

TEST(EqTraining, TrainedRescuesTheFixedLink) {
  // The PR's headline contract: on the trained_ci channel the authored
  // (all-default) EQ drops hundreds of bits while the trained link runs
  // clean — and the report keeps the authored spec, with the converged
  // settings only in report.training.
  const Simulator sim;
  const RunReport fixed = sim.run(lossy_spec(20000));
  EXPECT_GT(fixed.errors, 0u);

  const auto trained_spec = LinkBuilder(lossy_spec(20000))
                                .eq("trained")
                                .training_uis(4096)
                                .build_spec();
  const RunReport trained = sim.run(trained_spec);
  EXPECT_TRUE(trained.aligned);
  EXPECT_EQ(trained.errors, 0u);
  ASSERT_TRUE(trained.training.has_value());
  // The spec echoed in the report is the authored one, not the trained
  // settings: eq stays "trained" and the EQ knobs keep their defaults.
  EXPECT_EQ(trained.spec.eq, "trained");
  EXPECT_TRUE(trained.spec.dfe_taps.empty());
  EXPECT_EQ(trained.spec.rx_ctle_boost_db, 0.0);
  // The converged link actually changed something.
  const auto& training = *trained.training;
  const bool moved = training.rx_ctle_boost_db != 0.0 ||
                     training.tx_ffe_deemphasis != 0.0;
  EXPECT_TRUE(moved) << "training converged to the authored settings on a "
                        "channel the authored settings lose";
  // A fixed run never carries a training section.
  EXPECT_FALSE(fixed.training.has_value());
}

TEST(EqTraining, TrainedRunsAreByteDeterministic) {
  const auto spec = LinkBuilder(lossy_spec(10000))
                        .eq("trained")
                        .training_uis(2048)
                        .build_spec();
  const std::string once = api::to_json(Simulator().run(spec)).dump(2);
  const std::string twice = api::to_json(Simulator().run(spec)).dump(2);
  EXPECT_EQ(once, twice);
}

TEST(EqTraining, BatchReportsInvariantToThreadCount) {
  // Three trained lanes through run_batch at 1 and at 3 threads: lane i
  // must come back byte-identical either way (trained lanes take the
  // scalar path — tile grouping excludes them — but the determinism
  // contract is the same one the tiled lanes honor).
  std::vector<LinkSpec> lanes;
  for (int i = 0; i < 3; ++i) {
    lanes.push_back(LinkBuilder(lossy_spec(6000))
                        .eq("trained")
                        .training_uis(1024)
                        .build_spec());
    lanes.back().name = "lane" + std::to_string(i);
  }
  const Simulator sim;
  const auto serial = sim.run_batch(lanes, 1);
  const auto threaded = sim.run_batch(lanes, 3);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(api::to_json(serial[i]).dump(2),
              api::to_json(threaded[i]).dump(2))
        << "lane " << i << " drifted across thread counts";
  }
}

// ---- Candidate fan-out ------------------------------------------------

/// The bits of a training result, for exact comparison.
std::vector<std::uint64_t> result_bits(const core::TrainingResult& r) {
  std::vector<std::uint64_t> out = {
      std::bit_cast<std::uint64_t>(r.tx_ffe_deemphasis),
      std::bit_cast<std::uint64_t>(r.rx_ctle_boost_db),
      std::bit_cast<std::uint64_t>(r.amplitude)};
  for (const double t : r.dfe_taps) out.push_back(std::bit_cast<std::uint64_t>(t));
  return out;
}

/// Trains `spec`'s link at top level, where each coordinate step replays
/// its candidates concurrently, and inside a one-worker parallel_for,
/// where they replay inline; the two results must match bit for bit.
core::TrainingResult expect_fan_out_matches_inline(const LinkSpec& spec) {
  const core::LinkConfig cfg = spec.to_link_config();
  const auto channel =
      api::ChannelFactory::instance().create(spec.channel, cfg);
  const core::TrainingResult top =
      core::train_equalizer(cfg, *channel, spec.training_uis, 3);
  core::TrainingResult nested;
  util::parallel_for(1, 1, [&](std::size_t) {
    nested = core::train_equalizer(cfg, *channel, spec.training_uis, 3);
  });
  EXPECT_EQ(result_bits(top), result_bits(nested)) << spec.modulation;
  return top;
}

TEST(EqTraining, CandidateFanOutMatchesInlineNrz) {
  // Alpha starts at 0, so every FFE step's clamped `alpha - step`
  // candidate equals the knob: skipped, or replayed late once the other
  // candidate has moved the knob.  The lossy line moves a knob, so
  // accepted candidates are in the comparison too.
  const LinkSpec spec = lossy_spec(4096);
  ASSERT_EQ(spec.tx_ffe_deemphasis, 0.0);
  const core::TrainingResult trained = expect_fan_out_matches_inline(spec);
  EXPECT_TRUE(trained.rx_ctle_boost_db != 0.0 ||
              trained.tx_ffe_deemphasis != 0.0);
}

TEST(EqTraining, CandidateFanOutMatchesInlinePam4) {
  const LinkSpec spec = LinkBuilder()
                            .channel(api::ChannelSpec::rc(0.6e9, 6.0))
                            .modulation("pam4")
                            .noise_rms(0.008)
                            .seed(20261016)
                            .build_spec();
  expect_fan_out_matches_inline(spec);
}

// ---- DFE / glitch-filter interaction ---------------------------------

/// Strips the fields that legitimately differ between a zero-tap-DFE
/// spec and a DFE-free spec, leaving everything the datapath produced.
std::string observable_json(const RunReport& report) {
  util::Json j = api::to_json(report);
  j.set("spec", util::Json::object({}));
  return j.dump(2);
}

TEST(Dfe, AllZeroTapsBitIdenticalToNoDfeScalar) {
  const auto base = LinkBuilder(lossy_spec(10000))
                        .capture_waveforms()
                        .build_spec();
  const auto zeros =
      LinkBuilder(base).dfe({0.0, 0.0, 0.0}).build_spec();
  const Simulator sim;
  EXPECT_EQ(observable_json(sim.run(base)), observable_json(sim.run(zeros)));
}

TEST(Dfe, AllZeroTapsBitIdenticalToNoDfePam4) {
  const auto base = LinkBuilder()
                        .modulation("pam4")
                        .channel(api::ChannelSpec::fir({0.8, 0.15}))
                        .noise_rms(0.002)
                        .payload_bits(8192)
                        .capture_waveforms()
                        .build_spec();
  const auto zeros = LinkBuilder(base).dfe({0.0, 0.0}).build_spec();
  const Simulator sim;
  EXPECT_EQ(observable_json(sim.run(base)), observable_json(sim.run(zeros)));
}

TEST(Dfe, AllZeroTapsBitIdenticalToNoDfeLaneTile) {
  // The SoA lane path models the DFE too: a zero-tap tile must match the
  // DFE-free tile lane for lane.
  auto make_lanes = [](std::vector<double> taps) {
    std::vector<LinkSpec> lanes;
    for (int i = 0; i < 4; ++i) {
      auto spec = LinkBuilder(lossy_spec(8000))
                      .dfe(taps)
                      .lane_batch(4)
                      .build_spec();
      spec.name = "lane" + std::to_string(i);
      spec.seed = Simulator::derive_lane_seed(spec.seed, i);
      lanes.push_back(spec);
    }
    return lanes;
  };
  const Simulator sim;
  const auto base = sim.run_lane_tile(make_lanes({}));
  const auto zeros = sim.run_lane_tile(make_lanes({0.0, 0.0, 0.0}));
  ASSERT_EQ(base.size(), zeros.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(observable_json(base[i]), observable_json(zeros[i]))
        << "lane " << i;
  }
}

TEST(Dfe, CorrectionReachesTheGlitchFilterNeighborhood) {
  // The glitch filter votes over the sample and its +/-radius
  // neighbours; the DFE correction must be subtracted from the whole
  // neighborhood, not just the center sample, or a strong tap would
  // flip the outer votes and manufacture errors.  A link whose DFE
  // cancels heavy post-cursor ISI must therefore stay clean at every
  // filter radius.
  for (const int radius : {0, 1, 2}) {
    const auto spec = LinkBuilder(lossy_spec(10000))
                          .rx_ctle(util::decibels(1.0))
                          .tx_ffe_deemphasis(0.1)
                          .dfe({0.003, 0.002, -0.007})
                          .cdr_glitch_filter(radius)
                          .build_spec();
    const RunReport report = Simulator().run(spec);
    EXPECT_TRUE(report.aligned) << "radius " << radius;
    EXPECT_LE(report.errors, 2u) << "radius " << radius;
  }
}

TEST(Dfe, LaneTileMatchesScalarWithLiveTaps) {
  // Nonzero taps through the lane-tiled sink, checked against the
  // scalar sink lane for lane — the PR 7 bit-identity contract extends
  // to the DFE feedback path.
  std::vector<LinkSpec> lanes;
  for (int i = 0; i < 4; ++i) {
    auto spec = LinkBuilder(lossy_spec(8000))
                    .dfe({0.004, -0.002})
                    .lane_batch(4)
                    .build_spec();
    spec.name = "lane" + std::to_string(i);
    spec.seed = Simulator::derive_lane_seed(spec.seed, i);
    lanes.push_back(spec);
  }
  const Simulator sim;
  const auto tiled = sim.run_lane_tile(lanes);
  ASSERT_EQ(tiled.size(), lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_EQ(api::to_json(tiled[i]).dump(2),
              api::to_json(sim.run(lanes[i])).dump(2))
        << "lane " << i;
  }
}

}  // namespace
}  // namespace serdes
