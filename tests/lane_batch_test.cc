// Lane-tiling bit-identity contract (tier1): the SoA batched path —
// shared TX/channel instruction stream, per-lane AWGN/CTLE/RFI/restore
// state vectors, lane-batched sampler/CDR sink — must produce RunReports
// that are BYTE-identical to Simulator::run of each lane's spec, for every
// built-in channel kind, at any lane count (including ragged tails) and
// any thread count.  Identity is compared on to_json(report).dump(), so
// every field (BER statistics, lock diagnostics, eye metrics, captured
// waveform samples) participates in the contract.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/channel_factory.h"
#include "api/link_builder.h"
#include "api/link_spec.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "core/lane_link.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"

namespace serdes::api {
namespace {

/// Compact but complete scenario: two chunks (fresh per-chunk noise and
/// PRBS continuation cross lane-tile boundaries), FFE + CTLE + both
/// jitter terms + ppm offset, so every lane stage carries live state.
LinkSpec tile_spec(const ChannelSpec& channel) {
  LinkSpec spec = LinkBuilder()
                      .name("tile")
                      .channel(channel)
                      .payload_bits(512)
                      .chunk_bits(256)
                      .preamble_bits(128)
                      .cdr_window(16)
                      .tx_ffe_deemphasis(0.2)
                      .rx_ctle(util::decibels(3.0))
                      .sinusoidal_jitter(util::seconds(2e-12))
                      .ppm_offset(50.0)
                      .lane_batch(8)
                      .build_spec();
  return spec;
}

std::vector<ChannelSpec> builtin_channels() {
  return {
      ChannelSpec::flat(34.0),
      ChannelSpec::rc(2.5e9, 6.0),
      ChannelSpec::lossy_line(6.0, 18.0, 14.0),
      ChannelSpec::fir({0.6, 0.25, 0.1}),
      ChannelSpec::cascade({ChannelSpec::flat(20.0),
                            ChannelSpec::fir({0.7, 0.2})}),
  };
}

std::vector<LinkSpec> lane_specs(const ChannelSpec& channel, int lanes,
                                 bool capture = false) {
  std::vector<LinkSpec> specs;
  specs.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    LinkSpec spec = tile_spec(channel);
    spec.name = "lane" + std::to_string(i);
    spec.capture_waveforms = capture;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<std::string> render_batch(const Simulator& sim,
                                      const std::vector<LinkSpec>& specs,
                                      int threads) {
  std::vector<std::string> rendered;
  for (const RunReport& report : sim.run_batch(specs, threads)) {
    rendered.push_back(to_json(report).dump());
  }
  return rendered;
}

/// run_batch's scalar reference: run() of each lane's derived spec.
std::vector<std::string> render_scalar(const std::vector<LinkSpec>& specs) {
  const Simulator sim;
  std::vector<std::string> rendered;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    LinkSpec spec = specs[i];
    spec.seed = Simulator::derive_lane_seed(spec.seed, i);
    rendered.push_back(to_json(sim.run(spec)).dump());
  }
  return rendered;
}

TEST(LaneBatch, BitIdenticalToScalarForEveryChannelKind) {
  const Simulator tiled;
  for (const ChannelSpec& channel : builtin_channels()) {
    for (const int lanes : {1, 3, 8, 17}) {
      const std::vector<LinkSpec> specs = lane_specs(channel, lanes);
      const std::vector<std::string> reference = render_scalar(specs);
      for (const int threads : {1, 8}) {
        const std::vector<std::string> batched =
            render_batch(tiled, specs, threads);
        ASSERT_EQ(batched.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(batched[i], reference[i])
              << "channel " << channel.kind << ", " << lanes << " lanes, "
              << threads << " threads, lane " << i;
        }
      }
    }
  }
}

TEST(LaneBatch, CapturedWaveformsMatchScalarByteForByte) {
  const std::vector<LinkSpec> specs =
      lane_specs(ChannelSpec::rc(2.5e9, 6.0), 5, /*capture=*/true);
  const std::vector<std::string> reference = render_scalar(specs);
  const std::vector<std::string> batched =
      render_batch(Simulator(), specs, 2);
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "lane " << i;
  }
}

TEST(LaneBatch, MixedEligibilityBatchStaysBitIdentical) {
  // Tiled lanes, a PAM4 lane (never tiled) and a scalar (lane_batch = 1)
  // lane interleaved in one batch: grouping must keep report order and
  // per-lane seed derivation exactly as the scalar path computes them.
  std::vector<LinkSpec> specs = lane_specs(ChannelSpec::flat(34.0), 4);
  LinkSpec batchless = tile_spec(ChannelSpec::flat(34.0));
  batchless.name = "scalar";
  batchless.lane_batch = 1;
  specs.insert(specs.begin() + 1, batchless);
  LinkSpec pam4 = tile_spec(ChannelSpec::flat(34.0));
  pam4.name = "pam4";
  pam4.modulation = "pam4";
  pam4.tx_ffe_deemphasis = 0.0;
  specs.push_back(pam4);

  const std::vector<std::string> reference = render_scalar(specs);
  const std::vector<std::string> batched = render_batch(Simulator(), specs, 8);
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "slot " << i;
  }
}

TEST(LaneBatch, RunLaneTileMatchesRunPerLane) {
  // The tile primitive itself (seeds used exactly as given) against
  // Simulator::run on each lane spec.
  std::vector<LinkSpec> specs = lane_specs(ChannelSpec::fir({0.6, 0.3}), 6);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = 1000 + 17 * i;  // explicit, already-derived seeds
  }
  const Simulator sim;
  const std::vector<RunReport> tiled = sim.run_lane_tile(specs);
  ASSERT_EQ(tiled.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(to_json(tiled[i]).dump(), to_json(sim.run(specs[i])).dump())
        << "lane " << i;
  }
}

TEST(LaneBatch, UnalignedLanesMatchRunPerLane) {
  // Footage counts bits sent, so a lane whose chunk fails to align moves
  // on with its aligned neighbours, and one payload sequence serves the
  // whole tile.  At 12 mV rms behind a flat 34 dB channel some lanes lose
  // alignment on some chunks and others on none; each must still match
  // its own scalar run.
  std::vector<LinkSpec> specs;
  for (std::size_t i = 0; i < 16; ++i) {
    LinkSpec spec = LinkBuilder()
                        .name("lane" + std::to_string(i))
                        .channel(ChannelSpec::flat(34.0))
                        .noise_rms(0.012)
                        .payload_bits(1024)
                        .chunk_bits(256)
                        .preamble_bits(128)
                        .cdr_window(16)
                        .lane_batch(16)
                        .seed(7 + 13 * i)
                        .build_spec();
    specs.push_back(std::move(spec));
  }
  const Simulator sim;
  const std::vector<RunReport> tiled = sim.run_lane_tile(specs);
  ASSERT_EQ(tiled.size(), specs.size());
  int aligned = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(to_json(tiled[i]).dump(), to_json(sim.run(specs[i])).dump())
        << "lane " << i;
    aligned += tiled[i].aligned ? 1 : 0;
  }
  EXPECT_GT(aligned, 0);
  EXPECT_LT(aligned, 16);
}

TEST(LaneBatch, RunLaneTileRejectsLanesItCannotTile) {
  // Trained lanes would run untrained and PAM4 lanes would fail deep in
  // the chain, so both are rejected before any lane runs, by lane.
  const auto rejects = [](const std::vector<LinkSpec>& specs,
                          const std::string& lane) {
    try {
      (void)Simulator().run_lane_tile(specs);
      ADD_FAILURE() << "accepted a tile with " << lane;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(lane), std::string::npos) << what;
      EXPECT_NE(what.find("lane tiles run"), std::string::npos) << what;
    }
  };
  std::vector<LinkSpec> trained =
      lane_specs(ChannelSpec::lossy_line(6.0, 18.0, 14.0), 3);
  for (LinkSpec& spec : trained) spec.eq = "trained";
  rejects(trained, "lane 0 ('lane0')");

  std::vector<LinkSpec> pam4 = lane_specs(ChannelSpec::flat(34.0), 3);
  for (LinkSpec& spec : pam4) {
    spec.modulation = "pam4";
    spec.tx_ffe_deemphasis = 0.0;
  }
  rejects(pam4, "lane 0 ('lane0')");

  std::vector<LinkSpec> mixed = lane_specs(ChannelSpec::flat(34.0), 3);
  mixed[2].modulation = "pam4";
  mixed[2].tx_ffe_deemphasis = 0.0;
  rejects(mixed, "lane 2 ('lane2')");
}

TEST(LaneBatch, SweepWithLaneBatchStaysByteIdentical) {
  // A sweep whose base opts into lane_batch: scenarios that share physics
  // (here the seed axis varies only the per-lane degree of freedom) tile
  // together, scenarios on different noise axes land in separate tiles,
  // and the serialized report must stay byte-identical to the same sweep
  // run untiled (lane_batch 1, which a sweep report does not echo) at any
  // thread count.
  sweep::SweepSpec sweep;
  sweep.name = "lane_grid";
  sweep.base = tile_spec(ChannelSpec::flat(34.0));
  sweep.axes.push_back({"noise_rms_v",
                        {util::Json(0.001), util::Json(0.002)}});
  sweep.axes.push_back({"seed",
                        {util::Json(1.0), util::Json(2.0), util::Json(3.0)}});

  sweep::SweepSpec untiled = sweep;
  untiled.base.lane_batch = 1;
  sweep::SweepRunner::Options scalar_options;
  scalar_options.n_threads = 1;
  const std::string reference =
      sweep::to_json(sweep::SweepRunner(scalar_options).run(untiled)).dump(2);
  for (const int threads : {1, 4}) {
    sweep::SweepRunner::Options options;
    options.n_threads = threads;
    const std::string tiled =
        sweep::to_json(sweep::SweepRunner(options).run(sweep)).dump(2);
    EXPECT_EQ(tiled, reference) << threads << " threads";
  }
}

TEST(LaneBatch, LaneBatchFieldRoundTripsThroughJson) {
  LinkSpec spec = tile_spec(ChannelSpec::flat(34.0));
  spec.lane_batch = 12;
  const util::Json j = to_json(spec);
  EXPECT_EQ(j.find("lane_batch")->as_int(), 12);
  const LinkSpec back = link_spec_from_json(j);
  EXPECT_EQ(back.lane_batch, 12);
}

TEST(LaneBatch, ValidationRejectsOutOfRangeLaneBatch) {
  LinkSpec spec = LinkSpec::paper_default();
  spec.lane_batch = 0;
  EXPECT_THROW(spec.validate_or_throw(), std::invalid_argument);
  spec.lane_batch = 65;
  EXPECT_THROW(spec.validate_or_throw(), std::invalid_argument);
  spec.lane_batch = 64;
  EXPECT_NO_THROW(spec.validate_or_throw());
}

TEST(LaneBatch, TileEligibilityRequiresStreamingMonteCarlo) {
  LinkSpec spec = tile_spec(ChannelSpec::flat(34.0));
  EXPECT_TRUE(Simulator::tile_eligible(spec));
  spec.analysis = "stat";
  EXPECT_FALSE(Simulator::tile_eligible(spec));
  spec.analysis = "mc";
  spec.lane_batch = 1;
  EXPECT_FALSE(Simulator::tile_eligible(spec));
  // PAM4 runs on the scalar streaming path — the SoA tile kernels are
  // two-level; a pam4 spec must never group into a tile.
  spec.lane_batch = 8;
  spec.modulation = "pam4";
  spec.tx_ffe_deemphasis = 0.0;
  EXPECT_FALSE(Simulator::tile_eligible(spec));
}

TEST(LaneBatch, TileKeyNeutralizesNameAndSeedOnly) {
  const LinkSpec a = tile_spec(ChannelSpec::flat(34.0));
  LinkSpec b = a;
  b.name = "other";
  b.seed = 999;
  EXPECT_EQ(Simulator::tile_key(a), Simulator::tile_key(b));
  b.noise_rms_v *= 2.0;
  EXPECT_NE(Simulator::tile_key(a), Simulator::tile_key(b));
}

/// A tile of `lanes` lanes over `channel` with the given capture settings.
core::LaneLink capture_tile(const ChannelSpec& channel, std::size_t lanes,
                            bool waveforms, bool slicer_input) {
  core::LinkConfig cfg = tile_spec(channel).to_link_config();
  cfg.capture_waveforms = waveforms;
  cfg.capture_slicer_input = slicer_input;
  cfg.capture_max_samples = 3001;
  std::vector<std::uint64_t> seeds;
  for (std::size_t l = 0; l < lanes; ++l) seeds.push_back(40 + 3 * l);
  return core::LaneLink(cfg, ChannelFactory::instance().create(channel, cfg),
                        std::move(seeds));
}

TEST(LaneBatch, SlicerOnlyCaptureMatchesFullCapture) {
  // Each lane's slicer input, bit-identical to a full capture's, and no
  // TX or receiver-input waveform (nor their per-lane copies).
  const ChannelSpec channel = ChannelSpec::lossy_line(6.0, 18.0, 14.0);
  core::LaneLink full = capture_tile(channel, 5, true, false);
  core::LaneLink slicer = capture_tile(channel, 5, false, true);
  const auto want = full.measure(512, 256, 0.95, util::PrbsOrder::kPrbs31);
  const auto got = slicer.measure(512, 256, 0.95, util::PrbsOrder::kPrbs31);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < want.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    const std::vector<double>& w = want[l].restored.samples();
    const std::vector<double>& g = got[l].restored.samples();
    ASSERT_FALSE(w.empty());
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g[i]),
                std::bit_cast<std::uint64_t>(w[i]))
          << "sample " << i;
    }
    EXPECT_TRUE(got[l].tx_out.empty());
    EXPECT_TRUE(got[l].channel_out.empty());
    EXPECT_EQ(got[l].measurement.bits, want[l].measurement.bits);
    EXPECT_EQ(got[l].measurement.errors, want[l].measurement.errors);
  }
}

TEST(LaneBatch, ZeroChunkBitsIsRejected) {
  // A zero-bit chunk never advances the footage, so the run could never
  // end.
  core::LaneLink tile = capture_tile(ChannelSpec::flat(34.0), 2, false, false);
  EXPECT_THROW((void)tile.measure(4096, 0, 0.95, util::PrbsOrder::kPrbs31),
               std::invalid_argument);
}

}  // namespace
}  // namespace serdes::api
