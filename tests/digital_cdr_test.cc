#include "digital/cdr.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/prbs.h"
#include "util/random.h"

namespace serdes::digital {
namespace {

/// Oversamples a bit stream N times per bit, with the bit boundary placed at
/// `edge_phase` samples into each group (simulating a static phase offset),
/// optionally flipping `glitch_every`-th sample.
std::vector<std::uint8_t> oversample(const std::vector<std::uint8_t>& bits,
                                     int n, int edge_phase,
                                     int glitch_every = 0) {
  std::vector<std::uint8_t> samples;
  samples.reserve(bits.size() * static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    for (int p = 0; p < n; ++p) {
      // Sample p of group i sees the previous bit until the edge phase.
      const bool before_edge = p < edge_phase;
      const std::size_t idx = (before_edge && i > 0) ? i - 1 : i;
      std::uint8_t s = bits[idx];
      if (glitch_every > 0 &&
          (i * static_cast<std::size_t>(n) + static_cast<std::size_t>(p)) %
                  static_cast<std::size_t>(glitch_every) ==
              static_cast<std::size_t>(glitch_every - 1)) {
        s ^= 1;
      }
      samples.push_back(s);
    }
  }
  return samples;
}

/// True if `needle` appears as a contiguous subsequence of `haystack`.
bool contains(const std::vector<std::uint8_t>& haystack,
              const std::vector<std::uint8_t>& needle) {
  if (needle.size() > haystack.size()) return false;
  for (std::size_t start = 0; start + needle.size() <= haystack.size();
       ++start) {
    bool match = true;
    for (std::size_t i = 0; i < needle.size() && match; ++i) {
      match = haystack[start + i] == needle[i];
    }
    if (match) return true;
  }
  return false;
}

CdrConfig test_config() {
  CdrConfig cfg;
  cfg.oversampling = 5;
  cfg.window_uis = 16;
  cfg.glitch_filter_radius = 1;
  cfg.jitter_hysteresis = 2;
  return cfg;
}

TEST(Cdr, ConfigValidation) {
  CdrConfig bad = test_config();
  bad.oversampling = 1;
  EXPECT_THROW(OversamplingCdr{bad}, std::invalid_argument);
  bad = test_config();
  bad.window_uis = 0;
  EXPECT_THROW(OversamplingCdr{bad}, std::invalid_argument);
  bad = test_config();
  bad.glitch_filter_radius = 3;  // 2*3+1 > 5
  EXPECT_THROW(OversamplingCdr{bad}, std::invalid_argument);
  bad.glitch_filter_radius = std::numeric_limits<int>::max();  // 2*r+1 overflows
  EXPECT_THROW(OversamplingCdr{bad}, std::invalid_argument);
  bad = test_config();
  bad.jitter_hysteresis = 0;
  EXPECT_THROW(OversamplingCdr{bad}, std::invalid_argument);
}

TEST(Cdr, RecoversCleanStream) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  auto bits = prbs.next_bits(2000);
  OversamplingCdr cdr(test_config());
  const auto recovered = cdr.recover(oversample(bits, 5, 2));
  // Drop the lock-in prefix, then the payload must appear intact.
  const std::vector<std::uint8_t> tail(bits.begin() + 200, bits.end() - 8);
  EXPECT_TRUE(contains(recovered, tail));
  EXPECT_GT(cdr.edges_seen(), 500u);
  EXPECT_GT(cdr.windows_evaluated(), 100u);
}

TEST(Cdr, GlitchFilterSuppressesIsolatedGlitches) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  auto bits = prbs.next_bits(1500);
  // One corrupted sample every 23 samples; the 3-sample majority removes
  // any isolated flip.
  OversamplingCdr cdr(test_config());
  const auto recovered = cdr.recover(oversample(bits, 5, 2, 23));
  const std::vector<std::uint8_t> tail(bits.begin() + 300, bits.end() - 8);
  EXPECT_TRUE(contains(recovered, tail));
}

TEST(Cdr, WithoutGlitchFilterGlitchesLeakThrough) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  auto bits = prbs.next_bits(1500);
  CdrConfig cfg = test_config();
  cfg.glitch_filter_radius = 0;  // scan bit off
  OversamplingCdr cdr(cfg);
  const auto recovered = cdr.recover(oversample(bits, 5, 2, 23));
  const std::vector<std::uint8_t> tail(bits.begin() + 300, bits.end() - 8);
  EXPECT_FALSE(contains(recovered, tail));
}

TEST(Cdr, TracksSlowPhaseDrift) {
  // Simulate a slowly drifting boundary by regenerating the stream in
  // segments with different edge phases.
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  std::vector<std::uint8_t> samples;
  std::vector<std::uint8_t> all_bits;
  for (int phase : {1, 2, 3, 4}) {
    auto bits = prbs.next_bits(600);
    const auto seg = oversample(bits, 5, phase);
    samples.insert(samples.end(), seg.begin(), seg.end());
    all_bits.insert(all_bits.end(), bits.begin(), bits.end());
  }
  OversamplingCdr cdr(test_config());
  const auto recovered = cdr.recover(samples);
  EXPECT_GT(cdr.phase_updates(), 0u);
  // The final segment must come through clean after re-locking.
  const std::vector<std::uint8_t> tail(all_bits.end() - 300, all_bits.end() - 8);
  EXPECT_TRUE(contains(recovered, tail));
}

TEST(Cdr, HysteresisDelaysPhaseUpdates) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  auto bits = prbs.next_bits(800);
  CdrConfig eager = test_config();
  eager.jitter_hysteresis = 1;
  CdrConfig stubborn = test_config();
  stubborn.jitter_hysteresis = 4;
  OversamplingCdr cdr_eager(eager);
  OversamplingCdr cdr_stubborn(stubborn);
  const auto samples = oversample(bits, 5, 2);
  const auto eager_bits = cdr_eager.recover(samples);
  const auto stubborn_bits = cdr_stubborn.recover(samples);
  // Either way the CDR makes one decision per UI.
  EXPECT_NEAR(static_cast<double>(eager_bits.size()),
              static_cast<double>(bits.size()), 5.0);
  EXPECT_NEAR(static_cast<double>(stubborn_bits.size()),
              static_cast<double>(bits.size()), 5.0);
  EXPECT_GE(cdr_eager.phase_updates(), cdr_stubborn.phase_updates());
}

TEST(Cdr, RecoveredRateIsOnePerUi) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  auto bits = prbs.next_bits(1000);
  OversamplingCdr cdr(test_config());
  const auto recovered = cdr.recover(oversample(bits, 5, 2));
  // One decision per UI within a small slip allowance.
  EXPECT_NEAR(static_cast<double>(recovered.size()),
              static_cast<double>(bits.size()), 5.0);
}

// Property: for every static phase offset the CDR converges and the
// payload tail survives.
class CdrPhaseTest : public ::testing::TestWithParam<int> {};

TEST_P(CdrPhaseTest, LocksAtAnyPhase) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  auto bits = prbs.next_bits(1200);
  OversamplingCdr cdr(test_config());
  const auto recovered = cdr.recover(oversample(bits, 5, GetParam()));
  const std::vector<std::uint8_t> tail(bits.begin() + 300, bits.end() - 8);
  EXPECT_TRUE(contains(recovered, tail)) << "phase " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Phases, CdrPhaseTest, ::testing::Values(0, 1, 2, 3,
                                                                 4));

// Property: different oversampling factors all work on clean streams.
class CdrOversamplingTest : public ::testing::TestWithParam<int> {};

TEST_P(CdrOversamplingTest, Recovers) {
  const int n = GetParam();
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  auto bits = prbs.next_bits(1200);
  CdrConfig cfg = test_config();
  cfg.oversampling = n;
  cfg.glitch_filter_radius = n >= 3 ? 1 : 0;
  OversamplingCdr cdr(cfg);
  const auto recovered = cdr.recover(oversample(bits, n, n / 2));
  const std::vector<std::uint8_t> tail(bits.begin() + 300, bits.end() - 8);
  EXPECT_TRUE(contains(recovered, tail)) << "oversampling " << n;
}

INSTANTIATE_TEST_SUITE_P(Factors, CdrOversamplingTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8));

}  // namespace
}  // namespace serdes::digital
