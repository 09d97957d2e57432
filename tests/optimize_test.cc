// Optimizer regression tier: the coordinate-descent EQ search driven by
// the stat-engine oracle.  Pins the baseline short-circuit on
// paper_default, the descent actually rescuing a failing link,
// determinism, the strict OptimizeReport JSON round-trip, and two
// byte-for-byte OptimizeReport goldens: the paper_default short-circuit and
// a full 4-pass descent.
#include "opt/optimizer.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "api/link_builder.h"
#include "api/spec_json.h"
#include "util/fs.h"
#include "util/json.h"

#ifndef SERDES_SOURCE_DIR
#error "optimize_test needs SERDES_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace serdes {
namespace {

namespace fs = std::filesystem;

using util::Json;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << path << ": cannot open";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The trained_ci channel: the authored (default) EQ misses 1e-15 by
/// nine decades, so the descent has real work to do.
api::LinkSpec failing_spec() {
  return api::LinkBuilder()
      .channel(api::ChannelSpec::lossy_line(8.0, 12.0, 4.0))
      .noise_rms(0.004)
      .payload_bits(16384)
      .chunk_bits(4096)
      .seed(20260808)
      .analysis("stat")
      .build_spec();
}

TEST(Optimize, PaperDefaultBaselineShortCircuits) {
  const auto report = opt::optimize(api::LinkSpec::paper_default());
  EXPECT_TRUE(report.baseline_met);
  EXPECT_TRUE(report.met);
  EXPECT_EQ(report.passes, 0);
  EXPECT_EQ(report.evaluations, 1);
  // The baseline winner keeps the authored knobs.
  EXPECT_EQ(report.tx_ffe_deemphasis,
            api::LinkSpec::paper_default().tx_ffe_deemphasis);
  EXPECT_EQ(report.rx_ctle_boost_db,
            api::LinkSpec::paper_default().rx_ctle_boost_db);
  // The cross-check still runs — and agrees.
  EXPECT_TRUE(report.cross_checked);
  EXPECT_GT(report.mc_bits, 0u);
  EXPECT_TRUE(report.mc_consistent);
}

// Nightly tier (ctest -L slow): each descent spends tens of stat-engine
// evaluations on a long-impulse lossy line.
TEST(SlowDeep, DescentRescuesAFailingLink) {
  opt::OptimizeOptions options;
  options.cross_check_payload_bits = 32768;
  const auto report = opt::optimize(failing_spec(), options);
  EXPECT_FALSE(report.baseline_met);
  EXPECT_GT(report.baseline_min_ber, 1e-15);
  EXPECT_TRUE(report.met);
  EXPECT_LE(report.winner_min_ber, 1e-15);
  EXPECT_LT(report.winner_min_ber, report.baseline_min_ber);
  EXPECT_GT(report.evaluations, 1);
  EXPECT_GT(report.passes, 0);
  // The search moved at least one knob away from the authored values.
  const bool moved = !report.dfe_taps.empty() ||
                     report.tx_ffe_deemphasis != 0.0 ||
                     report.rx_ctle_boost_db != 0.0;
  EXPECT_TRUE(moved);
  EXPECT_TRUE(report.cross_checked);
  EXPECT_TRUE(report.mc_consistent);
  EXPECT_EQ(report.mc_errors, 0u);
}

TEST(SlowDeep, DescentReportIsDeterministicAndRoundTrips) {
  opt::OptimizeOptions options;
  options.cross_check_payload_bits = 16384;
  const auto report = opt::optimize(failing_spec(), options);
  const std::string once = api::to_json(report).dump(2);
  const std::string twice =
      api::to_json(opt::optimize(failing_spec(), options)).dump(2);
  EXPECT_EQ(once, twice);
  // A descent winner exercises the non-empty dfe_taps serialization arm.
  const auto reparsed = api::optimize_report_from_json(Json::parse(once));
  EXPECT_EQ(api::to_json(reparsed).dump(2), once);
  EXPECT_EQ(reparsed.evaluations, report.evaluations);
  EXPECT_EQ(reparsed.mc_bits, report.mc_bits);
  EXPECT_EQ(reparsed.met, report.met);
}

TEST(Optimize, RejectsInvalidArguments) {
  opt::OptimizeOptions options;
  options.passes = 0;
  EXPECT_THROW((void)opt::optimize(api::LinkSpec::paper_default(), options),
               std::invalid_argument);
  auto spec = api::LinkSpec::paper_default();
  spec.stat_target_ber = 0.0;
  EXPECT_THROW((void)opt::optimize(spec), std::invalid_argument);
}

// ---- OptimizeReport JSON ---------------------------------------------

TEST(OptimizeJson, BaselineReportRoundTripsAndRejectsUnknownFields) {
  const auto report = opt::optimize(api::LinkSpec::paper_default());
  const std::string once = api::to_json(report).dump(2);
  const auto reparsed = api::optimize_report_from_json(Json::parse(once));
  EXPECT_EQ(api::to_json(reparsed).dump(2), once);
  Json j = Json::parse(once);
  j.set("extra", true);
  try {
    (void)api::optimize_report_from_json(j);
    FAIL() << "unknown field must not parse";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("extra"), std::string::npos)
        << e.what();
  }
}

/// Byte-compares `report`'s JSON with tests/golden/`file`, or rewrites
/// the golden when UPDATE_GOLDEN is set.
void expect_matches_golden(const opt::OptimizeReport& report,
                           const std::string& file) {
  const fs::path golden =
      fs::path(SERDES_SOURCE_DIR) / "tests" / "golden" / file;
  const std::string actual = api::to_json(report).dump(2) + "\n";
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    try {
      util::atomic_write_file(golden.string(), actual);
    } catch (const util::FileError& e) {
      FAIL() << golden << ": write failed — " << e.what();
    }
    GTEST_SKIP() << "regenerated " << golden;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " is missing — run UPDATE_GOLDEN=1 ./build/optimize_test";
  const std::string expected = read_file(golden);
  if (expected == actual) return;
  std::ostringstream message;
  message << "OptimizeReport golden drifted:";
  for (const std::string& finding :
       util::json_diff(Json::parse(expected), Json::parse(actual))) {
    message << "\n  " << finding;
  }
  FAIL() << message.str();
}

// Byte-pins the paper_default OptimizeReport, same contract as the
// golden RunReports.  Regenerate intentionally:
//   UPDATE_GOLDEN=1 ./build/optimize_test
TEST(OptimizeJson, PaperDefaultReportMatchesGolden) {
  expect_matches_golden(opt::optimize(api::LinkSpec::paper_default()),
                        "paper_default_optimize.json");
}

// Byte-pins a full descent: a 4-tap FIR channel the authored EQ misses
// the 1e-15 target on, so all 4 passes run (41 stat evaluations) before
// the winner's Monte Carlo cross-check.
TEST(OptimizeJson, FirDescentReportMatchesGolden) {
  const api::LinkSpec spec = api::link_spec_from_json(Json::parse(R"({
    "name": "optimize",
    "channel": {"kind": "fir", "fir_taps": [0.5, 0.3, 0.15, 0.05],
                "fir_samples_per_tap": 0},
    "noise_rms_v": 0.004,
    "seed": 1732167174
  })"));
  const opt::OptimizeReport report = opt::optimize(spec);
  EXPECT_EQ(report.evaluations, 41);
  EXPECT_EQ(report.passes, 4);
  EXPECT_FALSE(report.baseline_met);
  expect_matches_golden(report, "fir_descent_optimize.json");
}

}  // namespace
}  // namespace serdes
