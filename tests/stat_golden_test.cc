// Golden-report regression tier: every checked-in scenario spec under
// examples/specs/ has its full serialized report pinned byte-for-byte in
// tests/golden/.  Reports are deterministic by construction (fixed seeds,
// fixed field order, shortest-round-trip doubles, thread-count-invariant
// aggregation), so any drift in simulator arithmetic, serialization or
// spec defaults fails here first — with a JSON-path diff naming exactly
// which members moved, and the actual report written to golden_actual/
// (uploaded as a CI artifact on failure).
//
// Regenerate after an intentional change with:
//   UPDATE_GOLDEN=1 ./build/stat_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/bus_spec.h"
#include "api/spec_json.h"
#include "lint/lint.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/fs.h"
#include "util/json.h"

#ifndef SERDES_SOURCE_DIR
#error "stat_golden_test needs SERDES_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace serdes {
namespace {

namespace fs = std::filesystem;

fs::path source_dir() { return fs::path(SERDES_SOURCE_DIR); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << path << ": cannot open";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& text) {
  // Atomic replace: a golden (or golden_actual artifact) is either the
  // complete old bytes or the complete new bytes, even if the test
  // binary dies mid-write.
  fs::create_directories(path.parent_path());
  try {
    util::atomic_write_file(path.string(), text);
  } catch (const util::FileError& e) {
    FAIL() << path << ": write failed — " << e.what();
  }
}

/// Runs one LinkSpec file through the default Simulator and renders the
/// RunReport exactly as `serdes_cli run` would.
std::string render_link_report(const fs::path& spec_path) {
  const util::Json doc = util::Json::parse(read_file(spec_path));
  const api::LinkSpec spec = api::link_spec_from_json(doc);
  EXPECT_EQ(api::validate_spec_with_paths(spec), "");
  const api::RunReport report = api::Simulator().run(spec);
  return api::to_json(report).dump(2) + "\n";
}

/// Runs one BusSpec file (fixed thread count — reports are byte-identical
/// for any) and renders the BusReport exactly as `serdes_cli run` would.
std::string render_bus_report(const fs::path& spec_path) {
  const util::Json doc = util::Json::parse(read_file(spec_path));
  const api::BusSpec bus = api::bus_spec_from_json(doc);
  EXPECT_EQ(bus.validate(), "");
  const api::BusReport report = api::Simulator().run_bus(bus, 2);
  return api::to_json(report).dump(2) + "\n";
}

/// Runs one SweepSpec file (whole grid, fixed thread count — reports are
/// byte-identical for any) and renders the SweepReport.
std::string render_sweep_report(const fs::path& spec_path) {
  const util::Json doc = util::Json::parse(read_file(spec_path));
  const sweep::SweepSpec spec = sweep::SweepSpec::from_json(doc);
  sweep::SweepRunner::Options options;
  options.n_threads = 2;
  const sweep::SweepReport report = sweep::SweepRunner(options).run(spec);
  return sweep::to_json(report).dump(2) + "\n";
}

/// Byte-compares `actual` against tests/golden/<name>.json.  On mismatch,
/// writes the actual bytes to golden_actual/<name>.json (CI uploads the
/// directory as an artifact) and fails with a JSON-path diff.
void check_golden(const std::string& name, const std::string& actual) {
  const fs::path golden = source_dir() / "tests" / "golden" / (name + ".json");
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    write_file(golden, actual);
    GTEST_SKIP() << "regenerated " << golden;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " is missing — run UPDATE_GOLDEN=1 " << name;
  const std::string expected = read_file(golden);
  if (expected == actual) return;

  const fs::path actual_path = fs::path("golden_actual") / (name + ".json");
  write_file(actual_path, actual);
  std::ostringstream message;
  message << "golden report mismatch for '" << name << "' (actual written to "
          << actual_path << "):";
  for (const std::string& finding :
       util::json_diff(util::Json::parse(expected), util::Json::parse(actual))) {
    message << "\n  " << finding;
  }
  FAIL() << message.str();
}

TEST(StatGolden, PaperDefaultRunReport) {
  check_golden("paper_default", render_link_report(source_dir() / "examples" /
                                                   "specs" /
                                                   "paper_default.json"));
}

TEST(StatGolden, StatCiRunReport) {
  // The "both" scenario: MC datapath plus stat engine plus cross-check —
  // one report pins all three.
  check_golden("stat_ci", render_link_report(source_dir() / "examples" /
                                             "specs" / "stat_ci.json"));
}

TEST(StatGolden, TrainedCiRunReport) {
  // The eq "trained" scenario: SS-LMS preamble training, the converged
  // EQ in RunReport.training, and the stat engine's DFE model (residual
  // cancellation + burst factor) all pin in one report.
  check_golden("trained_ci", render_link_report(source_dir() / "examples" /
                                                "specs" / "trained_ci.json"));
}

TEST(StatGolden, BusCiReport) {
  // 4-lane PAM4 with FEXT/NEXT in "both" mode: the tri-threshold sink,
  // crosstalk injection and the stat engine's interference terms, per lane.
  check_golden("bus_ci", render_bus_report(source_dir() / "examples" /
                                           "specs" / "bus_ci.json"));
}

TEST(StatGolden, Pam4DfeCiRunReport) {
  // PAM4 with DFE feedback: the tri-comparator feedback symbol and the
  // stat engine's PAM4 burst factor both pin here.
  check_golden("pam4_dfe_ci",
               render_link_report(source_dir() / "examples" / "specs" /
                                  "pam4_dfe_ci.json"));
}

TEST(StatGolden, LossSweepReport) {
  check_golden("loss_sweep", render_sweep_report(source_dir() / "examples" /
                                                 "specs" / "loss_sweep.json"));
}

TEST(SlowDeep, CiMatrixSweepReport) {
  // 32 scenarios; nightly tier.  Byte-compares the full aggregated grid.
  check_golden("ci_matrix", render_sweep_report(source_dir() / "examples" /
                                                "specs" / "ci_matrix.json"));
}

TEST(GoldenReports, ReadBackIsByteIdentical) {
  // Each golden, read with its report's reader and written back, must
  // reproduce its own bytes: every key of every report type, optional
  // sections included, survives a strict read.  Runs no simulation.
  struct Golden {
    const char* name;
    util::Json (*read_back)(const util::Json&);
    std::vector<std::string> sections;  // optional keys it must still write
  };
  const auto run = [](const util::Json& j) {
    return api::to_json(api::run_report_from_json(j));
  };
  const auto optimize = [](const util::Json& j) {
    return api::to_json(api::optimize_report_from_json(j));
  };
  const Golden goldens[] = {
      {"paper_default", run, {}},
      {"stat_ci", run, {"stat"}},
      {"trained_ci", run, {"training", "dfe_burst_factor"}},
      {"pam4_dfe_ci", run, {"pam4_eye_height_v", "dfe_taps_applied"}},
      {"bus_ci",
       [](const util::Json& j) {
         return api::to_json(api::bus_report_from_json(j));
       },
       {"coupling", "next_coupling"}},
      {"paper_default_optimize", optimize, {}},
      {"fir_descent_optimize", optimize, {}},
      {"lint_demo_lint",
       [](const util::Json& j) {
         return lint::to_json(lint::lint_report_from_json(j));
       },
       {"findings"}},
  };
  for (const Golden& g : goldens) {
    const std::string text = read_file(source_dir() / "tests" / "golden" /
                                       (std::string(g.name) + ".json"));
    for (const std::string& key : g.sections) {
      EXPECT_NE(text.find("\"" + key + "\""), std::string::npos)
          << g.name << " no longer writes " << key;
    }
    EXPECT_EQ(g.read_back(util::Json::parse(text)).dump(2) + "\n", text)
        << g.name;
  }
}

TEST(StatGolden, JsonDiffNamesThePathsThatMoved) {
  const util::Json a = util::Json::parse(
      R"({"x": 1, "nested": {"y": [1, 2, 3]}, "only_a": true})");
  const util::Json b = util::Json::parse(
      R"({"x": 1, "nested": {"y": [1, 9, 3]}, "only_b": "s"})");
  const auto findings = util::json_diff(a, b);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0], "$.nested.y[1]: expected 2, got 9");
  EXPECT_EQ(findings[1], "$.only_a: missing (expected true)");
  EXPECT_EQ(findings[2], "$.only_b: unexpected (got \"s\")");
}

}  // namespace
}  // namespace serdes
