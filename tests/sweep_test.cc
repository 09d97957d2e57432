// Sweep engine contract tests: grid expansion, exact/disjoint shard
// partitioning, thread-count invariance of the aggregated report (down
// to the serialized bytes), stat rows equal to full analyses, and the
// JSON fixed-point round trip for LinkSpec / RunReport / SweepSpec.
#include "sweep/sweep_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/channel_factory.h"
#include "api/spec_json.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"

namespace serdes::sweep {
namespace {

using util::Json;

/// A fast 64-scenario grid: 4 x 4 x 2 x 2, tiny payloads.
SweepSpec small_grid() {
  SweepSpec sweep;
  sweep.name = "grid64";
  sweep.base.name = "g";
  sweep.base.payload_bits = 1024;
  sweep.base.chunk_bits = 1024;
  sweep.axes.push_back(
      {"channel.loss_db", {Json(10.0), Json(20.0), Json(30.0), Json(40.0)}});
  sweep.axes.push_back({"noise_rms_v",
                        {Json(0.0005), Json(0.001), Json(0.002), Json(0.004)}});
  sweep.axes.push_back({"rx_ctle_boost_db", {Json(0.0), Json(6.0)}});
  sweep.axes.push_back({"tx_ffe_deemphasis", {Json(0.0), Json(0.25)}});
  return sweep;
}

TEST(SweepSpec, GridExpansionCounts) {
  const SweepSpec sweep = small_grid();
  EXPECT_EQ(sweep.scenario_count(), 64u);
  EXPECT_TRUE(sweep.validate().empty()) << sweep.validate();

  // No axes: the grid is the base spec alone.
  SweepSpec single;
  EXPECT_EQ(single.scenario_count(), 1u);

  // Row-major decode, first axis slowest: scenario 0 and 63 hit the axis
  // extremes, and the second axis advances every 4 scenarios.
  EXPECT_DOUBLE_EQ(sweep.scenario(0).channel.loss_db, 10.0);
  EXPECT_DOUBLE_EQ(sweep.scenario(0).noise_rms_v, 0.0005);
  EXPECT_DOUBLE_EQ(sweep.scenario(63).channel.loss_db, 40.0);
  EXPECT_DOUBLE_EQ(sweep.scenario(63).noise_rms_v, 0.004);
  EXPECT_DOUBLE_EQ(sweep.scenario(63).tx_ffe_deemphasis, 0.25);
  EXPECT_DOUBLE_EQ(sweep.scenario(4).noise_rms_v, 0.001);
  EXPECT_THROW((void)sweep.scenario(64), std::out_of_range);

  // Scenario names encode their axis values and are unique.
  std::set<std::string> names;
  for (std::uint64_t i = 0; i < 64; ++i) names.insert(sweep.scenario(i).name);
  EXPECT_EQ(names.size(), 64u);
  EXPECT_NE(sweep.scenario(0).name.find("channel.loss_db=10"),
            std::string::npos);
}

TEST(SweepSpec, AxisValueIndexMatchesScenarioDecode) {
  const SweepSpec sweep = small_grid();
  // axis_value_index is the row-major decode scenario() applies, exposed
  // for single-axis inspection (lint's seed scan, labels): the value it
  // picks must be exactly the one the expanded scenario carries.
  for (const std::uint64_t index : {0u, 1u, 4u, 17u, 63u}) {
    const api::LinkSpec spec = sweep.scenario(index);
    const double loss =
        sweep.axes[0].values[axis_value_index(sweep, 0, index)].as_double();
    const double noise =
        sweep.axes[1].values[axis_value_index(sweep, 1, index)].as_double();
    EXPECT_DOUBLE_EQ(spec.channel.loss_db, loss) << "scenario " << index;
    EXPECT_DOUBLE_EQ(spec.noise_rms_v, noise) << "scenario " << index;
  }
  EXPECT_THROW((void)axis_value_index(sweep, 4, 0), std::out_of_range);
  EXPECT_THROW((void)axis_value_index(sweep, 0, 64), std::out_of_range);
}

TEST(SweepSpec, ScenarioSeedsDeriveFromGridIndex) {
  const SweepSpec sweep = small_grid();
  // Same index -> same seed; different index -> different seed (splitmix64
  // of the grid index, so placement in threads/shards cannot matter).
  EXPECT_EQ(sweep.scenario(5).seed, sweep.scenario(5).seed);
  EXPECT_NE(sweep.scenario(5).seed, sweep.scenario(6).seed);
  EXPECT_EQ(sweep.scenario(7).seed,
            derive_scenario_seed(sweep.base.seed, 7));

  SweepSpec pinned = small_grid();
  pinned.derive_seeds = false;
  EXPECT_EQ(pinned.scenario(5).seed, pinned.base.seed);
}

TEST(SweepSpec, ValidateNamesJsonPaths) {
  SweepSpec sweep = small_grid();
  sweep.axes.push_back({"not_a_field", {Json(1.0)}});
  const std::string err = sweep.validate();
  EXPECT_NE(err.find("$.axes[4].values[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("not_a_field"), std::string::npos) << err;

  SweepSpec empty_axis = small_grid();
  empty_axis.axes[1].values.clear();
  EXPECT_NE(empty_axis.validate().find("$.axes[1].values"),
            std::string::npos);

  SweepSpec bad_base = small_grid();
  bad_base.base.cdr_oversampling = 1;
  EXPECT_NE(bad_base.validate().find("$.base.cdr_oversampling"),
            std::string::npos);

  // A bad value anywhere in an axis — not just position 0 — is caught
  // before the sweep runs, and blamed on its own path, not the base.
  SweepSpec bad_value = small_grid();
  bad_value.axes[1].values[2] = Json(-1.0);  // noise_rms_v axis
  const std::string verr = bad_value.validate();
  EXPECT_NE(verr.find("$.axes[1].values[2]"), std::string::npos) << verr;
  EXPECT_NE(verr.find("noise_rms_v"), std::string::npos) << verr;

  SweepSpec bad_first = small_grid();
  bad_first.axes[1].values[0] = Json(-1.0);
  EXPECT_NE(bad_first.validate().find("$.axes[1].values[0]"),
            std::string::npos)
      << bad_first.validate();

  // Unknown channel kinds swept through an axis resolve with the
  // factory's did-you-mean hint at the value's path.
  SweepSpec typo = small_grid();
  typo.axes.push_back({"channel.kind", {Json("flat"), Json("lossy_lne")}});
  const std::string kerr = typo.validate();
  EXPECT_NE(kerr.find("$.axes[4].values[1]"), std::string::npos) << kerr;
  EXPECT_NE(kerr.find("did you mean 'lossy_line'"), std::string::npos) << kerr;
}

TEST(SweepShard, PartitionIsExactAndDisjoint) {
  const SweepSpec sweep = small_grid();
  const std::uint64_t total = sweep.scenario_count();
  for (const std::uint64_t shards : {2ull, 3ull, 5ull}) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t k = 0; k < shards; ++k) {
      std::uint64_t count = 0;
      for (std::uint64_t i = k; i < total; i += shards) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " duplicated";
        ++count;
      }
      // Modulo partition: shard sizes differ by at most one.
      EXPECT_GE(count, total / shards);
      EXPECT_LE(count, total / shards + 1);
    }
    EXPECT_EQ(seen.size(), total);
  }
}

TEST(SweepRunner, ReportIsByteIdenticalAcrossThreadCounts) {
  const SweepSpec sweep = small_grid();
  std::string reference;
  for (const int threads : {1, 4, 8}) {
    SweepRunner::Options options;
    options.n_threads = threads;
    const SweepReport report = SweepRunner(options).run(sweep);
    EXPECT_EQ(report.scenarios.size(), 64u);
    const std::string text = to_json(report).dump(2);
    if (reference.empty()) {
      reference = text;
    } else {
      EXPECT_EQ(text, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SweepRunner, ShardUnionEqualsUnshardedReport) {
  const SweepSpec sweep = small_grid();
  const SweepReport whole = SweepRunner().run(sweep);

  std::vector<SweepReport> shards;
  for (std::uint64_t k = 0; k < 2; ++k) {
    SweepRunner::Options options;
    options.shard = Shard{k, 2};
    shards.push_back(SweepRunner(options).run(sweep));
  }
  EXPECT_EQ(shards[0].scenarios.size() + shards[1].scenarios.size(),
            whole.scenarios.size());

  const SweepReport merged = merge_shard_rows(shards);
  EXPECT_EQ(to_json(merged).dump(2), to_json(whole).dump(2));
}

TEST(SweepRunner, OverlappingShardsRefuseToMerge) {
  const SweepSpec sweep = small_grid();
  SweepRunner::Options options;
  options.shard = Shard{0, 2};
  const SweepReport shard0 = SweepRunner(options).run(sweep);
  EXPECT_THROW((void)merge_shard_rows({shard0, shard0}),
               std::invalid_argument);
  // An incomplete union (missing shard) must error, not produce a report
  // posing as whole-grid statistics.
  EXPECT_THROW((void)merge_shard_rows({shard0}), std::invalid_argument);
}

TEST(SweepRunner, QuarantinedRowsMergeAndCountAsCoverage) {
  const SweepSpec sweep = small_grid();
  std::vector<SweepReport> shards;
  for (std::uint64_t k = 0; k < 2; ++k) {
    SweepRunner::Options options;
    options.shard = Shard{k, 2};
    shards.push_back(SweepRunner(options).run(sweep));
  }
  // The farm quarantined cell 6 (shard 0) instead of computing it.
  QuarantinedScenario q;
  q.index = 6;
  q.name = sweep.scenario(6).name;
  q.seed = sweep.scenario(6).seed;
  q.attempts = 3;
  q.error = "lease expired (worker silent for 10000 ms)";
  auto& rows = shards[0].scenarios;
  rows.erase(std::find_if(rows.begin(), rows.end(),
                          [](const ScenarioResult& r) { return r.index == 6; }));
  shards[0].quarantined.push_back(q);

  const SweepReport merged = merge_shard_rows(shards);
  EXPECT_EQ(merged.scenarios.size(), 63u);
  ASSERT_EQ(merged.quarantined.size(), 1u);
  EXPECT_EQ(merged.quarantined[0].index, 6u);
  // The quarantine block serializes only when present, and the
  // aggregates count it separately from the computed rows.
  const std::string text = to_json(merged).dump(2);
  EXPECT_NE(text.find("\"quarantined\""), std::string::npos);
  const SweepReport clean = SweepRunner().run(sweep);
  EXPECT_EQ(to_json(clean).dump(2).find("\"quarantined\""), std::string::npos);
}

TEST(SweepRunner, MergeRefusesQuarantineConflicts) {
  const SweepSpec sweep = small_grid();
  std::vector<SweepReport> shards;
  for (std::uint64_t k = 0; k < 2; ++k) {
    SweepRunner::Options options;
    options.shard = Shard{k, 2};
    shards.push_back(SweepRunner(options).run(sweep));
  }
  QuarantinedScenario q;
  q.index = 6;
  q.name = sweep.scenario(6).name;
  q.seed = sweep.scenario(6).seed;
  q.attempts = 2;
  q.error = "worker failure";

  // Computed in shard 0 AND quarantined by shard 1: the shards disagree
  // about the grid, so the merge must refuse, not pick a winner.
  {
    auto conflicted = shards;
    conflicted[1].quarantined.push_back(q);
    try {
      (void)merge_shard_rows(conflicted);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "scenario 6 is both computed and quarantined"),
                std::string::npos)
          << e.what();
    }
  }

  // The same cell quarantined by two shards is a duplicate, like a
  // duplicated result row.
  {
    auto duplicated = shards;
    auto& rows = duplicated[0].scenarios;
    rows.erase(std::find_if(rows.begin(), rows.end(), [](const auto& r) {
      return r.index == 6;
    }));
    duplicated[0].quarantined.push_back(q);
    duplicated[1].quarantined.push_back(q);
    try {
      (void)merge_shard_rows(duplicated);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "quarantined scenario 6 appears in more than one shard"),
                std::string::npos)
          << e.what();
    }
  }

  // Dropping a cell entirely (neither computed nor quarantined) is an
  // incomplete union: still refused.
  {
    auto incomplete = shards;
    auto& rows = incomplete[0].scenarios;
    rows.erase(std::find_if(rows.begin(), rows.end(), [](const auto& r) {
      return r.index == 6;
    }));
    try {
      (void)merge_shard_rows(incomplete);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("union covers 63 of 64"),
                std::string::npos)
          << e.what();
    }
  }

  // Reports from different sweeps never merge.
  {
    auto renamed = shards;
    renamed[1].sweep_name = "someone_else";
    EXPECT_THROW((void)merge_shard_rows(renamed), std::invalid_argument);
  }
}

TEST(SweepRunner, AggregatesMatchRows) {
  SweepSpec sweep = small_grid();
  const SweepReport report = SweepRunner().run(sweep);
  ASSERT_EQ(report.scenarios.size(), 64u);
  double min_ber = 1e9, max_ber = -1e9;
  std::uint64_t bits = 0;
  for (const auto& row : report.scenarios) {
    min_ber = std::min(min_ber, row.ber);
    max_ber = std::max(max_ber, row.ber);
    bits += row.bits;
  }
  EXPECT_DOUBLE_EQ(report.ber.min, min_ber);
  EXPECT_DOUBLE_EQ(report.ber.max, max_ber);
  EXPECT_EQ(report.total_bits, bits);
  EXPECT_GE(report.ber.p90, report.ber.p50);
  EXPECT_GE(report.ber.p99, report.ber.p90);
  // The clean low-loss corner must be error-free, the 40 dB + heavy-noise
  // corner must not be: the surfaces span both regimes.
  EXPECT_GT(report.error_free_count, 0u);
  EXPECT_LT(report.error_free_count, 64u);
}

TEST(SweepRunner, StatRowsMatchFullReports) {
  // The runner's stat engine bisects only the best phase's eye contour.
  // Each row must equal the one distilled from a default Simulator run,
  // which bisects every phase.
  SweepSpec sweep;
  sweep.name = "stat_rows";
  sweep.base.name = "s";
  sweep.base.payload_bits = 4096;
  sweep.base.chunk_bits = 4096;
  sweep.base.noise_rms_v = 0.004;
  sweep.axes.push_back({"analysis", {Json("stat"), Json("both")}});
  sweep.axes.push_back(
      {"channel",
       {Json::parse(R"({"kind": "flat", "loss_db": 34.0})"),
        Json::parse(R"({"kind": "lossy_line", "loss_db": 8.0,
                        "skin_loss_db_at_1ghz": 12.0,
                        "dielectric_loss_db_at_1ghz": 4.0})")}});
  const SweepReport report = SweepRunner().run(sweep);
  ASSERT_EQ(report.scenarios.size(), 4u);
  EXPECT_EQ(report.stat_count, 4u);
  EXPECT_EQ(report.stat_cross_checked_count, 2u);
  for (const ScenarioResult& row : report.scenarios) {
    const ScenarioResult full = to_scenario_result(
        row.index, api::Simulator().run(sweep.scenario(row.index)));
    EXPECT_EQ(to_json(row).dump(), to_json(full).dump()) << row.name;
  }
}

TEST(SpecJson, LinkSpecRoundTripIsFixedPoint) {
  api::LinkSpec spec;
  spec.name = "rt";
  spec.channel = api::ChannelSpec::cascade(
      {api::ChannelSpec::rc(1.7e9, 3.0),
       api::ChannelSpec::fir({1.0, 0.4, -0.08}, 2),
       api::ChannelSpec::lossy_line(5.0, 6.0, 4.0)});
  spec.noise_rms_v = 0.0025;
  spec.seed = 18446744073709551615ull;  // above 2^53: must stay exact
  spec.prbs_order = util::PrbsOrder::kPrbs15;
  spec.dsp = true;

  const std::string once = api::to_json(spec).dump();
  const api::LinkSpec reparsed =
      api::link_spec_from_json(util::Json::parse(once));
  const std::string twice = api::to_json(reparsed).dump();
  EXPECT_EQ(once, twice);
  EXPECT_EQ(reparsed.seed, spec.seed);
  EXPECT_EQ(reparsed.prbs_order, spec.prbs_order);
  ASSERT_EQ(reparsed.channel.stages.size(), 3u);
  EXPECT_EQ(reparsed.channel.stages[1].fir_taps, spec.channel.stages[1].fir_taps);
}

TEST(SpecJson, RunReportRoundTripIsFixedPoint) {
  const api::Simulator sim;
  api::LinkSpec spec;
  spec.payload_bits = 1024;
  spec.chunk_bits = 1024;
  const api::RunReport report = sim.run(spec);

  const std::string once = api::to_json(report).dump();
  const api::RunReport reparsed =
      api::run_report_from_json(util::Json::parse(once));
  EXPECT_EQ(api::to_json(reparsed).dump(), once);
  EXPECT_EQ(reparsed.bits, report.bits);
  EXPECT_EQ(reparsed.errors, report.errors);
  EXPECT_DOUBLE_EQ(reparsed.eye.eye_height, report.eye.eye_height);
}

TEST(SpecJson, SweepSpecRoundTripIsFixedPoint) {
  const SweepSpec sweep = small_grid();
  const std::string once = sweep.to_json().dump();
  const SweepSpec reparsed = SweepSpec::from_json(util::Json::parse(once));
  EXPECT_EQ(reparsed.to_json().dump(), once);
  EXPECT_EQ(reparsed.scenario_count(), sweep.scenario_count());
}

TEST(SpecJson, ErrorsNameJsonPaths) {
  // Unknown LinkSpec field, with a did-you-mean hint.
  try {
    (void)api::link_spec_from_json(
        util::Json::parse(R"({"noise_rms": 0.001})"));
    FAIL() << "expected JsonError";
  } catch (const util::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("$.noise_rms"), std::string::npos) << what;
    EXPECT_NE(what.find("noise_rms_v"), std::string::npos) << what;
  }

  // An unknown sweep-axis key fails at its own path, with a hint.
  try {
    (void)SweepSpec::from_json(util::Json::parse(
        R"({"axes": [{"feld": "noise_rms_v", "values": [0.001]}]})"));
    FAIL() << "expected JsonError";
  } catch (const util::JsonError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("$.axes[0].feld:", 0), 0u) << what;
    EXPECT_NE(what.find("did you mean 'field'"), std::string::npos) << what;
  }

  // Type mismatch deep in a composite channel.
  try {
    (void)api::link_spec_from_json(util::Json::parse(
        R"({"channel":{"kind":"composite","stages":[{"kind":"fir","fir_taps":"oops"}]}})"));
    FAIL() << "expected JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.channel.stages[0].fir_taps"),
              std::string::npos)
        << e.what();
  }

  // Validation findings carry the field path too.
  api::LinkSpec bad;
  bad.channel = api::ChannelSpec::cascade(
      {api::ChannelSpec::flat(3.0), api::ChannelSpec::fir({})});
  bad.channel.stages[1].fir_taps.clear();
  const auto issue = bad.first_issue();
  EXPECT_EQ(issue.field, "channel.stages[1].fir_taps");
  EXPECT_NE(api::validate_spec_with_paths(bad).find(
                "$.channel.stages[1].fir_taps"),
            std::string::npos);

  // Unknown channel kinds resolve to their path with the factory hint.
  api::LinkSpec typo;
  typo.channel = api::ChannelSpec::cascade({api::ChannelSpec::flat(3.0)});
  typo.channel.stages[0].kind = "lossy_lne";
  const std::string err = api::validate_spec_with_paths(typo);
  EXPECT_NE(err.find("$.channel.stages[0].kind"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean 'lossy_line'"), std::string::npos) << err;

  // Values that used to pass validation and then crash, fail late without
  // a path, or report an impossibly clean link.
  struct Case {
    const char* json;
    const char* path;
  };
  for (const Case& c : {
           Case{R"({"random_jitter_s": 1.0})", "$.random_jitter_s"},
           Case{R"({"sinusoidal_jitter_s": 1.0})", "$.sinusoidal_jitter_s"},
           // An SJ frequency past the bit rate: at 1e308 it overflowed to
           // infinity, every sampling instant came out NaN, and the run
           // exited 0 unaligned at BER 1.
           Case{R"({"payload_bits": 4096, "sinusoidal_jitter_s": 1e-11,
                    "sj_freq_ratio": 1e308})",
                "$.sj_freq_ratio"},
           Case{R"({"sinusoidal_jitter_s": 1e-11, "sj_freq_ratio": 1.5})",
                "$.sj_freq_ratio"},
           Case{R"({"bit_rate_hz": 1e-300})", "$.bit_rate_hz"},
           Case{R"({"bit_rate_hz": 2e12})", "$.bit_rate_hz"},
           Case{R"({"channel": {"kind": "flat", "loss_db": -3.0}})",
                "$.channel.loss_db"},
           Case{R"({"channel": {"kind": "composite", "stages": [
                  {"kind": "flat", "loss_db": 3.0},
                  {"kind": "rc", "pole_hz": 1e9, "loss_db": -1.0}]}})",
                "$.channel.stages[1].loss_db"},
           Case{R"({"channel": {"kind": "rc", "pole_hz": 0.0}})",
                "$.channel.pole_hz"},
           Case{R"({"channel": {"kind": "lossy_line",
                                "skin_loss_db_at_1ghz": -5.0}})",
                "$.channel.skin_loss_db_at_1ghz"},
           Case{R"({"channel": {"kind": "lossy_line", "loss_db": -30.0}})",
                "$.channel.loss_db"},
           Case{R"({"channel": {"kind": "composite", "stages": [
                  {"kind": "flat", "loss_db": 3.0},
                  {"kind": "lossy_line",
                   "dielectric_loss_db_at_1ghz": -30.0}]}})",
                "$.channel.stages[1].dielectric_loss_db_at_1ghz"},
           Case{R"({"cdr_glitch_filter_radius": 1000000})",
                "$.cdr_glitch_filter_radius"},
           Case{R"({"cdr_glitch_filter_radius": 2147483647})",
                "$.cdr_glitch_filter_radius"},
           Case{R"({"tx_ffe_deemphasis": 0.5})", "$.tx_ffe_deemphasis"},
           Case{R"({"tx_ffe_deemphasis": 0.7})", "$.tx_ffe_deemphasis"},
           Case{R"({"ppm_offset": -1e6})", "$.ppm_offset"},
           Case{R"({"ppm_offset": 20000})", "$.ppm_offset"},
           // Unbounded sizes that ran out of memory, hung or threw
           // bad_alloc, and CTLE boosts that failed late or lied.
           Case{R"({"samples_per_ui": 100000})", "$.samples_per_ui"},
           Case{R"({"cdr_oversampling": 1000000})", "$.cdr_oversampling"},
           Case{R"({"preamble_bits": 2000000000})", "$.preamble_bits"},
           Case{R"({"stream_block_samples": 1e12})",
                "$.stream_block_samples"},
           Case{R"({"rx_ctle_boost_db": 1e6})", "$.rx_ctle_boost_db"},
           Case{R"({"rx_ctle_boost_db": 400})", "$.rx_ctle_boost_db"},
           // Phase offsets outside one UI: below 0 the sampler clock walks
           // up to the stream for as long as the offset is (-1e12 hung),
           // and far past 1 it starts beyond the data (a dead link).
           Case{R"({"rx_phase_offset_ui": -1e12})", "$.rx_phase_offset_ui"},
           Case{R"({"rx_phase_offset_ui": -1})", "$.rx_phase_offset_ui"},
           Case{R"({"rx_phase_offset_ui": 1})", "$.rx_phase_offset_ui"},
           Case{R"({"rx_phase_offset_ui": 1e6})", "$.rx_phase_offset_ui"},
           // A 2^36-bit chunk threw a bare bad_alloc; payloads near 2^64
           // ran with no end in sight.
           Case{R"({"chunk_bits": 16777217})", "$.chunk_bits"},
           Case{R"({"chunk_bits": 68719476736})", "$.chunk_bits"},
           Case{R"({"payload_bits": 1099511627777})", "$.payload_bits"},
           Case{R"({"payload_bits": 18446744073709551615})",
                "$.payload_bits"},
           // Noise past the supply, and reference bandwidths below 1 Hz.
           // At 1e300 V or 1e-300 Hz the per-sample noise sigma overflowed
           // and stat reports came back with null margins.
           Case{R"({"noise_rms_v": 1.9})", "$.noise_rms_v"},
           Case{R"({"noise_rms_v": 1e300})", "$.noise_rms_v"},
           Case{R"({"noise_reference_bandwidth_hz": 0.5})",
                "$.noise_reference_bandwidth_hz"},
           Case{R"({"noise_reference_bandwidth_hz": 1e-300})",
                "$.noise_reference_bandwidth_hz"},
       }) {
    const std::string bad_err = api::validate_spec_with_paths(
        api::link_spec_from_json(util::Json::parse(c.json)));
    EXPECT_EQ(bad_err.rfind(std::string(c.path) + ":", 0), 0u)
        << c.json << " -> " << bad_err;
  }
  // The jitter bounds are in the spec's own unit interval: 1 UI of random
  // jitter is accepted, and PAM4's UI is two bits long.
  api::LinkSpec edge;
  edge.random_jitter_s = 1.0 / edge.bit_rate_hz;
  edge.sinusoidal_jitter_s = 4.0 / edge.bit_rate_hz;
  EXPECT_EQ(api::validate_spec_with_paths(edge), "");
  edge.modulation = "pam4";
  edge.random_jitter_s = 2.0 / edge.bit_rate_hz;
  EXPECT_EQ(api::validate_spec_with_paths(edge), "");
  // The SJ frequency's bounds: the bit rate itself, and the jitter-
  // tolerance bench's highest point.  NaN is rejected.
  for (const double ratio : {1.0, 0.2}) {
    api::LinkSpec sj_edge;
    sj_edge.sinusoidal_jitter_s = 1e-11;
    sj_edge.sj_freq_ratio = ratio;
    EXPECT_EQ(api::validate_spec_with_paths(sj_edge), "") << ratio;
  }
  api::LinkSpec sj_nan;
  sj_nan.sinusoidal_jitter_s = 1e-11;
  sj_nan.sj_freq_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(api::validate_spec_with_paths(sj_nan).rfind("$.sj_freq_ratio:", 0),
            0u);
  // The widest glitch filter still votes within one UI: 2 * 2 + 1 = 5.
  edge.cdr_glitch_filter_radius = 2;
  EXPECT_EQ(api::validate_spec_with_paths(edge), "");
  // channel::TxFfe's largest de-emphasis, and the widest ppm offset.
  api::LinkSpec nrz_edge;
  nrz_edge.tx_ffe_deemphasis = 0.49;
  EXPECT_EQ(api::validate_spec_with_paths(nrz_edge), "");
  for (const double ppm : {-10000.0, 10000.0}) {
    nrz_edge.ppm_offset = ppm;
    EXPECT_EQ(api::validate_spec_with_paths(nrz_edge), "") << ppm;
  }
  // Each size and boost bound is itself accepted.
  api::LinkSpec size_edge;
  size_edge.samples_per_ui = 256;
  size_edge.cdr_oversampling = 64;
  size_edge.preamble_bits = 65536;
  size_edge.stream_block_samples = 1048576;
  size_edge.rx_ctle_boost_db = 40.0;
  size_edge.chunk_bits = std::uint64_t{1} << 24;
  size_edge.payload_bits = std::uint64_t{1} << 40;
  EXPECT_EQ(api::validate_spec_with_paths(size_edge), "");
  // The noise bounds: the supply, and a 1 Hz reference bandwidth.
  api::LinkSpec noise_edge;
  noise_edge.noise_rms_v = 1.8;
  noise_edge.noise_reference_bandwidth_hz = 1.0;
  EXPECT_EQ(api::validate_spec_with_paths(noise_edge), "");
  // The phase offset's bounds: [0, 1) UI.
  for (const double phase : {0.0, 0.999}) {
    api::LinkSpec phase_edge;
    phase_edge.rx_phase_offset_ui = phase;
    EXPECT_EQ(api::validate_spec_with_paths(phase_edge), "") << phase;
  }
}

/// The message of the util::JsonError `parse` throws ("" if none).
template <class F>
std::string json_error(F&& parse) {
  try {
    parse();
  } catch (const util::JsonError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecJson, RetiredStreamingFieldIsRejectedWithItsPath) {
  // "streaming" selected the removed batch execution path.  true still
  // loads as a no-op and to_json keeps writing it (schema v3); false is
  // rejected with its JSON path in a LinkSpec, a sweep base and a sweep
  // axis value.  `serdes_cli run`, `sweep` and `lint` read through these
  // same functions.
  const api::LinkSpec accepted =
      api::link_spec_from_json(Json::parse(R"({"streaming": true})"));
  const Json echoed = api::to_json(accepted);
  ASSERT_NE(echoed.find("streaming"), nullptr);
  EXPECT_TRUE(echoed.find("streaming")->as_bool());
  EXPECT_EQ(echoed.dump(), api::to_json(api::LinkSpec{}).dump());

  const std::string removed = "streaming is the only execution path";
  std::string err = json_error([] {
    (void)api::link_spec_from_json(Json::parse(R"({"streaming": false})"));
  });
  EXPECT_EQ(err.rfind("$.streaming:", 0), 0u) << err;
  EXPECT_NE(err.find(removed), std::string::npos) << err;

  err = json_error([] {
    (void)SweepSpec::from_json(Json::parse(R"({"name": "s",
        "base": {"streaming": false},
        "axes": [{"field": "seed", "values": [1]}]})"));
  });
  EXPECT_EQ(err.rfind("$.base.streaming:", 0), 0u) << err;

  const SweepSpec axis = SweepSpec::from_json(Json::parse(R"({"name": "s",
      "axes": [{"field": "noise_rms_v", "values": [0.001]},
               {"field": "streaming", "values": [true, false]}]})"));
  err = axis.validate();
  EXPECT_EQ(err.rfind("$.axes[1].values[1]:", 0), 0u) << err;
  EXPECT_NE(err.find(removed), std::string::npos) << err;
  const SweepSpec constant = SweepSpec::from_json(Json::parse(
      R"({"name": "s", "axes": [{"field": "streaming", "values": [true]}]})"));
  EXPECT_EQ(constant.validate(), "");
}

/// The keys `to_json` writes for `channel`, in order.
std::vector<std::string> written_keys(const api::ChannelSpec& channel) {
  std::vector<std::string> keys;
  const Json j = api::to_json(channel);
  for (const auto& [key, value] : j.as_object()) keys.push_back(key);
  return keys;
}

TEST(SpecJson, ChannelKindsWriteTheKeysTheyRead) {
  // A built-in kind writes only the keys it reads.  Any other kind (a
  // runtime registration, which ChannelFactory hands the whole spec)
  // writes all four scalars, and the taps and stages only when set.
  api::ChannelFactory::instance().register_kind(
      "test_passthrough",
      [](const api::ChannelSpec& spec, const core::LinkConfig& cfg) {
        return api::ChannelFactory::instance().create(
            api::ChannelSpec::flat(spec.loss_db), cfg);
      });
  api::ChannelSpec custom;
  custom.kind = "test_passthrough";
  api::ChannelSpec custom_taps = custom;
  custom_taps.fir_taps = {1.0, 0.25};
  custom_taps.fir_samples_per_tap = 4;
  api::ChannelSpec custom_stages = custom;
  custom_stages.stages = {api::ChannelSpec::flat(2.0)};
  api::ChannelSpec custom_both = custom_taps;
  custom_both.stages = custom_stages.stages;

  using Keys = std::vector<std::string>;
  const Keys scalars = {"kind", "loss_db", "pole_hz", "skin_loss_db_at_1ghz",
                        "dielectric_loss_db_at_1ghz"};
  const auto with = [&scalars](const Keys& extra) {
    Keys keys = scalars;
    keys.insert(keys.end(), extra.begin(), extra.end());
    return keys;
  };
  const struct {
    api::ChannelSpec spec;
    Keys keys;
  } cases[] = {
      {api::ChannelSpec::flat(3.0), {"kind", "loss_db"}},
      {api::ChannelSpec::rc(1.5e9, 2.0), {"kind", "loss_db", "pole_hz"}},
      {api::ChannelSpec::lossy_line(1.0, 2.0, 3.0),
       {"kind", "loss_db", "skin_loss_db_at_1ghz",
        "dielectric_loss_db_at_1ghz"}},
      {api::ChannelSpec::fir({1.0, -0.2}, 2),
       {"kind", "fir_taps", "fir_samples_per_tap"}},
      {api::ChannelSpec::cascade({api::ChannelSpec::flat(1.0)}),
       {"kind", "stages"}},
      {custom, scalars},
      {custom_taps, with({"fir_taps", "fir_samples_per_tap"})},
      {custom_stages, with({"stages"})},
      {custom_both, with({"fir_taps", "fir_samples_per_tap", "stages"})},
  };
  for (const auto& c : cases) {
    const Json once = api::to_json(c.spec);
    EXPECT_EQ(written_keys(c.spec), c.keys) << once.dump();
    EXPECT_EQ(api::to_json(api::channel_spec_from_json(once)).dump(),
              once.dump());
  }
  api::LinkSpec spec;
  spec.channel = custom_both;
  EXPECT_EQ(api::validate_spec_with_paths(spec), "");
}

TEST(SpecJson, FieldReferenceListsEveryKey) {
  // examples/specs/README.md documents every key a spec file may hold;
  // this fails when a key is added without its reference line.
  std::ifstream in(std::string(SERDES_SOURCE_DIR) +
                   "/examples/specs/README.md");
  ASSERT_TRUE(in) << "cannot open examples/specs/README.md";
  std::ostringstream text;
  text << in.rdbuf();
  const std::string readme = text.str();

  std::vector<std::string> keys;
  const Json link = api::to_json(api::LinkSpec{});
  for (const auto& [key, value] : link.as_object()) keys.push_back(key);
  for (const api::ChannelSpec& channel :
       {api::ChannelSpec::flat(0.0), api::ChannelSpec::rc(1.0),
        api::ChannelSpec::lossy_line(0.0, 0.0, 0.0),
        api::ChannelSpec::fir({1.0}),
        api::ChannelSpec::cascade({api::ChannelSpec::flat(0.0)})}) {
    for (const std::string& key : written_keys(channel)) keys.push_back(key);
  }
  for (const std::string& key : keys) {
    EXPECT_NE(readme.find("`" + key + "`"), std::string::npos)
        << "examples/specs/README.md does not list `" << key << "`";
  }
}

}  // namespace
}  // namespace serdes::sweep
