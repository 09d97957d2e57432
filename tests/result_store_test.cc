// Durable result-store tier: journal round-trips, checksum/torn-tail
// recovery, content-hash keying, store-backed cold/warm byte-identity,
// quarantine coverage, plus unit tests for the crash-safety primitives
// the store builds on (util::fs helpers and the fault injector's
// arming grammar and hit counting).
#include "sweep/result_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/spec_json.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/fault.h"
#include "util/fs.h"
#include "util/json.h"

namespace serdes {
namespace {

namespace fs = std::filesystem;

using sweep::ResultStore;
using sweep::ScenarioResult;
using sweep::StoreRunStats;
using sweep::SweepReport;
using sweep::SweepRunner;
using sweep::SweepSpec;
using util::Json;

/// Fresh per-test scratch directory under the build tree (never /tmp —
/// the repo's artifacts stay inside the repo).
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::current_path() / "result_store_test_tmp" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path << ": cannot open";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A fast 8-scenario grid with tiny payloads.
SweepSpec small_grid() {
  SweepSpec sweep;
  sweep.name = "store8";
  sweep.base.name = "g";
  sweep.base.payload_bits = 1024;
  sweep.base.chunk_bits = 1024;
  sweep.axes.push_back(
      {"channel.loss_db", {Json(10.0), Json(20.0), Json(30.0), Json(40.0)}});
  sweep.axes.push_back({"noise_rms_v", {Json(0.0005), Json(0.002)}});
  return sweep;
}

ScenarioResult sample_row(std::uint64_t index) {
  ScenarioResult row;
  row.index = index;
  row.name = "cell-" + std::to_string(index);
  row.seed = 42 + index;
  row.aligned = true;
  row.bits = 1024;
  row.errors = index;
  row.ber = static_cast<double>(index) / 1024.0;
  row.ber_upper_bound = 0.01;
  row.eye_height = 0.35;
  row.eye_width_ui = 0.62;
  return row;
}

// ---- util::fs primitives ---------------------------------------------

TEST(FsHelpers, FnvAndHexRoundTrip) {
  // FNV-1a 64 published test vectors.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::hex64(0x0123456789abcdefull), "0123456789abcdef");
  std::uint64_t value = 0;
  ASSERT_TRUE(util::parse_hex64("0123456789abcdef", value));
  EXPECT_EQ(value, 0x0123456789abcdefull);
  EXPECT_FALSE(util::parse_hex64("0123", value));        // wrong width
  EXPECT_FALSE(util::parse_hex64("012345678 abcdef", value));
  EXPECT_FALSE(util::parse_hex64("0123456789ABCDEG", value));
}

TEST(FsHelpers, AtomicWriteReplacesWholeFile) {
  const fs::path dir = scratch("atomic_write");
  const fs::path target = dir / "artifact.json";
  util::atomic_write_file(target.string(), "first\n");
  EXPECT_EQ(read_file(target), "first\n");
  util::atomic_write_file(target.string(), "second, longer contents\n");
  EXPECT_EQ(read_file(target), "second, longer contents\n");
  // No temp litter left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++entries;
  EXPECT_EQ(entries, 1u);
}

TEST(FsHelpers, WriteFailuresThrowFileErrorNamingThePath) {
  const fs::path dir = scratch("unwritable");
  // A regular file where a directory is needed blocks the write even for
  // root — never use a /nonexistent path for this (root can create it).
  const fs::path blocker = dir / "blocker";
  util::atomic_write_file(blocker.string(), "in the way\n");
  const std::string target = (blocker / "x.json").string();
  try {
    util::atomic_write_file(target, "doomed");
    FAIL() << "expected FileError";
  } catch (const util::FileError& e) {
    EXPECT_EQ(e.path(), target);
  }
  try {
    util::ensure_directory((blocker / "store").string());
    FAIL() << "expected FileError";
  } catch (const util::FileError& e) {
    EXPECT_NE(std::string(e.what()).find("blocker"), std::string::npos);
  }
  // An existing regular file at the directory path itself also refuses.
  EXPECT_THROW(util::ensure_directory(blocker.string()), util::FileError);
}

// ---- Fault injector ---------------------------------------------------

TEST(FaultInjector, GrammarAndHitCounts) {
  auto& faults = util::FaultInjector::instance();
  faults.configure("crash-after-commit@3,torn-commit@5:9");
  EXPECT_TRUE(faults.armed());
  // Hit counts are per-site and 1-based.
  EXPECT_FALSE(faults.fire("crash-after-commit").has_value());  // hit 1
  EXPECT_FALSE(faults.fire("crash-after-commit").has_value());  // hit 2
  const auto hit3 = faults.fire("crash-after-commit");
  ASSERT_TRUE(hit3.has_value());
  EXPECT_EQ(*hit3, 0u);  // no arg given
  EXPECT_FALSE(faults.fire("crash-after-commit").has_value());  // fired once
  // Unarmed sites never fire and never count.
  EXPECT_FALSE(faults.fire("crash-before-commit").has_value());
  // The arg rides along with the firing hit.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(faults.fire("torn-commit"));
  const auto torn = faults.fire("torn-commit");
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(*torn, 9u);

  // `@*` fires on every hit, with its arg.
  faults.configure("stall-worker@*:250");
  for (int i = 0; i < 3; ++i) {
    const auto hit = faults.fire("stall-worker");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 250u);
  }

  // configure() resets counters: the same spec fires at hit 1 again.
  faults.configure("fail-scenario@1");
  EXPECT_TRUE(faults.fire("fail-scenario").has_value());
  faults.configure("fail-scenario@1");
  EXPECT_TRUE(faults.fire("fail-scenario").has_value());

  // Empty disarms everything.
  faults.configure("");
  EXPECT_FALSE(faults.armed());
  EXPECT_FALSE(faults.fire("fail-scenario").has_value());
}

TEST(FaultInjector, BadGrammarThrows) {
  auto& faults = util::FaultInjector::instance();
  EXPECT_THROW(faults.configure("no-at-sign"), std::invalid_argument);
  EXPECT_THROW(faults.configure("site@"), std::invalid_argument);
  EXPECT_THROW(faults.configure("site@abc"), std::invalid_argument);
  EXPECT_THROW(faults.configure("site@0"), std::invalid_argument);  // 1-based
  EXPECT_THROW(faults.configure("site@1:"), std::invalid_argument);
  EXPECT_THROW(faults.configure("@1"), std::invalid_argument);
  // Empty segments (stray/trailing commas) are tolerated, not faults.
  faults.configure("a@1,,b@2,");
  EXPECT_TRUE(faults.armed());
  faults.configure("");  // leave the process disarmed for other tests
}

// ---- Spec content hash -----------------------------------------------

TEST(SpecContentHash, KeysCellsApartAndTracksEdits) {
  const SweepSpec sweep = small_grid();
  // Every cell of the grid hashes distinctly (axis values + derived
  // seeds both feed the key).
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < sweep.scenario_count(); ++i) {
    hashes.push_back(api::spec_content_hash(sweep.scenario(i)));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());

  // Same spec -> same hash; any content edit -> different hash.
  api::LinkSpec spec = sweep.scenario(3);
  EXPECT_EQ(api::spec_content_hash(spec), api::spec_content_hash(spec));
  api::LinkSpec edited = spec;
  edited.noise_rms_v *= 2.0;
  EXPECT_NE(api::spec_content_hash(edited), api::spec_content_hash(spec));
  api::LinkSpec reseeded = spec;
  reseeded.seed ^= 1;
  EXPECT_NE(api::spec_content_hash(reseeded), api::spec_content_hash(spec));
}

// ---- ResultStore ------------------------------------------------------

TEST(ResultStore, CommitsSurviveReopen) {
  const fs::path dir = scratch("reopen");
  const ScenarioResult row5 = sample_row(5);
  const ScenarioResult row9 = sample_row(9);
  {
    ResultStore store(dir.string(), "w1");
    EXPECT_EQ(store.row_count(), 0u);
    store.commit(0xaaa, row5);
    store.commit(0xbbb, row9);
    EXPECT_EQ(store.row_count(), 2u);
  }
  ResultStore reopened(dir.string(), "w2");
  EXPECT_TRUE(reopened.warnings().empty());
  EXPECT_EQ(reopened.row_count(), 2u);
  ScenarioResult got;
  ASSERT_TRUE(reopened.lookup(5, 0xaaa, got));
  EXPECT_EQ(sweep::to_json(got).dump(), sweep::to_json(row5).dump());
  // The key is (index, hash): either half missing is a miss.
  EXPECT_FALSE(reopened.lookup(5, 0xbbb, got));
  EXPECT_FALSE(reopened.lookup(6, 0xaaa, got));
}

TEST(ResultStore, QuarantineRecordsRoundTrip) {
  const fs::path dir = scratch("quarantine");
  sweep::QuarantinedScenario q;
  q.index = 7;
  q.name = "doomed";
  q.seed = 99;
  q.attempts = 3;
  q.error = "injected fault: scenario attempt failed";
  {
    ResultStore store(dir.string());
    store.commit_quarantine(0xccc, q);
  }
  ResultStore reopened(dir.string(), "reader");
  sweep::QuarantinedScenario got;
  ASSERT_TRUE(reopened.lookup_quarantine(7, 0xccc, got));
  EXPECT_EQ(sweep::to_json(got).dump(), sweep::to_json(q).dump());
  EXPECT_FALSE(reopened.lookup_quarantine(7, 0xddd, got));
}

TEST(ResultStore, TornTailIsSkippedWithWarning) {
  const fs::path dir = scratch("torn_tail");
  {
    ResultStore store(dir.string(), "main");
    for (std::uint64_t i = 0; i < 4; ++i) store.commit(i, sample_row(i));
  }
  // Chop the journal mid-way through the last record, as a torn write
  // would: the valid prefix must load, the tail must be skipped.
  const fs::path journal = dir / "journal-main.srj";
  const std::string bytes = read_file(journal);
  std::ofstream out(journal, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 20));
  out.close();

  ResultStore store(dir.string(), "resumer");
  EXPECT_EQ(store.row_count(), 3u);
  ASSERT_EQ(store.warnings().size(), 1u);
  EXPECT_NE(store.warnings()[0].find("journal-main.srj"), std::string::npos)
      << store.warnings()[0];
  ScenarioResult got;
  EXPECT_TRUE(store.lookup(2, 2, got));
  EXPECT_FALSE(store.lookup(3, 3, got));
}

TEST(ResultStore, ChecksumMismatchStopsTheJournal) {
  const fs::path dir = scratch("bad_checksum");
  {
    ResultStore store(dir.string(), "main");
    for (std::uint64_t i = 0; i < 3; ++i) store.commit(i, sample_row(i));
  }
  const fs::path journal = dir / "journal-main.srj";
  std::string bytes = read_file(journal);
  // Flip one payload byte of the second record (find its header first).
  const std::size_t second = bytes.find("SRD1 ", bytes.find("SRD1 ") + 1);
  ASSERT_NE(second, std::string::npos);
  const std::size_t payload = bytes.find('\n', second) + 1;
  bytes[payload + 10] ^= 0x01;
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << bytes;

  ResultStore store(dir.string(), "resumer");
  // Record 0 precedes the damage; records 1 and 2 are lost (the loader
  // cannot trust anything after an undetected-length corruption).
  EXPECT_EQ(store.row_count(), 1u);
  ASSERT_GE(store.warnings().size(), 1u);
  EXPECT_NE(store.warnings()[0].find("journal-main.srj"), std::string::npos);
}

TEST(ResultStore, WritersGetSeparateJournals) {
  const fs::path dir = scratch("multi_writer");
  {
    ResultStore a(dir.string(), "w-a");
    ResultStore b(dir.string(), "w-b");
    a.commit(1, sample_row(1));
    b.commit(2, sample_row(2));
  }
  EXPECT_TRUE(fs::exists(dir / "journal-w-a.srj"));
  EXPECT_TRUE(fs::exists(dir / "journal-w-b.srj"));
  ResultStore merged(dir.string(), "reader");
  EXPECT_EQ(merged.row_count(), 2u);
  // A read-only scan opens no journal of its own.
  EXPECT_FALSE(fs::exists(dir / "journal-reader.srj"));
}

// ---- Store-backed sweep runs -----------------------------------------

TEST(StoreBackedRun, ColdThenWarmIsByteIdenticalToStoreless) {
  const fs::path dir = scratch("cold_warm");
  const SweepSpec sweepspec = small_grid();
  const SweepRunner runner;
  const std::string plain = to_json(runner.run(sweepspec)).dump(2);

  ResultStore store(dir.string());
  StoreRunStats cold;
  const SweepReport first =
      run_sweep_with_store(runner, sweepspec, store, &cold);
  EXPECT_EQ(cold.total, 8u);
  EXPECT_EQ(cold.computed, 8u);
  EXPECT_EQ(cold.cached, 0u);
  EXPECT_EQ(to_json(first).dump(2), plain);

  // Warm re-run against a fresh handle: zero computed, identical bytes.
  ResultStore warm_store(dir.string(), "second");
  StoreRunStats warm;
  const SweepReport second =
      run_sweep_with_store(runner, sweepspec, warm_store, &warm);
  EXPECT_EQ(warm.computed, 0u);
  EXPECT_EQ(warm.cached, 8u);
  EXPECT_EQ(to_json(second).dump(2), plain);
}

TEST(StoreBackedRun, EditedCellsMissTheCacheOthersHit) {
  const fs::path dir = scratch("edited");
  SweepSpec sweepspec = small_grid();
  const SweepRunner runner;
  {
    ResultStore store(dir.string());
    (void)run_sweep_with_store(runner, sweepspec, store);
  }
  // Narrow one axis: 4 of 8 cells keep their exact expanded spec, but
  // grid indices shift, so index-sensitive derived seeds change the
  // hashes — everything the key says changed must recompute.
  sweepspec.axes[1].values = {Json(0.0005)};
  ResultStore store(dir.string(), "edit");
  StoreRunStats stats;
  const SweepReport report =
      run_sweep_with_store(runner, sweepspec, store, &stats);
  EXPECT_EQ(stats.total, 4u);
  EXPECT_EQ(stats.cached + stats.computed, 4u);
  // New index 0 is the old index 0 cell verbatim (same derived seed) —
  // a hit; the shifted indices re-derive their seeds and miss.
  EXPECT_GT(stats.cached, 0u);
  EXPECT_GT(stats.computed, 0u);
  EXPECT_EQ(to_json(report).dump(2), to_json(runner.run(sweepspec)).dump(2));
}

TEST(StoreBackedRun, QuarantinedCellsCountAsCoveredNotRecomputed) {
  const fs::path dir = scratch("quarantine_covered");
  const SweepSpec sweepspec = small_grid();
  const SweepRunner runner;
  {
    // Quarantine cell 3 under its true content hash, as the coordinator
    // would after max_attempts failures.
    ResultStore store(dir.string());
    sweep::QuarantinedScenario q;
    q.index = 3;
    q.name = sweepspec.scenario(3).name;
    q.seed = sweepspec.scenario(3).seed;
    q.attempts = 3;
    q.error = "worker crashed repeatedly";
    store.commit_quarantine(api::spec_content_hash(sweepspec.scenario(3)), q);
  }
  ResultStore store(dir.string(), "resume");
  StoreRunStats stats;
  const SweepReport report =
      run_sweep_with_store(runner, sweepspec, store, &stats);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.computed, 7u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].index, 3u);
  EXPECT_EQ(report.scenarios.size(), 7u);
  // The quarantine block serializes (non-empty) and the rows are the
  // non-quarantined cells only.
  const std::string text = to_json(report).dump(2);
  EXPECT_NE(text.find("\"quarantined\""), std::string::npos);
}

TEST(StoreBackedRun, AssembleThrowsOnMissingCells) {
  const fs::path dir = scratch("missing_cells");
  const SweepSpec sweepspec = small_grid();
  ResultStore store(dir.string());
  store.commit(api::spec_content_hash(sweepspec.scenario(0)),
               sample_row(0));  // only cell 0 present
  try {
    (void)assemble_report_from_store(sweepspec, sweep::Shard{0, 1}, store);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not cover scenario 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("7 cells missing"), std::string::npos) << what;
  }
}

// ---- Row JSON round trips --------------------------------------------

TEST(RowJson, ScenarioResultRoundTripIsFixedPoint) {
  const SweepSpec sweepspec = small_grid();
  const SweepReport report = SweepRunner().run(sweepspec);
  for (const auto& row : report.scenarios) {
    const std::string once = to_json(row).dump();
    const ScenarioResult reparsed =
        sweep::scenario_result_from_json(Json::parse(once));
    EXPECT_EQ(to_json(reparsed).dump(), once);
  }
  // Strict parse: unknown fields are errors naming their path.
  Json j = to_json(report.scenarios[0]);
  j.set("extra", true);
  EXPECT_THROW((void)sweep::scenario_result_from_json(j), util::JsonError);
  // An int member is read bounded: 2^32 + 1 must not reload as phase 1.
  Json wide = to_json(report.scenarios[0]);
  wide.set("cdr_decision_phase", Json(std::int64_t{4294967297}));
  try {
    (void)sweep::scenario_result_from_json(wide);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("$.cdr_decision_phase:", 0), 0u)
        << e.what();
  }
}

TEST(RowJson, QuarantinedRoundTripIsFixedPoint) {
  sweep::QuarantinedScenario q;
  q.index = 12;
  q.name = "q";
  q.seed = 7;
  q.attempts = 3;
  q.error = "lease expired (worker silent for 10000 ms)";
  const std::string once = to_json(q).dump();
  const sweep::QuarantinedScenario reparsed =
      sweep::quarantined_from_json(Json::parse(once));
  EXPECT_EQ(to_json(reparsed).dump(), once);
  Json j = to_json(q);
  j.set("extra", true);
  EXPECT_THROW((void)sweep::quarantined_from_json(j), util::JsonError);
}

}  // namespace
}  // namespace serdes
