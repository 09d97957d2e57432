// Crash/resume contract, pinned against the real binary: a sweep killed
// by an injected fault (`SERDES_FAULT`) at any commit boundary — before
// the record, mid-record (torn write), after the record — resumes from
// its store to a report byte-identical to an uninterrupted run, across
// a grid that sweeps every built-in channel kind.  Also the warm-store
// zero-compute contract, unwritable --out/--store exiting 2 with the
// path named, and a farm run that loses a worker to a real `_Exit`
// mid-task.  These tests fork serdes_cli as a subprocess (a simulated
// kill -9 has to kill a real process); they skip when the CLI target
// was not built.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace serdes {
namespace {

namespace fs = std::filesystem;

#ifndef SERDES_CLI_PATH

TEST(CliFarm, RequiresCliBinary) {
  GTEST_SKIP() << "serdes_cli was not built (SERDES_BUILD_CLI=OFF)";
}

#else

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::current_path() / "cli_farm_test_tmp" / name;
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

/// A 10-cell grid sweeping every registered channel kind (the crash
/// contract must hold for each) crossed with two noise levels.
fs::path write_grid_spec(const fs::path& dir) {
  const fs::path path = dir / "grid.json";
  std::ofstream out(path, std::ios::binary);
  out << R"({
  "name": "cli_farm_grid",
  "base": {"name": "g", "payload_bits": 1024, "chunk_bits": 1024},
  "axes": [
    {"field": "channel", "values": [
      {"kind": "flat", "loss_db": 24.0},
      {"kind": "rc", "pole_hz": 2.5e9, "loss_db": 6.0},
      {"kind": "fir", "fir_taps": [1.0, 0.35, 0.12], "fir_samples_per_tap": 0},
      {"kind": "lossy_line", "loss_db": 8.0, "skin_loss_db_at_1ghz": 6.0,
       "dielectric_loss_db_at_1ghz": 4.0},
      {"kind": "composite", "stages": [
        {"kind": "flat", "loss_db": 12.0},
        {"kind": "fir", "fir_taps": [1.0, 0.35, 0.12],
         "fir_samples_per_tap": 0}
      ]}
    ]},
    {"field": "noise_rms_v", "values": [0.0005, 0.002]}
  ]
})";
  EXPECT_TRUE(out.good());
  return path;
}

/// Runs `serdes_cli <args>` (optionally under SERDES_FAULT=`fault`)
/// with stdout/stderr captured into `dir`; returns the exit code.
int run_cli(const fs::path& dir, const std::string& args,
            const std::string& fault = "", std::string* err_text = nullptr) {
  const fs::path out = dir / "last_stdout.txt";
  const fs::path err = dir / "last_stderr.txt";
  std::string command;
  if (!fault.empty()) command += "SERDES_FAULT='" + fault + "' ";
  command += std::string(SERDES_CLI_PATH) + " " + args + " >" + out.string() +
             " 2>" + err.string();
  const int status = std::system(command.c_str());
  if (err_text != nullptr) *err_text = read_file(err);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

/// The uninterrupted, storeless reference report for the grid.
std::string reference_report(const fs::path& dir, const fs::path& spec) {
  const fs::path out = dir / "reference.json";
  EXPECT_EQ(run_cli(dir, "sweep " + spec.string() + " --out " + out.string()),
            0);
  return read_file(out);
}

TEST(CliFarm, KillAndResumeIsByteIdenticalAtEveryCrashSite) {
  const fs::path dir = scratch("kill_resume");
  const fs::path spec = write_grid_spec(dir);
  const std::string reference = reference_report(dir, spec);

  const struct {
    const char* label;
    const char* fault;
  } sites[] = {
      {"before", "crash-before-commit@4"},
      {"after", "crash-after-commit@4"},
      {"torn", "torn-commit@7:25"},
  };
  for (const auto& site : sites) {
    SCOPED_TRACE(site.fault);
    const fs::path store = dir / (std::string("store_") + site.label);
    // The faulted run dies with the injected-kill status, mid-sweep.
    EXPECT_EQ(run_cli(dir, "sweep " + spec.string() + " --store " +
                               store.string(),
                      site.fault),
              137);
    // The resume computes only what the store lacks...
    const fs::path out = dir / (std::string("resumed_") + site.label + ".json");
    std::string err;
    EXPECT_EQ(run_cli(dir,
                      "sweep " + spec.string() + " --store " + store.string() +
                          " --resume --progress --out " + out.string(),
                      "", &err),
              0);
    EXPECT_NE(err.find("cached"), std::string::npos) << err;
    // ...and its report is byte-identical to the uninterrupted run.
    EXPECT_EQ(read_file(out), reference);

    if (std::string(site.label) == "torn") {
      // The torn tail was detected by checksum and skipped, by name.
      EXPECT_NE(err.find("journal-main.srj"), std::string::npos) << err;
      EXPECT_NE(err.find("skipping the rest"), std::string::npos) << err;
    }
  }
}

TEST(CliFarm, WarmStoreComputesZeroAndSaysSo) {
  const fs::path dir = scratch("warm_store");
  const fs::path spec = write_grid_spec(dir);
  const std::string reference = reference_report(dir, spec);
  const fs::path store = dir / "store";
  const fs::path out = dir / "warm.json";

  ASSERT_EQ(run_cli(dir, "sweep " + spec.string() + " --store " +
                             store.string()),
            0);
  std::string err;
  EXPECT_EQ(run_cli(dir,
                    "sweep " + spec.string() + " --store " + store.string() +
                        " --progress --out " + out.string(),
                    "", &err),
            0);
  EXPECT_NE(err.find("store: computed 0 of 10 scenarios (10 cached)"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("store: warm — computed 0 scenarios"), std::string::npos)
      << err;
  EXPECT_EQ(read_file(out), reference);
}

TEST(CliFarm, UnwritableOutExitsTwoNamingThePath) {
  const fs::path dir = scratch("unwritable_out");
  const fs::path spec = write_grid_spec(dir);
  // A regular file where a directory is needed blocks the write even
  // when running as root (a /nonexistent path would not).
  const fs::path blocker = dir / "blocker";
  std::ofstream(blocker) << "in the way\n";
  const std::string target = (blocker / "report.json").string();
  std::string err;
  EXPECT_EQ(run_cli(dir, "sweep " + spec.string() + " --out " + target, "",
                    &err),
            2);
  EXPECT_NE(err.find("cannot write"), std::string::npos) << err;
  EXPECT_NE(err.find(target), std::string::npos) << err;
}

TEST(CliFarm, ValidateReportsAnInvalidSpecOnStderr) {
  // A rejected input is an error: its verdict, path and did-you-mean hint
  // go to stderr, as `run` reports spec errors, not to stdout.
  const fs::path dir = scratch("validate_stderr");
  const fs::path spec = dir / "mistyped_link.json";
  std::ofstream(spec) << R"({"noise_rms": 0.001})" << "\n";
  std::string err;
  EXPECT_EQ(run_cli(dir, "validate " + spec.string(), "", &err), 1);
  EXPECT_NE(err.find("INVALID"), std::string::npos) << err;
  EXPECT_NE(err.find("$.noise_rms"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean"), std::string::npos) << err;
}

TEST(CliFarm, UnwritableStoreExitsTwoNamingThePath) {
  const fs::path dir = scratch("unwritable_store");
  const fs::path spec = write_grid_spec(dir);
  const fs::path blocker = dir / "blocker";
  std::ofstream(blocker) << "in the way\n";
  const std::string store = (blocker / "store").string();
  std::string err;
  EXPECT_EQ(run_cli(dir, "sweep " + spec.string() + " --store " + store, "",
                    &err),
            2);
  EXPECT_NE(err.find("cannot write"), std::string::npos) << err;
  EXPECT_NE(err.find(store), std::string::npos) << err;
}

// A farm run that genuinely loses a worker: the coordinator runs in the
// background, worker w1 dies (injected _Exit(137)) holding a lease
// mid-task, worker w2 finishes the queue after the coordinator expires
// w1's lease.  The merged report must be byte-identical to the clean
// single-process run — no lost cells, no duplicates, no quarantine.
TEST(CliFarm, CoordinatorSurvivesAKilledWorker) {
  const fs::path dir = scratch("worker_kill");
  const fs::path spec = write_grid_spec(dir);
  const std::string reference = reference_report(dir, spec);
  const fs::path store = dir / "store";
  const fs::path out = dir / "farm.json";

  const std::string cli = SERDES_CLI_PATH;
  const std::string script =
      cli + " sweep-coordinator " + spec.string() + " --store " +
      store.string() +
      " --task-size 2 --lease-timeout-ms 1500 --backoff-base-ms 200"
      " --poll-ms 100 --out " + out.string() +
      " >co.out 2>co.err & CPID=$!; "
      "SERDES_FAULT=crash-after-commit@3 " + cli + " sweep-worker " +
      spec.string() + " --store " + store.string() +
      " --worker-id w1 >w1.out 2>w1.err; "
      "test $? -eq 137 || { kill $CPID; exit 99; }; " +
      cli + " sweep-worker " + spec.string() + " --store " + store.string() +
      " --worker-id w2 >w2.out 2>w2.err; "
      "wait $CPID";
  const std::string command = "cd " + dir.string() +
                              " && timeout 120 sh -c '" + script + "'";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "coordinator stderr:\n" << read_file(dir / "co.err")
      << "\nworker w1 stderr:\n" << read_file(dir / "w1.err")
      << "\nworker w2 stderr:\n" << read_file(dir / "w2.err");
  EXPECT_EQ(read_file(out), reference);
  // Both workers left their own journals behind.
  EXPECT_TRUE(fs::exists(store / "journal-w1.srj"));
  EXPECT_TRUE(fs::exists(store / "journal-w2.srj"));
}

#endif  // SERDES_CLI_PATH

}  // namespace
}  // namespace serdes
