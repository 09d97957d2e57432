// serdes_cli — JSON-driven scenario orchestration from the command line.
//
// Every scenario the library can express is a data file here: `run`
// executes one LinkSpec, `sweep` expands and executes a SweepSpec grid
// (optionally one shard of it, so CI and clusters split the work),
// `validate` checks spec files and reports problems by JSON path, and
// `list-channels` introspects the channel registry.  Reports are
// deterministic JSON on stdout (or --out FILE): the same grid produces
// byte-identical output for any thread count, so artifacts diff cleanly
// across CI runs.
//
//   serdes_cli run examples/specs/paper_default.json
//   serdes_cli sweep examples/specs/ci_matrix.json --shard 0/2 --out r.json
//   serdes_cli validate examples/specs/*.json
//   serdes_cli list-channels
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/bus_spec.h"
#include "api/channel_factory.h"
#include "api/spec_json.h"
#include "lint/lint.h"
#include "opt/optimizer.h"
#include "sweep/farm.h"
#include "sweep/result_store.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/fs.h"
#include "util/json.h"

namespace {

using serdes::util::Json;
using serdes::util::JsonError;

/// Flag/argument mistakes — exit 2 per the usage contract, vs exit 1 for
/// parse/validation/run failures.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

int usage(std::ostream& out, int exit_code) {
  out << R"(serdes_cli — JSON-driven SerDes scenario engine

usage:
  serdes_cli run <spec.json> [--lanes N] [--threads N] [--out FILE]
                 [--compact]
      Run one link scenario (a LinkSpec file) and print its RunReport.
      --lanes N (1..64) runs N lanes of the scenario as one SoA lane
      tile (each lane gets its derived per-lane seed) and prints a JSON
      array of N RunReports; --lanes 1 keeps the single-report output.
      A bus file (a BusSpec: "lanes"/"base", optional FEXT/NEXT
      "coupling"/"next_coupling" matrices) runs every lane — with the
      crosstalk injections when coupling is nonzero — and prints the
      BusReport; --threads bounds the lanes in flight.

  serdes_cli stat <spec.json> [--out FILE] [--compact]
      Statistical (StatEye-style) analysis of one LinkSpec: analytical
      BER-vs-phase bathtub, eye contours at the target BER (default
      1e-15) and timing/voltage margins — no bit stream, milliseconds
      per scenario.  A spec with "analysis": "both" additionally runs
      Monte Carlo and cross-checks it against the prediction band.

  serdes_cli optimize <spec.json> [--out FILE] [--compact]
      Closed-loop equalizer design for one LinkSpec: coordinate descent
      over the TX FFE / RX CTLE / DFE knobs with the statistical engine
      as the objective oracle (target = the spec's stat_target_ber),
      then one Monte Carlo cross-check of the winner against the stat
      prediction band.  Prints the OptimizeReport (baseline, winner
      knobs, search accounting, cross-check verdict).  Exit 1 when the
      winner misses the target or its cross-check fails.

  serdes_cli sweep <sweep.json> [--threads N] [--shard K/N] [--out FILE]
                   [--compact] [--progress] [--store DIR] [--resume]
      Expand a SweepSpec grid and run it (or the K-of-N shard of it:
      scenarios whose grid index = K mod N).  Prints the aggregated
      report; byte-identical output for any --threads value.
      --store DIR makes every finished scenario durable (fsync'd,
      checksummed journal) and computes only the cells DIR does not
      already hold — a killed run resumes from its last committed row,
      and a finished sweep re-runs for free.  --resume (requires
      --store) marks that intent explicitly in scripts; resuming is the
      default --store behavior.

  serdes_cli sweep-coordinator <sweep.json> --store DIR [--task-size N]
                   [--lease-timeout-ms MS] [--backoff-base-ms MS]
                   [--backoff-cap-ms MS] [--max-attempts N] [--poll-ms MS]
                   [--out FILE] [--compact] [--progress]
      Farm mode: seed a lease-file work queue under DIR/queue with the
      cells DIR lacks, supervise sweep-worker processes (expired leases
      re-queue with capped exponential backoff; a task failing
      --max-attempts times has its cells quarantined into the report as
      structured failure rows), and print the merged report once every
      cell is done or quarantined.

  serdes_cli sweep-worker <sweep.json> --store DIR [--worker-id ID]
                   [--heartbeat-ms MS] [--poll-ms MS] [--progress]
      Farm worker: claim tasks from DIR/queue (atomic rename — no lock
      server), commit each finished row durably to DIR, and exit when
      the coordinator posts shutdown.  Run any number of these, each
      with a unique --worker-id; killing one mid-task costs only the
      rows it had not yet committed.

  serdes_cli validate <file.json> [...]
      Check spec files (SweepSpec when an "axes" key is present, BusSpec
      when "lanes"/"base" are, LinkSpec otherwise).  OK verdicts go to
      stdout; problems go to stderr, named by their JSON path.

  serdes_cli lint <file.json> [...] [--deny SEVERITY] [--out FILE]
                  [--compact]
  serdes_cli lint --list-rules
      Semantic analysis beyond validation: degenerate sweep axes, seed
      collisions, stat-engine applicability cliffs, inert fields, noise
      budgets that make the target BER unreachable.  Findings are
      machine-readable JSON on stdout (rule id + JSON path + fix hint)
      with a human summary on stderr.  Exit 1 when any finding is at
      --deny severity (info | warning | error | none; default error) or
      above.  --list-rules prints the rule registry.

  serdes_cli list-channels
      Print the registered channel kinds.

exit status: 0 success, 1 failure (parse/validation/run/lint-deny),
             2 usage error.
)";
  return exit_code;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_output(const std::optional<std::string>& out_path,
                  const std::string& text) {
  if (!out_path) {
    std::cout << text << "\n";
    return;
  }
  // Atomic (temp file + fsync + rename): an artifact either has all its
  // bytes or keeps its previous content, even if we die mid-write.
  // util::FileError from here is reported as a usage error (exit 2)
  // naming the path.
  serdes::util::atomic_write_file(*out_path, text + "\n");
}

/// Wall-clock for the farm (the library itself never reads the OS
/// clock; tools wire it in).
serdes::sweep::FarmClock real_clock() {
  serdes::sweep::FarmClock clock;
  clock.now_ms = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  clock.sleep_ms = [](std::uint64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  return clock;
}

struct CommonFlags {
  int threads = 0;
  /// run only: lane count for SoA lane-tiled execution (0 = not given).
  int lanes = 0;
  std::optional<serdes::sweep::Shard> shard;
  std::optional<std::string> out_path;
  bool compact = false;
  bool progress = false;
  /// lint only: fail when a finding reaches this severity (nullopt = the
  /// default gate, error).
  std::optional<serdes::lint::Severity> deny;
  bool deny_none = false;
  bool list_rules = false;
  /// sweep / farm: durable result store directory.
  std::optional<std::string> store_dir;
  bool resume = false;
  /// farm tuning (coordinator unless noted).
  std::optional<std::uint64_t> task_size;
  std::optional<std::uint64_t> lease_timeout_ms;
  std::optional<std::uint64_t> backoff_base_ms;
  std::optional<std::uint64_t> backoff_cap_ms;
  std::optional<std::uint64_t> max_attempts;
  std::optional<std::uint64_t> poll_ms;  ///< coordinator and worker
  std::optional<std::uint64_t> heartbeat_ms;  ///< worker
  std::optional<std::string> worker_id;       ///< worker
  std::vector<std::string> positional;
};

/// Whole-string integer parse; errors name the flag and the bad value.
std::uint64_t parse_uint_flag(const std::string& text, const char* flag) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t v = std::stoull(text, &consumed);
    if (consumed != text.size() || text.front() == '-') {
      throw std::invalid_argument(text);
    }
    return v;
  } catch (const std::exception&) {
    throw UsageError(std::string(flag) +
                     " expects a non-negative integer, got '" + text + "'");
  }
}

serdes::sweep::Shard parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    throw UsageError("--shard expects K/N, got '" + text + "'");
  }
  serdes::sweep::Shard shard;
  shard.index = parse_uint_flag(text.substr(0, slash), "--shard");
  shard.count = parse_uint_flag(text.substr(slash + 1), "--shard");
  if (shard.count == 0 || shard.index >= shard.count) {
    throw UsageError("--shard " + text +
                     " is not a valid partition (need K < N)");
  }
  return shard;
}

/// Rejects flags a subcommand accepts syntactically but would ignore —
/// a silently dropped --threads is worse than a usage error.
void reject_unsupported(const CommonFlags& flags, const char* command,
                        bool allow_threads, bool allow_shard,
                        bool allow_output, bool allow_progress,
                        bool allow_lint_flags = false,
                        bool allow_lanes = false, bool allow_store = false,
                        bool allow_coordinator_flags = false,
                        bool allow_worker_flags = false) {
  const auto reject = [&](const char* flag) {
    throw UsageError(std::string(flag) + " is not supported by '" + command +
                     "'");
  };
  if (!allow_threads && flags.threads != 0) reject("--threads");
  if (!allow_lanes && flags.lanes != 0) reject("--lanes");
  if (!allow_shard && flags.shard) reject("--shard");
  if (!allow_output && (flags.out_path || flags.compact)) {
    reject(flags.out_path ? "--out" : "--compact");
  }
  if (!allow_progress && flags.progress) reject("--progress");
  if (!allow_lint_flags && (flags.deny || flags.deny_none)) reject("--deny");
  if (!allow_lint_flags && flags.list_rules) reject("--list-rules");
  if (!allow_store && flags.store_dir) reject("--store");
  if (!allow_store && flags.resume) reject("--resume");
  if (!allow_coordinator_flags) {
    if (flags.task_size) reject("--task-size");
    if (flags.lease_timeout_ms) reject("--lease-timeout-ms");
    if (flags.backoff_base_ms) reject("--backoff-base-ms");
    if (flags.backoff_cap_ms) reject("--backoff-cap-ms");
    if (flags.max_attempts) reject("--max-attempts");
  }
  if (!allow_worker_flags) {
    if (flags.worker_id) reject("--worker-id");
    if (flags.heartbeat_ms) reject("--heartbeat-ms");
  }
  if (!allow_coordinator_flags && !allow_worker_flags && flags.poll_ms) {
    reject("--poll-ms");
  }
}

CommonFlags parse_flags(const std::vector<std::string>& args) {
  CommonFlags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next_value = [&](const char* flag) -> const std::string& {
      if (i + 1 >= args.size()) {
        throw UsageError(std::string(flag) + " expects a value");
      }
      return args[++i];
    };
    if (arg == "--threads") {
      const std::uint64_t n =
          parse_uint_flag(next_value("--threads"), "--threads");
      if (n > 4096) throw UsageError("--threads must be <= 4096");
      flags.threads = static_cast<int>(n);
    } else if (arg == "--lanes") {
      const std::uint64_t n = parse_uint_flag(next_value("--lanes"), "--lanes");
      if (n < 1 || n > 64) {
        throw UsageError("--lanes must be in [1, 64], got " +
                         std::to_string(n));
      }
      flags.lanes = static_cast<int>(n);
    } else if (arg == "--shard") {
      flags.shard = parse_shard(next_value("--shard"));
    } else if (arg == "--out") {
      flags.out_path = next_value("--out");
    } else if (arg == "--compact") {
      flags.compact = true;
    } else if (arg == "--progress") {
      flags.progress = true;
    } else if (arg == "--deny") {
      const std::string& level = next_value("--deny");
      if (level == "none") {
        flags.deny_none = true;
      } else if (level == "info" || level == "warning" || level == "error") {
        flags.deny = serdes::lint::severity_from_string(level, "--deny");
      } else {
        throw UsageError(
            "--deny expects info | warning | error | none, got '" + level +
            "'");
      }
    } else if (arg == "--list-rules") {
      flags.list_rules = true;
    } else if (arg == "--store") {
      flags.store_dir = next_value("--store");
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (arg == "--task-size") {
      flags.task_size = parse_uint_flag(next_value("--task-size"),
                                        "--task-size");
      if (*flags.task_size == 0) {
        throw UsageError("--task-size must be positive");
      }
    } else if (arg == "--lease-timeout-ms") {
      flags.lease_timeout_ms = parse_uint_flag(
          next_value("--lease-timeout-ms"), "--lease-timeout-ms");
    } else if (arg == "--backoff-base-ms") {
      flags.backoff_base_ms = parse_uint_flag(next_value("--backoff-base-ms"),
                                              "--backoff-base-ms");
    } else if (arg == "--backoff-cap-ms") {
      flags.backoff_cap_ms = parse_uint_flag(next_value("--backoff-cap-ms"),
                                             "--backoff-cap-ms");
    } else if (arg == "--max-attempts") {
      flags.max_attempts = parse_uint_flag(next_value("--max-attempts"),
                                           "--max-attempts");
      if (*flags.max_attempts == 0) {
        throw UsageError("--max-attempts must be positive");
      }
    } else if (arg == "--poll-ms") {
      flags.poll_ms = parse_uint_flag(next_value("--poll-ms"), "--poll-ms");
    } else if (arg == "--heartbeat-ms") {
      flags.heartbeat_ms = parse_uint_flag(next_value("--heartbeat-ms"),
                                           "--heartbeat-ms");
    } else if (arg == "--worker-id") {
      const std::string& id = next_value("--worker-id");
      if (id.empty() ||
          id.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                               "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_") !=
              std::string::npos) {
        throw UsageError("--worker-id must be non-empty [A-Za-z0-9_-], got '" +
                         id + "'");
      }
      flags.worker_id = id;
    } else if (!arg.empty() && arg.front() == '-') {
      throw UsageError("unknown flag '" + arg + "'");
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

int cmd_run(const CommonFlags& flags) {
  if (flags.positional.size() != 1) {
    std::cerr << "run expects exactly one spec file\n";
    return 2;
  }
  reject_unsupported(flags, "run", /*allow_threads=*/true,
                     /*allow_shard=*/false, /*allow_output=*/true,
                     /*allow_progress=*/false, /*allow_lint_flags=*/false,
                     /*allow_lanes=*/true);
  const std::string& path = flags.positional.front();
  const Json doc = Json::parse(read_file(path));
  if (serdes::api::looks_like_bus_spec(doc)) {
    if (flags.lanes != 0) {
      throw UsageError("--lanes applies to link specs; a bus file carries "
                       "its own lane count");
    }
    serdes::api::BusSpec bus;
    try {
      bus = serdes::api::bus_spec_from_json(doc);
      bus.validate_or_throw();
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
    const serdes::api::BusReport report =
        serdes::api::Simulator().run_bus(bus, flags.threads);
    write_output(flags.out_path,
                 serdes::api::to_json(report).dump(flags.compact ? -1 : 2));
    return 0;
  }
  if (flags.threads != 0) {
    throw UsageError("--threads applies to bus files; link scenarios are "
                     "single-lane (use --lanes for a tile)");
  }
  serdes::api::LinkSpec spec = serdes::api::link_spec_from_json(doc);
  if (flags.lanes > 1) spec.lane_batch = flags.lanes;
  if (auto err = serdes::api::validate_spec_with_paths(spec); !err.empty()) {
    throw std::runtime_error(path + ": " + err);
  }
  if (flags.lanes > 1) {
    // N copies of the scenario fanned into run_batch: per-lane derived
    // seeds, grouped into one SoA lane tile when the spec is tileable.
    std::vector<serdes::api::LinkSpec> lanes(
        static_cast<std::size_t>(flags.lanes), spec);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].name = spec.name + "/lane" + std::to_string(i);
    }
    const std::vector<serdes::api::RunReport> reports =
        serdes::api::Simulator().run_batch(lanes);
    Json arr = Json::array();
    for (const auto& report : reports) {
      arr.push_back(serdes::api::to_json(report));
    }
    write_output(flags.out_path, arr.dump(flags.compact ? -1 : 2));
    return 0;
  }
  const serdes::api::RunReport report = serdes::api::Simulator().run(spec);
  write_output(flags.out_path,
               serdes::api::to_json(report).dump(flags.compact ? -1 : 2));
  return 0;
}

int cmd_stat(const CommonFlags& flags) {
  if (flags.positional.size() != 1) {
    std::cerr << "stat expects exactly one spec file\n";
    return 2;
  }
  reject_unsupported(flags, "stat", /*allow_threads=*/false,
                     /*allow_shard=*/false, /*allow_output=*/true,
                     /*allow_progress=*/false);
  const std::string& path = flags.positional.front();
  const Json doc = Json::parse(read_file(path));
  if (serdes::api::looks_like_bus_spec(doc)) {
    throw std::runtime_error(
        path + ": stat expects a LinkSpec; run bus files (per-lane stat "
               "included via \"analysis\") with 'serdes_cli run'");
  }
  serdes::api::LinkSpec spec = serdes::api::link_spec_from_json(doc);
  // Validate the spec as written first — a typo like "botth" must fail
  // with its field path, not be silently coerced into a stat-only run.
  if (auto err = serdes::api::validate_spec_with_paths(spec); !err.empty()) {
    throw std::runtime_error(path + ": " + err);
  }
  // "both" is honored (MC + cross-check); "mc"/"stat" become a pure stat
  // run — that is what this subcommand is for.
  if (spec.analysis != "both") spec.analysis = "stat";
  const serdes::api::RunReport report = serdes::api::Simulator().run(spec);
  write_output(flags.out_path,
               serdes::api::to_json(report).dump(flags.compact ? -1 : 2));
  return 0;
}

int cmd_optimize(const CommonFlags& flags) {
  if (flags.positional.size() != 1) {
    std::cerr << "optimize expects exactly one spec file\n";
    return 2;
  }
  reject_unsupported(flags, "optimize", /*allow_threads=*/false,
                     /*allow_shard=*/false, /*allow_output=*/true,
                     /*allow_progress=*/false);
  const std::string& path = flags.positional.front();
  const Json doc = Json::parse(read_file(path));
  if (serdes::api::looks_like_bus_spec(doc)) {
    throw std::runtime_error(path +
                             ": optimize expects a LinkSpec, not a bus file");
  }
  const serdes::api::LinkSpec spec = serdes::api::link_spec_from_json(doc);
  if (auto err = serdes::api::validate_spec_with_paths(spec); !err.empty()) {
    throw std::runtime_error(path + ": " + err);
  }
  const serdes::opt::OptimizeReport report = serdes::opt::optimize(spec);
  write_output(flags.out_path,
               serdes::api::to_json(report).dump(flags.compact ? -1 : 2));
  // Exit contract: the design must meet the target AND survive its own
  // Monte Carlo cross-examination.
  return (report.met && report.mc_consistent) ? 0 : 1;
}

int cmd_sweep(const CommonFlags& flags) {
  if (flags.positional.size() != 1) {
    std::cerr << "sweep expects exactly one sweep file\n";
    return 2;
  }
  reject_unsupported(flags, "sweep", /*allow_threads=*/true,
                     /*allow_shard=*/true, /*allow_output=*/true,
                     /*allow_progress=*/true, /*allow_lint_flags=*/false,
                     /*allow_lanes=*/false, /*allow_store=*/true);
  if (flags.resume && !flags.store_dir) {
    throw UsageError("--resume requires --store DIR (there is nothing to "
                     "resume from without a store)");
  }
  const std::string& path = flags.positional.front();
  const Json doc = Json::parse(read_file(path));
  const serdes::sweep::SweepSpec sweep =
      serdes::sweep::SweepSpec::from_json(doc);

  serdes::sweep::SweepRunner::Options options;
  options.n_threads = flags.threads;
  options.shard = flags.shard.value_or(serdes::sweep::Shard{});
  if (flags.progress) {
    // Progress goes to stderr so stdout stays a clean report stream.
    options.on_scenario = [](const serdes::sweep::ScenarioResult& row) {
      std::cerr << "[" << row.index << "] " << row.name << ": ber=" << row.ber
                << (row.aligned ? "" : " (unaligned)") << "\n";
    };
  }
  // SweepRunner::run validates the sweep itself (exhaustively for modest
  // grids) — no pre-validation here, so the full-grid check runs once.
  serdes::sweep::SweepReport report;
  try {
    if (flags.store_dir) {
      serdes::sweep::ResultStore store(*flags.store_dir);
      for (const auto& warning : store.warnings()) {
        std::cerr << "store: " << warning << "\n";
      }
      serdes::sweep::StoreRunStats stats;
      report = serdes::sweep::run_sweep_with_store(
          serdes::sweep::SweepRunner(options), sweep, store, &stats);
      if (flags.progress) {
        std::cerr << "store: computed " << stats.computed << " of "
                  << stats.total << " scenarios (" << stats.cached
                  << " cached";
        if (stats.quarantined > 0) {
          std::cerr << ", " << stats.quarantined << " quarantined";
        }
        std::cerr << ")\n";
        if (stats.computed == 0) {
          std::cerr << "store: warm — computed 0 scenarios\n";
        }
      }
    } else {
      report = serdes::sweep::SweepRunner(options).run(sweep);
    }
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  write_output(flags.out_path,
               serdes::sweep::to_json(report).dump(flags.compact ? -1 : 2));
  return 0;
}

int cmd_sweep_coordinator(const CommonFlags& flags) {
  if (flags.positional.size() != 1) {
    std::cerr << "sweep-coordinator expects exactly one sweep file\n";
    return 2;
  }
  reject_unsupported(flags, "sweep-coordinator", /*allow_threads=*/false,
                     /*allow_shard=*/false, /*allow_output=*/true,
                     /*allow_progress=*/true, /*allow_lint_flags=*/false,
                     /*allow_lanes=*/false, /*allow_store=*/true,
                     /*allow_coordinator_flags=*/true);
  if (!flags.store_dir) {
    throw UsageError("sweep-coordinator requires --store DIR");
  }
  const std::string& path = flags.positional.front();
  const Json doc = Json::parse(read_file(path));
  const serdes::sweep::SweepSpec sweep =
      serdes::sweep::SweepSpec::from_json(doc);

  serdes::sweep::CoordinatorOptions options;
  options.clock = real_clock();
  if (flags.task_size) options.task_size = *flags.task_size;
  if (flags.lease_timeout_ms) options.lease_timeout_ms = *flags.lease_timeout_ms;
  if (flags.backoff_base_ms) options.backoff_base_ms = *flags.backoff_base_ms;
  if (flags.backoff_cap_ms) options.backoff_cap_ms = *flags.backoff_cap_ms;
  if (flags.max_attempts) options.max_attempts = *flags.max_attempts;
  if (flags.progress) {
    options.on_event = [](const std::string& message) {
      std::cerr << "coordinator: " << message << "\n";
    };
  }
  const std::uint64_t poll =
      flags.poll_ms.value_or(std::max<std::uint64_t>(
          50, std::min<std::uint64_t>(500, options.lease_timeout_ms / 4)));

  serdes::sweep::Coordinator coordinator(sweep, *flags.store_dir,
                                         options);
  coordinator.start();
  const auto clock = real_clock();
  while (!coordinator.step()) clock.sleep_ms(poll);

  serdes::sweep::StoreRunStats stats;
  const serdes::sweep::SweepReport report = coordinator.report(&stats);
  if (flags.progress) {
    std::cerr << "coordinator: " << stats.cached << " cells in store";
    if (stats.quarantined > 0) {
      std::cerr << ", " << stats.quarantined << " quarantined";
    }
    std::cerr << "\n";
  }
  write_output(flags.out_path,
               serdes::sweep::to_json(report).dump(flags.compact ? -1 : 2));
  return 0;
}

int cmd_sweep_worker(const CommonFlags& flags) {
  if (flags.positional.size() != 1) {
    std::cerr << "sweep-worker expects exactly one sweep file\n";
    return 2;
  }
  reject_unsupported(flags, "sweep-worker", /*allow_threads=*/false,
                     /*allow_shard=*/false, /*allow_output=*/false,
                     /*allow_progress=*/true, /*allow_lint_flags=*/false,
                     /*allow_lanes=*/false, /*allow_store=*/true,
                     /*allow_coordinator_flags=*/false,
                     /*allow_worker_flags=*/true);
  if (!flags.store_dir) {
    throw UsageError("sweep-worker requires --store DIR");
  }
  const std::string& path = flags.positional.front();
  const Json doc = Json::parse(read_file(path));
  const serdes::sweep::SweepSpec sweep =
      serdes::sweep::SweepSpec::from_json(doc);

  serdes::sweep::WorkerOptions options;
  options.clock = real_clock();
  options.worker_id = flags.worker_id.value_or("w0");
  if (flags.heartbeat_ms) options.heartbeat_ms = *flags.heartbeat_ms;
  if (flags.poll_ms) options.idle_poll_ms = *flags.poll_ms;
  if (flags.progress) {
    const std::string id = options.worker_id;
    options.on_scenario = [id](const serdes::sweep::ScenarioResult& row) {
      std::cerr << id << ": [" << row.index << "] " << row.name
                << ": ber=" << row.ber << (row.aligned ? "" : " (unaligned)")
                << "\n";
    };
  }

  serdes::sweep::Worker worker(sweep, *flags.store_dir, options);
  const std::uint64_t computed = worker.run();
  std::cerr << options.worker_id << ": computed " << computed << " cells\n";
  return 0;
}

int cmd_validate(const CommonFlags& flags) {
  if (flags.positional.empty()) {
    std::cerr << "validate expects at least one spec file\n";
    return 2;
  }
  reject_unsupported(flags, "validate", /*allow_threads=*/false,
                     /*allow_shard=*/false, /*allow_output=*/false,
                     /*allow_progress=*/false);
  int failures = 0;
  for (const std::string& path : flags.positional) {
    try {
      const Json doc = Json::parse(read_file(path));
      // A sweep file declares axes, a bus file lanes/base; anything else
      // is a single LinkSpec.
      if (doc.is_object() && doc.find("axes") != nullptr) {
        const auto sweep = serdes::sweep::SweepSpec::from_json(doc);
        if (auto err = sweep.validate(); !err.empty()) {
          throw std::runtime_error(err);
        }
        std::cout << path << ": OK — sweep '" << sweep.name << "', "
                  << sweep.scenario_count() << " scenarios\n";
      } else if (serdes::api::looks_like_bus_spec(doc)) {
        const auto bus = serdes::api::bus_spec_from_json(doc);
        if (auto err = bus.validate(); !err.empty()) {
          throw std::runtime_error(err);
        }
        std::cout << path << ": OK — bus '" << bus.name << "', " << bus.lanes
                  << " lane(s)\n";
      } else {
        const auto spec = serdes::api::link_spec_from_json(doc);
        if (auto err = serdes::api::validate_spec_with_paths(spec);
            !err.empty()) {
          throw std::runtime_error(err);
        }
        std::cout << path << ": OK — link spec '" << spec.name << "'\n";
      }
    } catch (const std::exception& e) {
      std::cerr << path << ": INVALID — " << e.what() << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_lint(const CommonFlags& flags) {
  reject_unsupported(flags, "lint", /*allow_threads=*/false,
                     /*allow_shard=*/false, /*allow_output=*/true,
                     /*allow_progress=*/false, /*allow_lint_flags=*/true);
  if (flags.list_rules) {
    if (!flags.positional.empty() || flags.deny || flags.deny_none ||
        flags.out_path || flags.compact) {
      throw UsageError("--list-rules takes no other arguments");
    }
    for (const auto& rule : serdes::lint::rules()) {
      std::cout << rule.id << "  [" << serdes::lint::to_string(rule.severity)
                << (rule.sweep_only ? ", sweep-only" : "")
                << (rule.bus_only ? ", bus-only" : "") << "]  "
                << rule.summary << "\n";
    }
    return 0;
  }
  if (flags.positional.empty()) {
    std::cerr << "lint expects at least one spec file (or --list-rules)\n";
    return 2;
  }
  // Default gate: structural errors fail the command, warnings/infos are
  // advisory.  CI tightens with --deny info over the shipped specs.
  const auto deny = flags.deny.value_or(serdes::lint::Severity::kError);
  const serdes::lint::Linter linter;
  Json reports = Json::array();
  std::size_t denied = 0;
  for (const std::string& path : flags.positional) {
    const Json doc = Json::parse(read_file(path));
    serdes::lint::LintReport report;
    // A sweep file declares axes, a bus file lanes/base; anything else
    // is a single LinkSpec.  Lint presumes a runnable spec, so
    // validation failures stay hard errors exactly as `validate`
    // reports them.
    if (doc.is_object() && doc.find("axes") != nullptr) {
      const auto sweep = serdes::sweep::SweepSpec::from_json(doc);
      if (auto err = sweep.validate(); !err.empty()) {
        throw std::runtime_error(path + ": " + err);
      }
      report = linter.lint(sweep);
    } else if (serdes::api::looks_like_bus_spec(doc)) {
      serdes::api::BusSpec bus;
      try {
        bus = serdes::api::bus_spec_from_json(doc);
      } catch (const JsonError& e) {
        throw std::runtime_error(path + ": " + e.what());
      }
      if (auto err = bus.validate(); !err.empty()) {
        throw std::runtime_error(path + ": " + err);
      }
      report = linter.lint(bus);
    } else {
      const auto spec = serdes::api::link_spec_from_json(doc);
      if (auto err = serdes::api::validate_spec_with_paths(spec);
          !err.empty()) {
        throw std::runtime_error(path + ": " + err);
      }
      report = linter.lint(spec);
    }
    for (const auto& finding : report.findings) {
      std::cerr << path << ": " << finding.path << ": ["
                << serdes::lint::to_string(finding.severity) << "] "
                << finding.rule << ": " << finding.message;
      if (!finding.hint.empty()) std::cerr << " (fix: " << finding.hint << ")";
      std::cerr << "\n";
    }
    std::cerr << path << ": "
              << (report.clean()
                      ? "clean"
                      : std::to_string(report.findings.size()) + " finding(s)")
              << "\n";
    if (!flags.deny_none) denied += report.count_at_least(deny);
    Json entry = Json::object();
    entry.set("file", path);
    entry.set("report", serdes::lint::to_json(report));
    reports.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("reports", std::move(reports));
  write_output(flags.out_path, out.dump(flags.compact ? -1 : 2));
  return denied == 0 ? 0 : 1;
}

int cmd_list_channels(const CommonFlags& flags) {
  reject_unsupported(flags, "list-channels", /*allow_threads=*/false,
                     /*allow_shard=*/false, /*allow_output=*/false,
                     /*allow_progress=*/false);
  for (const auto& kind : serdes::api::ChannelFactory::instance().kinds()) {
    std::cout << kind << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr, 2);
  const std::string command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    const CommonFlags flags = parse_flags(rest);
    if (command == "run") return cmd_run(flags);
    if (command == "stat") return cmd_stat(flags);
    if (command == "optimize") return cmd_optimize(flags);
    if (command == "sweep") return cmd_sweep(flags);
    if (command == "sweep-coordinator") return cmd_sweep_coordinator(flags);
    if (command == "sweep-worker") return cmd_sweep_worker(flags);
    if (command == "validate") return cmd_validate(flags);
    if (command == "lint") return cmd_lint(flags);
    if (command == "list-channels") return cmd_list_channels(flags);
    if (command == "help" || command == "--help" || command == "-h") {
      return usage(std::cout, 0);
    }
    std::cerr << "unknown command '" << command << "'\n\n";
    return usage(std::cerr, 2);
  } catch (const UsageError& e) {
    std::cerr << "serdes_cli " << command << ": " << e.what() << "\n";
    return 2;
  } catch (const serdes::util::FileError& e) {
    // An unwritable --out/--store path is an invocation problem, not a
    // simulation failure: name the path, exit with the usage status.
    std::cerr << "serdes_cli " << command << ": cannot write " << e.path()
              << " — " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "serdes_cli " << command << ": " << e.what() << "\n";
    return 1;
  }
}
