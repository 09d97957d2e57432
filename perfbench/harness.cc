// Benchmark harness: runs one workload's passes, replays one pass traced,
// checks every report and prints one JSON result line.
//
//   perfbench_harness --workload NAME --inputs DIR --seconds S
//                     [--setup-only] [--pins FILE] [--trace-out FILE]
//
// Protocol on stdout: the line "SETUP_DONE" once the inputs are loaded,
// validated and expanded and the first (cold) pass has finished, then -
// unless --setup-only - one JSON object on the last line.  perfbench/run.py
// drives this binary; see perfbench/README.md for the metrics.
//
// Correctness accounting: every run of every operation and every check is
// one attempt.  A run fails when it throws, breaks its operation contract
// (optimize: met and mc_consistent) or serializes a report whose FNV-1a
// digest differs from the reference: the pinned digest when --pins is
// given, else the operation's own first run.  Checks: each operation's
// traced replay is byte-identical to its untraced report, workload checks
// (sweep_1k: 1 thread equals 2 threads), and trace coverage >= 0.9.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/receiver.h"
#include "trace.h"
#include "util/json.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

using perfbench::Clock;
using perfbench::OpResult;
using perfbench::Pass;
using serdes::util::Json;

constexpr double kMinCoverage = 0.9;
constexpr int kMinWarmPasses = 3;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::string inputs;
  double seconds = 10.0;
  bool setup_only = false;
  std::string pins;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--inputs") {
      args.inputs = value();
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else if (arg == "--pins") {
      args.pins = value();
    } else if (arg == "--trace-out") {
      args.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (args.workload.empty() || args.inputs.empty()) {
    throw std::invalid_argument("--workload and --inputs are required");
  }
  return args;
}

/// Every run of one operation, across passes.
struct OpRecord {
  std::string name;
  std::string kind;
  bool top = true;
  std::string digest;  // of the first run
  std::string bytes;   // of the latest run (compared with the replay)
  std::vector<double> warm_ms;
  std::uint64_t sim_bits = 0;
  int runs = 0;
  int failed_runs = 0;
  std::string first_failure;
};

class Ledger {
 public:
  explicit Ledger(std::map<std::string, std::string> pins)
      : pins_(std::move(pins)) {}

  void add(const Pass& pass, bool warm) {
    for (const OpResult& op : pass.ops) {
      auto [it, fresh] = index_.try_emplace(op.name, records_.size());
      if (fresh) {
        OpRecord r;
        r.name = op.name;
        r.kind = op.kind;
        r.top = op.top;
        r.digest = hex(fnv1a64(op.bytes));
        records_.push_back(std::move(r));
      }
      OpRecord& r = records_[it->second];
      ++r.runs;
      r.bytes = op.bytes;
      r.sim_bits = op.sim_bits;
      if (warm) r.warm_ms.push_back(op.ms);
      std::string why;
      if (!op.error.empty()) {
        why = "threw: " + op.error;
      } else if (!op.contract_ok) {
        why = "broke its exit contract (met && mc_consistent)";
      } else {
        const std::string digest = hex(fnv1a64(op.bytes));
        std::string want = r.digest;
        if (!pins_.empty()) {
          const auto pin = pins_.find(op.name);
          want = pin == pins_.end() ? "(no pinned digest)" : pin->second;
        }
        if (digest != want) why = "digest " + digest + " != " + want;
      }
      if (!why.empty()) {
        ++r.failed_runs;
        if (r.first_failure.empty()) r.first_failure = why;
      }
    }
  }

  void check(const std::string& name, bool ok, const std::string& detail) {
    Json c = Json::object();
    c.set("name", name);
    c.set("ok", ok);
    if (!detail.empty()) c.set("detail", detail);
    checks_.push_back(std::move(c));
    ++check_count_;
    if (!ok) ++failed_checks_;
  }

  [[nodiscard]] const OpRecord* find(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : &records_[it->second];
  }

  [[nodiscard]] Json to_json() const {
    std::int64_t attempted = check_count_;
    std::int64_t failed = failed_checks_;
    Json ops = Json::array();
    for (const OpRecord& r : records_) {
      attempted += r.runs;
      failed += r.failed_runs;
      Json o = Json::object();
      o.set("name", r.name);
      o.set("kind", r.kind);
      o.set("top", r.top);
      o.set("digest", r.digest);
      o.set("runs", r.runs);
      o.set("failed_runs", r.failed_runs);
      if (!r.first_failure.empty()) o.set("failure", r.first_failure);
      o.set("sim_bits", r.sim_bits);
      Json ms = Json::array();
      for (const double v : r.warm_ms) ms.push_back(v);
      o.set("warm_ms", std::move(ms));
      ops.push_back(std::move(o));
    }
    Json out = Json::object();
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("ops", std::move(ops));
    out.set("checks", checks_);
    return out;
  }

 private:
  std::map<std::string, std::string> pins_;
  std::vector<OpRecord> records_;
  std::map<std::string, std::size_t> index_;
  Json checks_ = Json::array();
  std::int64_t check_count_ = 0;
  std::int64_t failed_checks_ = 0;
};

std::map<std::string, std::string> load_pins(const std::string& path,
                                             const std::string& workload) {
  std::map<std::string, std::string> pins;
  if (path.empty()) return pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  const Json* section = doc.find(workload);
  if (section == nullptr) {
    throw std::runtime_error(path + ": no digests for " + workload);
  }
  for (const auto& [name, digest] : section->as_object()) {
    pins[name] = digest.as_string();
  }
  return pins;
}

/// Host time of one core::Receiver construction (device characterization),
/// median over the workload's probe configurations.
double rx_char_ms(const std::vector<serdes::core::LinkConfig>& configs) {
  std::vector<double> ms;
  for (const serdes::core::LinkConfig& cfg : configs) {
    const Clock::time_point t0 = Clock::now();
    const serdes::core::Receiver rx(cfg);
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    (void)rx.decision_threshold();
  }
  return median(ms);
}

/// Per-layer metrics of the traced replay (see perfbench/README.md).
Json layer_metrics(const perfbench::Tracer& t, double rx_char,
                   double untraced_wall_ms) {
  const auto self = t.self_ms_by_name();
  const auto ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  Json m = Json::object();
  m.set("analog.rx_char_ms", rx_char);
  m.set("core.link_build_ms", ms("core.link_build"));
  m.set("stat.analyze_ms", ms("stat.analyze"));
  m.set("stat.calls", t.count_of("stat.calls"));
  m.set("stat.isi_cursors", t.count_of("stat.isi_cursors"));
  m.set("opt.optimize_ms", ms("opt.optimize"));
  m.set("opt.evaluations", t.count_of("opt.evaluations"));
  m.set("opt.ms_per_eval",
        per(ms("opt.optimize"), t.count_of("opt.evaluations")));
  m.set("core.train_ms", ms("core.train"));
  m.set("core.train_passes", t.count_of("core.train_passes"));
  m.set("core.mc_ns_per_bit",
        per(ms("core.mc") * 1e6, t.count_of("core.mc_bits")));
  m.set("core.lane_ns_per_lane_bit",
        per(ms("core.lane_measure") * 1e6, t.count_of("core.lane_bits")));
  m.set("api.run_bus_ms", ms("api.run_bus"));
  m.set("core.eye_ms", ms("core.eye"));
  m.set("channel.build_ms", ms("channel.build"));
  m.set("api.lower_ms", ms("api.lower"));
  m.set("sweep.aggregate_ms", ms("sweep.aggregate"));
  m.set("api.serialize_ms", ms("api.serialize"));
  m.set("api.parse_ms", ms("api.parse"));
  m.set("sweep.expand_ms", ms("sweep.expand"));
  m.set("trace.coverage", t.coverage());
  m.set("trace.overhead",
        per(t.wall_ms() - untraced_wall_ms, untraced_wall_ms));
  return m;
}

Json env_json() {
  Json env = Json::object();
  env.set("nproc",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  env.set("cpu_has_avx2", serdes::util::cpu_has_avx2());
  env.set("compiler", PERFBENCH_COMPILER);
  env.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  env.set("build_type", PERFBENCH_BUILD_TYPE);
  return env;
}

int run(const Args& args) {
  const Clock::time_point start = Clock::now();
  const auto since_start_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // ---- set-up: load, validate and expand the inputs, then one cold pass --
  Ledger ledger(load_pins(args.pins, args.workload));
  const perfbench::Workload workload =
      perfbench::load_workload(args.workload, args.inputs);
  ledger.add(workload.run_pass(), /*warm=*/false);
  const double setup_s = since_start_s();
  std::cout << "SETUP_DONE" << std::endl;
  if (args.setup_only) return 0;

  // ---- measurement: warm passes for the requested time ------------------
  std::vector<double> wall_ms;
  Pass last;
  const Clock::time_point measure_start = Clock::now();
  while (static_cast<int>(wall_ms.size()) < kMinWarmPasses ||
         std::chrono::duration<double>(Clock::now() - measure_start).count() <
             args.seconds) {
    last = workload.run_pass();
    wall_ms.push_back(last.wall_ms);
    ledger.add(last, /*warm=*/true);
  }
  const double rss_mb = peak_rss_mb();

  // ---- traced replay and checks (outside the measurement) ---------------
  perfbench::Tracer tracer;
  const Pass traced = workload.replay(tracer);
  for (const OpResult& op : traced.ops) {
    const OpRecord* untraced = ledger.find(op.name);
    const bool same = untraced != nullptr && op.error.empty() &&
                      op.bytes == untraced->bytes;
    ledger.check("replay_identical:" + op.name, same,
                 same ? "" : (op.error.empty() ? "replay bytes differ"
                                               : "replay threw: " + op.error));
  }
  const perfbench::ExtraChecks extra = workload.extra_checks(last);
  for (const perfbench::Check& c : extra.checks) {
    ledger.check(c.name, c.ok, c.detail);
  }
  const double coverage = tracer.coverage();
  ledger.check("trace_coverage", coverage >= kMinCoverage,
               coverage >= kMinCoverage ? "" : "coverage below 0.9");

  const double untraced_ms =
      extra.serial_wall_ms > 0.0 ? extra.serial_wall_ms : median(wall_ms);
  Json layers =
      layer_metrics(tracer, rx_char_ms(workload.probe_configs), untraced_ms);

  if (!args.trace_out.empty()) {
    Json sidecar = tracer.to_json();
    sidecar.set("workload", args.workload);
    sidecar.set("env", env_json());
    sidecar.set("layers", layers);
    std::ofstream out(args.trace_out, std::ios::binary);
    out << sidecar.dump(1) << "\n";
    if (!out) throw std::runtime_error("cannot write " + args.trace_out);
  }

  Json result = ledger.to_json();
  result.set("workload", args.workload);
  result.set("env", env_json());
  result.set("setup_s", setup_s);
  Json walls = Json::array();
  for (const double v : wall_ms) walls.push_back(v);
  result.set("pass_wall_ms", std::move(walls));
  result.set("peak_rss_mb", rss_mb);
  result.set("traced_wall_ms", tracer.wall_ms());
  result.set("layers", std::move(layers));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
