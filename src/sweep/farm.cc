#include "sweep/farm.h"

#include <cstdio>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/spec_json.h"
#include "util/fault.h"
#include "util/fs.h"
#include "util/json.h"

namespace serdes::sweep {

namespace fs = std::filesystem;

namespace {

std::string task_filename(std::uint64_t id) {
  return "task-" + std::to_string(id) + ".json";
}

std::string dump_task(std::uint64_t id, std::uint64_t attempts,
                      const std::vector<std::uint64_t>& indices) {
  util::Json j = util::Json::object();
  j.set("task", id);
  j.set("attempts", attempts);
  util::Json idx = util::Json::array();
  for (const std::uint64_t i : indices) idx.push_back(i);
  j.set("indices", std::move(idx));
  return j.dump();
}

/// Whole-file read; empty optional when the file cannot be opened.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

bool exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

void require_clock(const FarmClock& clock, const char* who) {
  if (!clock.now_ms || !clock.sleep_ms) {
    throw std::invalid_argument(std::string(who) +
                                ": FarmClock must provide now_ms and "
                                "sleep_ms (the library never reads the OS "
                                "clock itself)");
  }
}

}  // namespace

// ------------------------------------------------------------ Coordinator --

Coordinator::Coordinator(SweepSpec spec, std::string store_dir,
                         CoordinatorOptions options)
    : spec_(std::move(spec)),
      store_dir_(std::move(store_dir)),
      queue_dir_(store_dir_ + "/queue"),
      options_(std::move(options)) {
  require_clock(options_.clock, "Coordinator");
  if (auto err = spec_.validate(); !err.empty()) {
    throw std::invalid_argument("Coordinator: invalid sweep: " + err);
  }
  if (options_.task_size == 0) {
    throw std::invalid_argument("Coordinator: task_size must be positive");
  }
  if (options_.max_attempts == 0) {
    throw std::invalid_argument("Coordinator: max_attempts must be positive");
  }
}

void Coordinator::event(const std::string& message) const {
  if (options_.on_event) options_.on_event(message);
}

void Coordinator::write_task_file(const std::string& dir,
                                  const Task& task) const {
  util::atomic_write_file(dir + "/" + task_filename(task.id),
                          dump_task(task.id, task.attempts, task.indices));
}

void Coordinator::start() {
  util::ensure_directory(queue_dir_);
  for (const char* sub : {"todo", "leased", "failed", "done"}) {
    util::ensure_directory(queue_dir_ + "/" + sub);
  }
  // Take over any stale queue: a previous coordinator may have died with
  // tasks in flight.  The store, not the queue, is the truth about what
  // is finished — so wipe the queue and reseed from store coverage.
  remove_quietly(queue_dir_ + "/ready");
  remove_quietly(queue_dir_ + "/shutdown");
  for (const char* sub : {"todo", "leased", "failed", "done"}) {
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(queue_dir_ + "/" + sub, ec)) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
    }
  }

  tasks_.clear();
  hash_by_index_.clear();
  complete_ = false;
  quarantined_cells_ = 0;

  // The coordinator's own store handle doubles as a fresh coverage scan
  // (it loads every journal on open) and as the quarantine writer.
  store_ = std::make_unique<ResultStore>(store_dir_, "coordinator");

  const std::uint64_t grid_total = spec_.scenario_count();
  total_cells_ = grid_total;
  std::vector<std::uint64_t> missing;
  for (std::uint64_t i = 0; i < grid_total; ++i) {
    const std::uint64_t hash = api::spec_content_hash(spec_.scenario(i));
    hash_by_index_[i] = hash;
    ScenarioResult row;
    QuarantinedScenario quarantined;
    if (!store_->lookup(i, hash, row) &&
        !store_->lookup_quarantine(i, hash, quarantined)) {
      missing.push_back(i);
    }
  }
  seeded_cells_ = missing.size();

  std::uint64_t next_id = 0;
  for (std::size_t at = 0; at < missing.size(); at += options_.task_size) {
    Task task;
    task.id = next_id++;
    task.attempts = 1;
    const std::size_t end =
        std::min(missing.size(), at + static_cast<std::size_t>(options_.task_size));
    task.indices.assign(missing.begin() + static_cast<std::ptrdiff_t>(at),
                        missing.begin() + static_cast<std::ptrdiff_t>(end));
    write_task_file(queue_dir_ + "/todo", task);
    tasks_[task.id] = std::move(task);
  }
  util::atomic_write_file(queue_dir_ + "/ready", "ready\n");
  started_ = true;
  event("seeded " + std::to_string(seeded_cells_) + " of " +
        std::to_string(total_cells_) + " cells into " +
        std::to_string(tasks_.size()) + " tasks");
  finish_if_idle();
}

std::size_t Coordinator::outstanding_tasks() const {
  std::size_t n = 0;
  for (const auto& [id, task] : tasks_) {
    if (task.state != TaskState::kDone &&
        task.state != TaskState::kQuarantined) {
      ++n;
    }
  }
  return n;
}

void Coordinator::requeue_or_quarantine(Task& task, const std::string& why) {
  if (task.attempts >= options_.max_attempts) {
    quarantine(task, why);
    return;
  }
  ++task.attempts;
  const std::uint64_t shift = task.attempts - 2;
  std::uint64_t backoff = options_.backoff_cap_ms;
  if (shift < 63 && (options_.backoff_base_ms << shift) >> shift ==
                        options_.backoff_base_ms) {
    backoff = std::min(options_.backoff_cap_ms,
                       options_.backoff_base_ms << shift);
  }
  task.state = TaskState::kBackoff;
  task.due_ms = options_.clock.now_ms() + backoff;
  event("task " + std::to_string(task.id) + ": " + why + "; attempt " +
        std::to_string(task.attempts) + " re-queued in " +
        std::to_string(backoff) + " ms");
}

void Coordinator::quarantine(Task& task, const std::string& why) {
  // Some of the task's cells may have landed before it failed — a crash
  // mid-task loses the task, not its committed rows.  Quarantine only
  // what a fresh store scan says is actually missing.
  const ResultStore scan(store_dir_, "coordinator-scan");
  std::uint64_t count = 0;
  for (const std::uint64_t index : task.indices) {
    const std::uint64_t hash = hash_by_index_.at(index);
    ScenarioResult row;
    QuarantinedScenario existing;
    if (scan.lookup(index, hash, row) ||
        scan.lookup_quarantine(index, hash, existing)) {
      continue;
    }
    const api::LinkSpec scenario = spec_.scenario(index);
    QuarantinedScenario q;
    q.index = index;
    q.name = scenario.name;
    q.seed = scenario.seed;
    q.attempts = task.attempts;
    q.error = why;
    store_->commit_quarantine(hash, q);
    ++count;
  }
  quarantined_cells_ += count;
  task.state = TaskState::kQuarantined;
  event("task " + std::to_string(task.id) + ": quarantined " +
        std::to_string(count) + " cells after " +
        std::to_string(task.attempts) + " attempts (" + why + ")");
}

void Coordinator::finish_if_idle() {
  if (complete_) return;
  if (outstanding_tasks() != 0) return;
  util::atomic_write_file(queue_dir_ + "/shutdown", "shutdown\n");
  complete_ = true;
  event("sweep complete; shutdown posted");
}

bool Coordinator::step() {
  if (!started_) {
    throw std::logic_error("Coordinator::step: start() was not called");
  }
  if (complete_) return true;
  const std::uint64_t now = options_.clock.now_ms();

  for (auto& [id, task] : tasks_) {
    if (task.state == TaskState::kDone ||
        task.state == TaskState::kQuarantined) {
      continue;
    }
    const std::string name = task_filename(task.id);
    const std::string done_path = queue_dir_ + "/done/" + name;
    const std::string failed_path = queue_dir_ + "/failed/" + name;
    const std::string leased_path = queue_dir_ + "/leased/" + name;
    const std::string lease_path = leased_path + ".lease";

    if (exists(done_path)) {
      task.state = TaskState::kDone;
      remove_quietly(lease_path);
      event("task " + std::to_string(task.id) + ": done");
      continue;
    }
    if (exists(failed_path)) {
      std::string text;
      std::string why = "worker reported failure";
      if (read_file(failed_path, text)) {
        try {
          const util::Json j = util::Json::parse(text);
          if (const util::Json* e = j.find("error"); e && e->is_string()) {
            why = "worker failure: " + e->as_string();
          }
        } catch (const util::JsonError&) {
        }
      }
      remove_quietly(failed_path);
      remove_quietly(leased_path);
      remove_quietly(lease_path);
      requeue_or_quarantine(task, why);
      continue;
    }

    switch (task.state) {
      case TaskState::kTodo: {
        if (exists(leased_path)) {
          task.state = TaskState::kLeased;
          task.last_beat = 0;
          task.beat_changed_ms = now;
        }
        break;
      }
      case TaskState::kLeased: {
        if (!exists(leased_path)) {
          // Not done, not failed, lease gone: the worker died in a
          // state we cannot attribute.  Treat like an expiry.
          remove_quietly(lease_path);
          requeue_or_quarantine(task, "lease file vanished");
          break;
        }
        std::string text;
        if (read_file(lease_path, text)) {
          try {
            const util::Json j = util::Json::parse(text);
            if (const util::Json* beat = j.find("beat");
                beat != nullptr && beat->is_number()) {
              const std::uint64_t value = beat->as_uint();
              if (value != task.last_beat) {
                task.last_beat = value;
                task.beat_changed_ms = now;
              }
            }
          } catch (const util::JsonError&) {
          }
        }
        if (now - task.beat_changed_ms >= options_.lease_timeout_ms) {
          remove_quietly(leased_path);
          remove_quietly(lease_path);
          requeue_or_quarantine(
              task, "lease expired (worker silent for " +
                        std::to_string(now - task.beat_changed_ms) + " ms)");
        }
        break;
      }
      case TaskState::kBackoff: {
        if (now >= task.due_ms) {
          write_task_file(queue_dir_ + "/todo", task);
          task.state = TaskState::kTodo;
          event("task " + std::to_string(task.id) + ": back in queue");
        }
        break;
      }
      case TaskState::kDone:
      case TaskState::kQuarantined:
        break;
    }
  }

  finish_if_idle();
  return complete_;
}

SweepReport Coordinator::report(StoreRunStats* stats) const {
  if (!complete_) {
    throw std::logic_error(
        "Coordinator::report: sweep is not complete");
  }
  // Fresh scan: the final rows live in worker journals written after
  // this coordinator's own store handle loaded.
  const ResultStore scan(store_dir_, "coordinator-scan");
  return assemble_report_from_store(spec_, Shard{0, 1}, scan, stats);
}

// ----------------------------------------------------------------- Worker --

Worker::Worker(SweepSpec spec, std::string store_dir, WorkerOptions options)
    : spec_(std::move(spec)),
      store_dir_(std::move(store_dir)),
      queue_dir_(store_dir_ + "/queue"),
      options_(std::move(options)),
      store_(store_dir_, options_.worker_id) {
  require_clock(options_.clock, "Worker");
  if (auto err = spec_.validate(); !err.empty()) {
    throw std::invalid_argument("Worker: invalid sweep: " + err);
  }
}

void Worker::heartbeat(std::uint64_t task_id) {
  ++beat_;
  util::Json j = util::Json::object();
  j.set("worker", options_.worker_id);
  j.set("beat", beat_);
  util::atomic_write_file(
      queue_dir_ + "/leased/" + task_filename(task_id) + ".lease", j.dump());
  last_beat_ms_ = options_.clock.now_ms();
}

bool Worker::claim(TaskFile& task) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(queue_dir_ + "/todo", ec)) {
    if (entry.path().extension() == ".json") {
      names.push_back(entry.path().filename().string());
    }
  }
  if (ec) return false;
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string todo_path = queue_dir_ + "/todo/" + name;
    const std::string leased_path = queue_dir_ + "/leased/" + name;
    // The atomic claim: exactly one worker's rename succeeds; the
    // losers see ENOENT and try the next task.
    if (std::rename(todo_path.c_str(), leased_path.c_str()) != 0) continue;
    std::string text;
    if (!read_file(leased_path, text)) continue;
    try {
      const util::Json j = util::Json::parse(text);
      task.id = util::get_uint(*j.find("task"), "$.task");
      task.attempts = util::get_uint(*j.find("attempts"), "$.attempts");
      task.indices.clear();
      const util::Json* indices = j.find("indices");
      if (indices == nullptr || !indices->is_array()) {
        throw util::JsonError("$.indices: expected an array");
      }
      for (const util::Json& i : indices->as_array()) {
        task.indices.push_back(util::get_uint(i, "$.indices[]"));
      }
      return true;
    } catch (const std::exception& e) {
      // A task file we cannot decode is not ours to fix: report it as a
      // failure so the coordinator retries or quarantines it.
      util::Json j = util::Json::object();
      j.set("error", std::string("undecodable task file: ") + e.what());
      util::atomic_write_file(queue_dir_ + "/failed/" + name, j.dump());
      remove_quietly(leased_path);
    }
  }
  return false;
}

void Worker::execute(const TaskFile& task) {
  heartbeat(task.id);

  util::FaultInjector& faults = util::FaultInjector::instance();
  if (faults.armed()) {
    if (const auto stall = faults.fire("stall-worker")) {
      // Stall without beating: the coordinator should see this lease go
      // silent and re-lease the task.
      options_.clock.sleep_ms(*stall);
    }
  }

  SweepRunner::Options runner_options;
  runner_options.n_threads = 1;
  const SweepRunner runner(runner_options);

  for (const std::uint64_t index : task.indices) {
    if (options_.clock.now_ms() - last_beat_ms_ >= options_.heartbeat_ms) {
      heartbeat(task.id);
    }
    const std::uint64_t hash = api::spec_content_hash(spec_.scenario(index));
    ScenarioResult row;
    if (store_.lookup(index, hash, row)) continue;  // landed in a past lease
    if (faults.armed() && faults.fire("fail-scenario")) {
      throw std::runtime_error("injected scenario failure (fail-scenario)");
    }
    std::vector<ScenarioResult> rows = runner.run_indices(spec_, {index});
    store_.commit(hash, rows.front());
    ++computed_;
    if (options_.on_scenario) options_.on_scenario(rows.front());
  }

  const std::string name = task_filename(task.id);
  // Every row is already durable, so a failed rename only costs the
  // coordinator a retry that will find nothing left to compute.
  std::rename((queue_dir_ + "/leased/" + name).c_str(),
              (queue_dir_ + "/done/" + name).c_str());
  remove_quietly(queue_dir_ + "/leased/" + name + ".lease");
}

bool Worker::run_one_task() {
  TaskFile task;
  if (!claim(task)) return false;
  try {
    execute(task);
  } catch (const std::exception& e) {
    const std::string name = task_filename(task.id);
    util::Json j = util::Json::object();
    j.set("task", task.id);
    j.set("attempts", task.attempts);
    j.set("error", std::string(e.what()));
    util::atomic_write_file(queue_dir_ + "/failed/" + name, j.dump());
    remove_quietly(queue_dir_ + "/leased/" + name);
    remove_quietly(queue_dir_ + "/leased/" + name + ".lease");
  }
  return true;
}

std::uint64_t Worker::run() {
  // Wait for the coordinator to finish seeding (or to declare the sweep
  // already over).
  while (!exists(queue_dir_ + "/ready") &&
         !exists(queue_dir_ + "/shutdown")) {
    options_.clock.sleep_ms(options_.idle_poll_ms);
  }
  while (!exists(queue_dir_ + "/shutdown")) {
    if (!run_one_task()) options_.clock.sleep_ms(options_.idle_poll_ms);
  }
  return computed_;
}

}  // namespace serdes::sweep
