// Coordinator/worker sweep farm over a file-queue transport.
//
// `serdes_cli sweep --shard k/n` already splits a grid across processes,
// but the partition is static: a dead worker takes its shard's cells
// with it.  The farm replaces static shards with leased tasks.  The
// coordinator derives the missing cells from the result store, groups
// them into small task files in a queue directory, and workers claim
// tasks by atomically renaming them into the leased state — the rename
// either succeeds for exactly one worker or fails, so no lock server is
// needed.  Every row a worker finishes is committed to the shared
// `ResultStore` before the task advances, which makes worker death
// cheap: the coordinator re-leases the task and the replacement worker
// skips the cells that already landed.
//
// Queue layout (under `<store>/queue/`):
//
//   ready               coordinator finished seeding; workers may claim
//   shutdown            sweep complete (or aborted); workers exit
//   todo/task-K.json    claimable task: {"task","attempts","indices"}
//   leased/task-K.json  claimed task (same payload)
//   leased/task-K.lease worker heartbeat: {"worker","beat"} — rewritten
//                       atomically each beat
//   failed/task-K.json  worker-reported failure (payload + "error")
//   done/task-K.json    completed task
//
// Liveness uses only the coordinator's clock: a lease is expired when
// its heartbeat `beat` counter has not *changed* for `lease_timeout_ms`
// of coordinator time.  No cross-process clock comparison — worker and
// coordinator clocks never meet, so clock skew cannot strand or
// double-free a lease.  Expired and failed tasks are re-queued with
// capped exponential backoff; a task that keeps failing past
// `max_attempts` has its unfinished cells quarantined into the report
// as structured failure rows (see `QuarantinedScenario`).
//
// The library takes time through an injected `FarmClock` — never from
// the OS (the repo contract bans wall-clock reads below src/).  Callers
// in tools/ wire in a real clock; tests drive a fake one, so lease
// expiry and backoff are unit-testable without sleeping.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sweep/result_store.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"

namespace serdes::sweep {

/// Injected time source.  `now_ms` is any monotonic millisecond counter
/// (only differences are used, and only within one process); `sleep_ms`
/// blocks the caller.  Both must be set.
struct FarmClock {
  std::function<std::uint64_t()> now_ms;
  std::function<void(std::uint64_t)> sleep_ms;
};

struct CoordinatorOptions {
  FarmClock clock;
  /// Cells per task file.  Small tasks re-lease cheaply; large tasks
  /// amortize queue traffic.
  std::uint64_t task_size = 8;
  /// A lease whose heartbeat has not advanced for this long
  /// (coordinator clock) is considered dead and re-queued.
  std::uint64_t lease_timeout_ms = 10'000;
  /// Re-queue delay for attempt n is min(base << (n-1), cap).
  std::uint64_t backoff_base_ms = 1'000;
  std::uint64_t backoff_cap_ms = 30'000;
  /// Attempts (initial + retries) before a task's unfinished cells are
  /// quarantined.
  std::uint64_t max_attempts = 3;
  /// Progress/event sink (lease expiries, re-queues, quarantines).
  std::function<void(const std::string&)> on_event;
};

/// Owns the queue directory and the sweep's lifecycle.  Drive it with
/// `start()` then repeated `step()` (the CLI sleeps between steps; tests
/// advance a fake clock instead).
class Coordinator {
 public:
  /// Throws std::invalid_argument on an invalid sweep or options
  /// without a clock; util::FileError when the store/queue directories
  /// cannot be created.
  Coordinator(SweepSpec spec, std::string store_dir,
              CoordinatorOptions options);

  /// Reseeds the queue from the store: clears any stale queue state
  /// (a restarted coordinator takes over cleanly), writes task files
  /// for every cell the store lacks, then posts the `ready` marker.
  /// With a warm store this completes the sweep immediately.
  void start();

  /// One scheduling pass: collects done/failed tasks, expires dead
  /// leases, flushes due backoffs, quarantines hopeless tasks.  Returns
  /// true once every task is done or quarantined (the `shutdown` marker
  /// is posted at that point).
  bool step();

  /// Final report, assembled from a fresh scan of the store.  Valid
  /// after `step()` has returned true; throws otherwise.
  [[nodiscard]] SweepReport report(StoreRunStats* stats = nullptr) const;

  // ---- introspection (tests and CLI progress) ----
  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] std::uint64_t total_cells() const { return total_cells_; }
  [[nodiscard]] std::uint64_t seeded_cells() const { return seeded_cells_; }
  [[nodiscard]] std::size_t outstanding_tasks() const;
  [[nodiscard]] std::uint64_t quarantined_cells() const {
    return quarantined_cells_;
  }

 private:
  enum class TaskState { kTodo, kLeased, kBackoff, kDone, kQuarantined };

  struct Task {
    std::uint64_t id = 0;
    std::uint64_t attempts = 1;
    std::vector<std::uint64_t> indices;
    TaskState state = TaskState::kTodo;
    // kLeased: heartbeat tracking, all on the coordinator's clock.
    std::uint64_t last_beat = 0;
    std::uint64_t beat_changed_ms = 0;
    // kBackoff: when to re-queue.
    std::uint64_t due_ms = 0;
  };

  void event(const std::string& message) const;
  void write_task_file(const std::string& dir, const Task& task) const;
  void requeue_or_quarantine(Task& task, const std::string& why);
  void quarantine(Task& task, const std::string& why);
  void finish_if_idle();

  SweepSpec spec_;
  std::string store_dir_;
  std::string queue_dir_;
  CoordinatorOptions options_;
  /// Grid index -> spec content hash, for the shard (whole grid).
  std::map<std::uint64_t, std::uint64_t> hash_by_index_;
  std::map<std::uint64_t, Task> tasks_;
  /// Coordinator's own quarantine writer (journal-coordinator.srj).
  std::unique_ptr<ResultStore> store_;
  bool started_ = false;
  bool complete_ = false;
  std::uint64_t total_cells_ = 0;
  std::uint64_t seeded_cells_ = 0;
  std::uint64_t quarantined_cells_ = 0;
};

struct WorkerOptions {
  FarmClock clock;
  /// Names this worker's journal and heartbeat entries; must be unique
  /// across live workers.
  std::string worker_id = "w0";
  /// Heartbeat rewrite period while executing a task.
  std::uint64_t heartbeat_ms = 1'000;
  /// Idle poll period while the queue is empty.
  std::uint64_t idle_poll_ms = 200;
  /// Per-completed-row callback (progress reporting).
  std::function<void(const ScenarioResult&)> on_scenario;
};

/// Claims and executes tasks until the coordinator posts `shutdown`.
class Worker {
 public:
  /// Throws std::invalid_argument on an invalid sweep or options
  /// without a clock; util::FileError when the store cannot be opened.
  Worker(SweepSpec spec, std::string store_dir, WorkerOptions options);

  /// Blocks until shutdown; returns the number of cells this worker
  /// computed.  Honors the fault sites `stall-worker` (sleep before a
  /// claimed task runs) and `fail-scenario` (scenario attempt throws),
  /// plus the store's commit crash sites.
  std::uint64_t run();

  /// One scheduling step for deterministic tests: claims at most one
  /// task and executes it to completion (or failure).  Returns true
  /// when a task was claimed.  Does not wait for `ready`.
  bool run_one_task();

  [[nodiscard]] std::uint64_t cells_computed() const { return computed_; }

 private:
  struct TaskFile {
    std::uint64_t id = 0;
    std::uint64_t attempts = 1;
    std::vector<std::uint64_t> indices;
  };

  bool claim(TaskFile& task);
  void execute(const TaskFile& task);
  void heartbeat(std::uint64_t task_id);

  SweepSpec spec_;
  std::string store_dir_;
  std::string queue_dir_;
  WorkerOptions options_;
  ResultStore store_;
  std::uint64_t computed_ = 0;
  std::uint64_t beat_ = 0;
  std::uint64_t last_beat_ms_ = 0;
};

}  // namespace serdes::sweep
