// Fail-fast worker pool: the one thread fan-out behind Simulator::run_batch,
// Simulator::run_bus, SweepRunner, StatAnalyzer::analyze's sampling phases
// and train_equalizer's candidate replays.
#pragma once

#include <cstddef>
#include <functional>

namespace serdes::util {

/// Runs `task(i)` for every i in [0, count) on up to `n_threads` threads
/// (<= 0 picks the hardware concurrency; never more threads than items).
/// Workers take items in index order from a shared atomic counter.  The
/// first exception stops every worker from taking new items and is
/// rethrown once all of them have returned.  With one worker the tasks run
/// on the calling thread.  Tasks must only write state private to their
/// item (or synchronize), so results never depend on the thread count.
///
/// Nesting: a call made from inside a task of another call (one-worker
/// calls included) spawns nothing and runs its items inline, in index
/// order, on that task's thread; its first exception propagates at once.
/// So a caller that asks for N threads gets at most N however deep its
/// tasks fan out, and only a top-level call reaches the hardware
/// concurrency.
void parallel_for(std::size_t count, int n_threads,
                  const std::function<void(std::size_t)>& task);

}  // namespace serdes::util
