// Fail-fast worker pool: the one thread fan-out behind Simulator::run_batch,
// Simulator::run_bus and SweepRunner.
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
void parallel_for(std::size_t count, int n_threads,
                  const std::function<void(std::size_t)>& task);

}  // namespace serdes::util
