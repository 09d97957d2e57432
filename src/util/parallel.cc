#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace serdes::util {

namespace {

// True while this thread runs a worker loop of some parallel_for call.
thread_local bool in_task = false;

}  // namespace

void parallel_for(std::size_t count, int n_threads,
                  const std::function<void(std::size_t)>& task) {
  if (in_task) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::size_t workers =
      n_threads > 0 ? static_cast<std::size_t>(n_threads)
                    : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, count);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&] {
    // The one-worker loop runs on the caller's thread, so the flag is
    // restored on the way out, not just set.
    in_task = true;
    for (;;) {
      // A thrown item voids the whole run, so stop picking up new work.
      if (failed.load(std::memory_order_relaxed)) break;
      const std::size_t i = next.fetch_add(1);
      if (i >= count) break;
      try {
        task(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    in_task = false;
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace serdes::util
