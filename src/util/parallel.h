// The one worker pool of the library: a fork-join parallel_for over
// independent jobs, and the one place a `threads <= 0` request resolves to
// the hardware concurrency.
//
// Jobs are claimed off an atomic counter, so any worker may run any job;
// callers get thread-count-invariant results by making each job depend
// only on its index (per-job rng streams forked up front, disjoint output
// slots). The calling thread is worker 0 and only the extra workers are
// spawned, so a one-thread run never starts a thread at all.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace resmodel::util {

/// `threads` if positive, else std::thread::hardware_concurrency() (at
/// least 1).
int resolve_threads(int threads) noexcept;

/// Runs fn(job) for every job in [0, count) on up to resolve_threads(
/// threads) workers, the calling thread included, and returns once every
/// job has finished. If a job throws, the remaining unclaimed jobs are
/// skipped and the first worker's exception (in worker order) is rethrown
/// on the calling thread after the pool joins. count == 0 is a no-op.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  if (count == 0) return;
  const std::size_t n_workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_threads(threads)), count);
  if (n_workers == 1) {
    for (std::size_t job = 0; job < count; ++job) fn(job);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n_workers);
  const auto worker = [&](std::size_t w) noexcept {
    try {
      for (std::size_t job; (job = next.fetch_add(1)) < count;) fn(job);
    } catch (...) {
      errors[w] = std::current_exception();
      // Starve the remaining workers so the pool winds down promptly.
      next.store(count);
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(n_workers - 1);
    for (std::size_t w = 1; w < n_workers; ++w) pool.emplace_back(worker, w);
    worker(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace resmodel::util
