#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace resmodel::util {
namespace {

TEST(ResolveThreads, NonPositiveMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_threads(3), 3);
  const int hw = resolve_threads(0);
  EXPECT_GE(hw, 1);
  EXPECT_EQ(resolve_threads(-2), hw);
  const unsigned reported = std::thread::hardware_concurrency();
  if (reported > 0) {
    EXPECT_EQ(hw, static_cast<int>(reported));
  }
}

TEST(ParallelFor, EveryJobRunsExactlyOnce) {
  constexpr std::size_t kJobs = 1000;
  for (const int threads : {1, 3, 0}) {
    std::vector<std::atomic<int>> runs(kJobs);
    parallel_for(kJobs, threads, [&](std::size_t job) { ++runs[job]; });
    for (std::size_t job = 0; job < kJobs; ++job) {
      EXPECT_EQ(runs[job].load(), 1) << "job " << job << " threads "
                                     << threads;
    }
  }
}

TEST(ParallelFor, OneThreadRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  parallel_for(ran_on.size(), 1,
               [&](std::size_t job) { ran_on[job] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  int calls = 0;
  for (const int threads : {1, 3, 0}) {
    parallel_for(0, threads, [&](std::size_t) { ++calls; });
  }
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ThrowingJobSurfacesOnTheCaller) {
  for (const int threads : {1, 3, 0}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(200, threads,
                              [&](std::size_t job) {
                                ++ran;
                                if (job == 57) {
                                  throw std::runtime_error("job 57");
                                }
                              }),
                 std::runtime_error)
        << "threads " << threads;
    // The pool winds down after the throw: nothing runs twice, and the
    // throwing job itself did run.
    EXPECT_GE(ran.load(), 1);
    EXPECT_LE(ran.load(), 200);
  }
}

TEST(ParallelFor, ThrowFromASpawnedWorkerDoesNotTerminate) {
  // Every job throws, so whichever spawned worker claims one must hand
  // its exception back to the caller instead of escaping its thread.
  EXPECT_THROW(parallel_for(64, 4,
                            [](std::size_t) {
                              std::this_thread::yield();
                              throw std::logic_error("always");
                            }),
               std::logic_error);
}

}  // namespace
}  // namespace resmodel::util
