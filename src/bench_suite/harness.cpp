#include "bench_suite/harness.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace resmodel::bench_suite {

MultiCoreScore run_on_all_cores(
    const std::function<BenchmarkScore(double)>& benchmark, double seconds,
    int threads) {
  // Every copy must run at the same time (the score is a concurrent
  // multi-core reading), so this is a plain spawn-all, not parallel_for.
  const int n = util::resolve_threads(threads);
  std::vector<BenchmarkScore> scores(static_cast<std::size_t>(n));
  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers.emplace_back([&benchmark, &scores, i, seconds] {
        scores[static_cast<std::size_t>(i)] = benchmark(seconds);
      });
    }
  }  // joins

  MultiCoreScore result;
  result.threads = n;
  result.min_mips = scores.front().mips;
  result.max_mips = scores.front().mips;
  double sum = 0.0;
  for (const BenchmarkScore& s : scores) {
    sum += s.mips;
    result.min_mips = std::min(result.min_mips, s.mips);
    result.max_mips = std::max(result.max_mips, s.mips);
  }
  result.average_mips = sum / n;
  return result;
}

}  // namespace resmodel::bench_suite
