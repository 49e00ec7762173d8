// Compiled with -ffp-contract=off (library-wide, src/CMakeLists.txt): the
// blocked and reference kernels must produce bit-identical completion
// times, which rules out the compiler fusing free_at + task * inv_rate
// into an fma in one loop but not the other.
#include "sim/schedule_state.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "backend/kernels.h"
#include "util/quad_heap.h"

namespace resmodel::sim {

ScheduleState ScheduleState::from_rates(std::vector<double> rates) {
  ScheduleState state;
  const std::size_t n = rates.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "ScheduleState: host count exceeds 32-bit permutation index");
  }
  state.rates = std::move(rates);
  state.inv_rates.resize(n);
  for (std::size_t h = 0; h < n; ++h) {
    if (!(state.rates[h] > 0.0)) {
      throw std::invalid_argument("ScheduleState: non-positive host rate");
    }
    state.inv_rates[h] = 1.0 / state.rates[h];
  }
  state.free_at.assign(n, 0.0);
  state.busy_days.assign(n, 0.0);
  return state;
}

void ScheduleState::ensure_ect_caches() {
  const std::size_t n = size();
  if (ect_order.size() == n && ect_pos.size() == n &&
      ect_sorted_inv.size() == n) {
    return;
  }
  ect_order.resize(n);
  for (std::size_t h = 0; h < n; ++h) {
    ect_order[h] = static_cast<std::uint32_t>(h);
  }
  std::sort(ect_order.begin(), ect_order.end(),
            [&inv = inv_rates](std::uint32_t a, std::uint32_t b) {
              if (inv[a] != inv[b]) return inv[a] < inv[b];
              return a < b;
            });
  ect_pos.resize(n);
  ect_sorted_inv.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    ect_pos[ect_order[j]] = static_cast<std::uint32_t>(j);
    ect_sorted_inv[j] = inv_rates[ect_order[j]];
  }
  const std::size_t blocks = (n + kBlockSize - 1) / kBlockSize;
  ect_block_min_inv.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    // Sorted ascending, so the block's first entry is its minimum.
    ect_block_min_inv[b] = ect_sorted_inv[b * kBlockSize];
  }
}

DynamicScheduleTotals ect_schedule_blocked(ScheduleState& state,
                                           std::span<const double> tasks) {
  // Backend dispatch (src/backend/README.md): kScalar routes onto the
  // reference oracle; the other arms share this driver and differ only
  // in the kernel-ops table the sweeps go through. Every arm returns
  // the same schedule bit for bit.
  const backend::ResolvedBackend rb = backend::resolve(state.backend);
  if (rb.arm == backend::Backend::kScalar) {
    return ect_schedule_reference(state, tasks);
  }
  const backend::KernelOps& ops = backend::kernel_ops(rb.simd);

  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  state.ensure_ect_caches();
  const std::size_t n = state.size();
  const std::size_t blocks = state.block_count();
  const double* inv = state.ect_sorted_inv.data();
  const double* bmin_inv = state.ect_block_min_inv.data();
  const std::uint32_t* order = state.ect_order.data();
  DynamicScheduleTotals totals;
  if (n == 0) return totals;

  // free_at gathered into sorted order once per run (kernel-local so a
  // pre-advanced state works too), plus the per-block running minimum the
  // pruning bound reads. Only the assigned host's block is refreshed per
  // task.
  std::vector<double> sfree(n);
  for (std::size_t j = 0; j < n; ++j) sfree[j] = state.free_at[order[j]];
  std::vector<double> bmin_free(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    bmin_free[b] = ops.column_min(sfree.data() + lo, hi - lo);
  }

  std::vector<double> bounds(blocks);  // per-task gate scratch
  for (const double task : tasks) {
    std::uint32_t best = 0;  // original host index of the incumbent
    double best_done = std::numeric_limits<double>::infinity();
    // Per-block lower bound on every completion time inside it: no host
    // is freer than the block's min free_at nor faster than its min
    // inv_rate, and monotone rounding keeps the combination a true
    // floating-point lower bound. Computed for the whole row up front
    // (one vectorizable pass) and compared with strict >, so a block
    // that could still *tie* the incumbent is scanned and the smallest
    // original host index among the tied winners is kept — the scalar
    // loop's pick. The row minimum's block is swept first (warm start):
    // the incumbent is near-optimal before any other block is gated,
    // and processing order is result-neutral because pruning only skips
    // hosts that cannot win or tie.
    const std::uint32_t warm =
        ops.row_bounds_argmin(bmin_free.data(), bmin_inv, task, blocks,
                              bounds.data());
    for (std::size_t bi = 0; bi <= blocks; ++bi) {
      const std::size_t b = bi == 0 ? warm : bi - 1;
      if (bi != 0 && (b == warm || bounds[b] > best_done)) continue;
      const std::size_t lo = b * kBlock;
      const std::size_t len = std::min(n - lo, kBlock);
      const backend::EctBlockMin r = ops.ect_block_sweep(
          sfree.data() + lo, inv + lo, order + lo, len, task, best_done);
      if (r.value > best_done) continue;
      if (r.value < best_done) {
        best_done = r.value;
        best = r.index;
      } else {
        best = std::min(best, r.index);
      }
    }
    const double days = task * state.inv_rates[best];
    state.busy_days[best] += days;
    state.free_at[best] = best_done;
    totals.total_cpu_days += days;
    totals.makespan_days = std::max(totals.makespan_days, best_done);
    const std::size_t pos = state.ect_pos[best];
    sfree[pos] = best_done;
    const std::size_t blk = pos / kBlock;
    const std::size_t lo = blk * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    bmin_free[blk] = ops.column_min(sfree.data() + lo, hi - lo);
  }
  return totals;
}

DynamicScheduleTotals ect_schedule_reference(ScheduleState& state,
                                             std::span<const double> tasks) {
  const std::size_t n = state.size();
  const double* free_at = state.free_at.data();
  const double* inv = state.inv_rates.data();
  DynamicScheduleTotals totals;
  if (n == 0) return totals;
  for (const double task : tasks) {
    std::size_t best = 0;
    double best_done = std::numeric_limits<double>::infinity();
    for (std::size_t h = 0; h < n; ++h) {
      const double done = free_at[h] + task * inv[h];
      if (done < best_done) {
        best_done = done;
        best = h;
      }
    }
    const double days = task * inv[best];
    state.busy_days[best] += days;
    state.free_at[best] = best_done;
    totals.total_cpu_days += days;
    totals.makespan_days = std::max(totals.makespan_days, best_done);
  }
  return totals;
}

namespace {

/// One pull-heap entry: the day the host next goes idle, and the host.
struct IdleHost {
  double free_at = 0.0;
  std::uint32_t host = 0;
};

/// Earliest idle first, lowest host index on ties — the same (key, id)
/// total order std::priority_queue<pair<double, size_t>, greater> pops in.
inline bool idles_before(const IdleHost& a, const IdleHost& b) noexcept {
  return a.free_at < b.free_at || (a.free_at == b.free_at && a.host < b.host);
}

}  // namespace

DynamicScheduleTotals pull_schedule_dary(ScheduleState& state,
                                         std::span<const double> tasks) {
  DynamicScheduleTotals totals;
  const std::size_t n = state.size();
  if (n == 0) return totals;
  // Seeded from the current free_at column, so a pre-advanced state
  // continues where it left off.
  std::vector<IdleHost> seed(n);
  for (std::size_t h = 0; h < n; ++h) {
    seed[h] = {state.free_at[h], static_cast<std::uint32_t>(h)};
  }
  util::QuadHeap<IdleHost, idles_before> heap;
  heap.build(std::move(seed));
  for (const double task : tasks) {
    const IdleHost top = heap.min();
    const std::size_t h = top.host;
    const double days = task * state.inv_rates[h];
    state.busy_days[h] += days;
    totals.total_cpu_days += days;
    const double done = top.free_at + days;
    state.free_at[h] = done;
    totals.makespan_days = std::max(totals.makespan_days, done);
    heap.replace_min({done, top.host});
  }
  return totals;
}

DynamicScheduleTotals pull_schedule_reference(ScheduleState& state,
                                              std::span<const double> tasks) {
  using Entry = std::pair<double, std::size_t>;  // (free at, host)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t h = 0; h < state.size(); ++h) {
    heap.push({state.free_at[h], h});
  }
  DynamicScheduleTotals totals;
  if (state.size() == 0) return totals;
  for (const double task : tasks) {
    const auto [free_at, h] = heap.top();
    heap.pop();
    const double days = task * state.inv_rates[h];
    state.busy_days[h] += days;
    totals.total_cpu_days += days;
    const double done = free_at + days;
    state.free_at[h] = done;
    totals.makespan_days = std::max(totals.makespan_days, done);
    heap.push({done, h});
  }
  return totals;
}

}  // namespace resmodel::sim
