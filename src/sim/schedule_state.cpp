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

EctSelector::EctSelector(ScheduleState& state, const backend::KernelOps& ops)
    : state_(state), ops_(ops) {
  state.ensure_ect_caches();
  skey_.resize(state.size());
  bmin_.resize(state.block_count());
  bounds_.resize(state.block_count());
}

void EctSelector::load(std::span<const double> key) {
  const std::uint32_t* order = state_.ect_order.data();
  for (std::size_t j = 0; j < skey_.size(); ++j) skey_[j] = key[order[j]];
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  for (std::size_t b = 0; b < bmin_.size(); ++b) {
    const std::size_t lo = b * kBlock;
    bmin_[b] = ops_.column_min(skey_.data() + lo,
                               std::min(skey_.size() - lo, kBlock));
  }
}

void EctSelector::set(std::size_t host, double key) {
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  const std::size_t pos = state_.ect_pos[host];
  skey_[pos] = key;
  const std::size_t lo = pos / kBlock * kBlock;
  bmin_[pos / kBlock] = ops_.column_min(skey_.data() + lo,
                                        std::min(skey_.size() - lo, kBlock));
}

EctPick EctSelector::select(double task) {
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  const std::size_t n = skey_.size();
  const std::size_t blocks = bmin_.size();
  const double* key = skey_.data();
  const double* inv = state_.ect_sorted_inv.data();
  const std::uint32_t* order = state_.ect_order.data();
  const double* bounds = bounds_.data();
  EctPick best{0, std::numeric_limits<double>::infinity()};
  const auto sweep = [&](std::size_t b) {
    const std::size_t lo = b * kBlock;
    const backend::EctBlockMin r =
        ops_.ect_block_sweep(key + lo, inv + lo, order + lo,
                             std::min(n - lo, kBlock), task, best.done);
    if (r.value > best.done) return;
    if (r.value < best.done) {
      best = {r.index, r.value};
    } else {
      best.host = std::min(best.host, r.index);
    }
  };
  // The warm block goes first; the rest follow in index order, gated on
  // the bounds row with strict `>` so a block that could tie is swept.
  // Processing order is result-neutral: pruning only skips hosts that
  // cannot win or tie.
  const std::uint32_t warm =
      ops_.row_bounds_argmin(bmin_.data(), state_.ect_block_min_inv.data(),
                             task, blocks, bounds_.data());
  sweep(warm);
  for (std::size_t b = 0; b < blocks; ++b) {
    if (b != warm && !(bounds[b] > best.done)) sweep(b);
  }
  return best;
}

EctPick ect_select_reference(std::span<const double> key,
                             std::span<const double> inv_rates, double task) {
  EctPick best{0, std::numeric_limits<double>::infinity()};
  for (std::size_t h = 0; h < key.size(); ++h) {
    const double done = key[h] + task * inv_rates[h];
    if (done < best.done) best = {static_cast<std::uint32_t>(h), done};
  }
  return best;
}

namespace {

/// Commits one ECT pick: the task runs on the winner from its free_at.
void commit_ect(ScheduleState& state, double task, EctPick pick,
                DynamicScheduleTotals& totals) {
  const double days = task * state.inv_rates[pick.host];
  state.busy_days[pick.host] += days;
  state.free_at[pick.host] = pick.done;
  totals.total_cpu_days += days;
  totals.makespan_days = std::max(totals.makespan_days, pick.done);
}

}  // namespace

DynamicScheduleTotals ect_schedule_blocked(ScheduleState& state,
                                           std::span<const double> tasks) {
  // Backend dispatch (src/backend/README.md): kScalar routes onto the
  // reference oracle; the other arms differ only in the kernel-ops table
  // the selector's sweeps go through. Every arm returns the same
  // schedule bit for bit.
  const backend::ResolvedBackend rb = backend::resolve(state.backend);
  if (rb.arm == backend::Backend::kScalar) {
    return ect_schedule_reference(state, tasks);
  }
  DynamicScheduleTotals totals;
  if (state.size() == 0) return totals;
  EctSelector selector(state, backend::kernel_ops(rb.simd));
  selector.load(state.free_at);
  for (const double task : tasks) {
    const EctPick pick = selector.select(task);
    commit_ect(state, task, pick, totals);
    selector.set(pick.host, pick.done);
  }
  return totals;
}

DynamicScheduleTotals ect_schedule_reference(ScheduleState& state,
                                             std::span<const double> tasks) {
  DynamicScheduleTotals totals;
  if (state.size() == 0) return totals;
  for (const double task : tasks) {
    commit_ect(state, task,
               ect_select_reference(state.free_at, state.inv_rates, task),
               totals);
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
