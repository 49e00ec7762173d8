#include "sim/schedule_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "backend/kernels.h"
#include "util/rng.h"

namespace resmodel::sim {
namespace {

// Rates with deliberate exact duplicates (duplicated hardware is the
// common case in the trace) so equal completion times actually occur.
std::vector<double> random_rates(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> rates(n);
  for (double& r : rates) r = 100.0 + rng.uniform() * 10000.0;
  for (std::size_t i = 0; i + 1 < n; i += 3) rates[i + 1] = rates[i];
  return rates;
}

std::vector<double> random_tasks(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> tasks(n);
  for (double& t : tasks) t = 500.0 + rng.uniform() * 8000.0;
  return tasks;
}

void expect_states_identical(const ScheduleState& a, const ScheduleState& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t h = 0; h < a.size(); ++h) {
    EXPECT_EQ(a.free_at[h], b.free_at[h]) << "free_at host " << h;
    EXPECT_EQ(a.busy_days[h], b.busy_days[h]) << "busy_days host " << h;
  }
}

TEST(ScheduleState, FromRatesBuildsColumnsAndSortedCaches) {
  const std::size_t n = 2 * ScheduleState::kBlockSize + 2;  // partial tail
  ScheduleState state = ScheduleState::from_rates(random_rates(n, 1));
  ASSERT_EQ(state.size(), n);
  // The ECT caches are lazy: absent after construction, built on demand,
  // and only then do the sorted invariants hold.
  EXPECT_EQ(state.block_count(), 0u);
  EXPECT_TRUE(state.ect_order.empty());
  state.ensure_ect_caches();
  ASSERT_EQ(state.block_count(), 3u);
  for (std::size_t h = 0; h < n; ++h) {
    EXPECT_EQ(state.inv_rates[h], 1.0 / state.rates[h]);
    EXPECT_EQ(state.free_at[h], 0.0);
    EXPECT_EQ(state.busy_days[h], 0.0);
    EXPECT_EQ(state.ect_order[state.ect_pos[h]], h);  // inverse permutation
  }
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(state.ect_sorted_inv[j], state.inv_rates[state.ect_order[j]]);
    if (j > 0) {
      // Ascending inv_rates, exact ties in ascending host index.
      EXPECT_LE(state.ect_sorted_inv[j - 1], state.ect_sorted_inv[j]);
      if (state.ect_sorted_inv[j - 1] == state.ect_sorted_inv[j]) {
        EXPECT_LT(state.ect_order[j - 1], state.ect_order[j]);
      }
    }
  }
  for (std::size_t b = 0; b < state.block_count(); ++b) {
    EXPECT_EQ(state.ect_block_min_inv[b],
              state.ect_sorted_inv[b * ScheduleState::kBlockSize]);
  }
}

TEST(ScheduleState, RejectsNonPositiveRates) {
  EXPECT_THROW(ScheduleState::from_rates({100.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ScheduleState::from_rates({-1.0}), std::invalid_argument);
}

TEST(EctKernels, BlockedMatchesReferenceBitForBit) {
  // Host counts straddling the block size (sub-block, exact blocks,
  // partial tail, many blocks) and a workload longer than any block.
  for (const std::size_t hosts : {std::size_t{1}, std::size_t{5},
                                  ScheduleState::kBlockSize,
                                  2 * ScheduleState::kBlockSize + 3,
                                  std::size_t{1000}}) {
    const std::vector<double> rates = random_rates(hosts, 7 + hosts);
    const std::vector<double> tasks = random_tasks(600, 11);
    ScheduleState blocked = ScheduleState::from_rates(rates);
    ScheduleState reference = ScheduleState::from_rates(rates);
    const DynamicScheduleTotals tb = ect_schedule_blocked(blocked, tasks);
    const DynamicScheduleTotals tr = ect_schedule_reference(reference, tasks);
    EXPECT_EQ(tb.makespan_days, tr.makespan_days) << hosts << " hosts";
    EXPECT_EQ(tb.total_cpu_days, tr.total_cpu_days) << hosts << " hosts";
    expect_states_identical(blocked, reference);
  }
}

TEST(EctKernels, EqualCompletionTieBreaksToLowestIndex) {
  // 200 identical hosts (3+ blocks): every task sees an exact tie across
  // all idle hosts, and both kernels must pick the lowest index.
  const std::vector<double> rates(200, 1000.0);
  const std::vector<double> tasks(3, 1000.0);
  ScheduleState blocked = ScheduleState::from_rates(rates);
  ScheduleState reference = ScheduleState::from_rates(rates);
  ect_schedule_blocked(blocked, tasks);
  ect_schedule_reference(reference, tasks);
  for (const ScheduleState* s : {&blocked, &reference}) {
    EXPECT_EQ(s->busy_days[0], 1.0);
    EXPECT_EQ(s->busy_days[1], 1.0);
    EXPECT_EQ(s->busy_days[2], 1.0);
    EXPECT_EQ(s->busy_days[3], 0.0);
  }
  expect_states_identical(blocked, reference);

  // A cross-block tie: hosts 0 and 150 equally fast, everyone else slower.
  std::vector<double> two_fast(200, 10.0);
  two_fast[0] = two_fast[150] = 1000.0;
  ScheduleState b2 = ScheduleState::from_rates(two_fast);
  ScheduleState r2 = ScheduleState::from_rates(two_fast);
  const std::vector<double> one_task = {500.0};
  ect_schedule_blocked(b2, one_task);
  ect_schedule_reference(r2, one_task);
  EXPECT_GT(b2.busy_days[0], 0.0);  // lowest index wins the tie
  EXPECT_EQ(b2.busy_days[150], 0.0);
  expect_states_identical(b2, r2);
}

TEST(EctKernels, MoreHostsThanTasks) {
  const std::vector<double> rates = random_rates(500, 3);
  const std::vector<double> tasks = random_tasks(7, 4);
  ScheduleState blocked = ScheduleState::from_rates(rates);
  ScheduleState reference = ScheduleState::from_rates(rates);
  const DynamicScheduleTotals tb = ect_schedule_blocked(blocked, tasks);
  const DynamicScheduleTotals tr = ect_schedule_reference(reference, tasks);
  EXPECT_EQ(tb.makespan_days, tr.makespan_days);
  expect_states_identical(blocked, reference);
  std::size_t used = 0;
  for (double b : blocked.busy_days) used += b > 0.0;
  EXPECT_EQ(used, tasks.size());  // ECT spreads distinct tasks on idle hosts
}

TEST(EctKernels, SingleHostAccumulatesSequentially) {
  ScheduleState state = ScheduleState::from_rates({250.0});
  const std::vector<double> tasks = {500.0, 250.0, 1000.0};
  const DynamicScheduleTotals totals = ect_schedule_blocked(state, tasks);
  EXPECT_EQ(state.free_at[0], totals.makespan_days);
  EXPECT_EQ(totals.total_cpu_days, totals.makespan_days);
  EXPECT_DOUBLE_EQ(totals.makespan_days, 2.0 + 1.0 + 4.0);
}

TEST(EctSelector, MatchesScalarOracleBitwiseUnderUpdates) {
  // Keys, rates and tasks on a coarse dyadic grid, so every completion is
  // exact and equal completions tie exactly — within and across blocks,
  // and against block bounds. Rates are scattered over the hosts, so the
  // rate-sorted blocks interleave original indices and the smallest tied
  // index often sits in a block swept after the incumbent's. Between
  // selections the winner's key moves to its completion (a commit) and
  // random hosts are re-keyed; every 100 selections a fresh column is
  // loaded over the updated one.
  using backend::SimdLevel;
  std::vector<SimdLevel> levels = {SimdLevel::kNone};
  if (backend::effective_cpu().avx2) levels.push_back(SimdLevel::kAvx2);
  const auto half_steps = [](util::Rng& rng, std::uint64_t n) {
    return 0.5 * static_cast<double>(rng.uniform_index(n));
  };
  for (const std::size_t hosts :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{5000}}) {
    util::Rng setup(hosts);
    std::vector<double> rates(hosts);
    for (double& r : rates) {
      r = std::ldexp(1.0, static_cast<int>(setup.uniform_index(4)));
    }
    std::vector<double> initial(hosts);
    for (double& k : initial) k = half_steps(setup, 8);
    ScheduleState state = ScheduleState::from_rates(rates);
    for (const SimdLevel level : levels) {
      std::vector<double> key = initial;
      EctSelector selector(state, backend::kernel_ops(level));
      selector.load(key);
      util::Rng rng(hosts + 1);
      for (int i = 0; i < 600; ++i) {
        if (i % 100 == 99) {
          for (double& k : key) k = half_steps(rng, 64);
          selector.load(key);
        }
        const double task = static_cast<double>(1 + rng.uniform_index(16));
        const EctPick want = ect_select_reference(key, state.inv_rates, task);
        const EctPick got = selector.select(task);
        ASSERT_EQ(got.host, want.host) << hosts << " hosts, task " << i;
        ASSERT_EQ(got.done, want.done) << hosts << " hosts, task " << i;
        key[want.host] = want.done;
        selector.set(want.host, want.done);
        for (int u = 0; u < 3; ++u) {
          const std::size_t h = rng.uniform_index(hosts);
          key[h] = half_steps(rng, 64);
          selector.set(h, key[h]);
        }
      }
    }
  }
}

TEST(PullKernels, HonorPreAdvancedFreeAt) {
  // A state mid-run (non-zero free_at) continues where it left off: both
  // kernels seed their heaps from the free_at column, so a busy host only
  // pulls again once it goes idle.
  const std::vector<double> rates(10, 100.0);
  const std::vector<double> tasks = {100.0};
  ScheduleState dary = ScheduleState::from_rates(rates);
  ScheduleState reference = ScheduleState::from_rates(rates);
  for (std::size_t h = 0; h < rates.size(); ++h) {
    dary.free_at[h] = reference.free_at[h] = 5.0 + static_cast<double>(h);
  }
  const DynamicScheduleTotals td = pull_schedule_dary(dary, tasks);
  const DynamicScheduleTotals tr = pull_schedule_reference(reference, tasks);
  // Host 0 is the earliest-available (free at day 5) and the task takes
  // one day on it.
  EXPECT_EQ(td.makespan_days, 6.0);
  EXPECT_EQ(tr.makespan_days, 6.0);
  EXPECT_EQ(dary.free_at[0], 6.0);
  EXPECT_EQ(reference.free_at[0], 6.0);
}

TEST(PullKernels, DaryMatchesPriorityQueueBitForBit) {
  for (const std::size_t hosts :
       {std::size_t{1}, std::size_t{64}, std::size_t{300}}) {
    const std::vector<double> rates = random_rates(hosts, 31 + hosts);
    const std::vector<double> tasks = random_tasks(800, 33);
    ScheduleState dary = ScheduleState::from_rates(rates);
    ScheduleState reference = ScheduleState::from_rates(rates);
    const DynamicScheduleTotals td = pull_schedule_dary(dary, tasks);
    const DynamicScheduleTotals tr = pull_schedule_reference(reference, tasks);
    EXPECT_EQ(td.makespan_days, tr.makespan_days) << hosts << " hosts";
    EXPECT_EQ(td.total_cpu_days, tr.total_cpu_days) << hosts << " hosts";
    ASSERT_EQ(dary.size(), reference.size());
    for (std::size_t h = 0; h < hosts; ++h) {
      EXPECT_EQ(dary.free_at[h], reference.free_at[h]);
      EXPECT_EQ(dary.busy_days[h], reference.busy_days[h]);
    }
  }
}

}  // namespace
}  // namespace resmodel::sim
