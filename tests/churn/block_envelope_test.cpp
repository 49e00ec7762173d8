// Properties of the churn pruning gate (block_envelope.h): every bound
// it hands the scheduler — per-lane sweep values, grid entries, the
// envelope a task reads off its grid row — must, after deflation by the
// gate's margin, never exceed the exact double completion the reference
// kernel computes. With the gate's float32 columns this is the round-trip
// property: f32 bound * margin <= f64 completion, for every host and
// task, including dirty (not yet repaired) entries after a real run. The
// grid's shape, the dirty-bit bookkeeping and the group summary (each
// group entry is the minimum of its members' stored entries, and the
// warm search over it is the full row's first argmin) are pinned
// directly.
#include "churn/block_envelope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "churn/churn_scheduler.h"
#include "churn/interval_timeline.h"
#include "sim/schedule_state.h"
#include "synth/availability.h"
#include "util/rng.h"

namespace resmodel::churn {
namespace {

IntervalTimeline model_timeline(std::size_t hosts, std::uint64_t seed,
                                double horizon = 60.0) {
  util::Rng rng(seed);
  return IntervalTimeline::generate(synth::AvailabilityModel{}, hosts, 0.0,
                                    horizon, rng);
}

std::vector<double> random_rates(std::size_t n, std::uint64_t seed) {
  std::vector<double> rates(n);
  util::Rng rng(seed);
  for (double& r : rates) r = 50.0 + rng.uniform() * 5000.0;
  return rates;
}

std::vector<double> random_tasks(std::size_t n, std::uint64_t seed) {
  std::vector<double> tasks(n);
  util::Rng rng(seed);
  for (double& t : tasks) t = 200.0 + rng.uniform() * 4000.0;
  return tasks;
}

constexpr InterruptionPolicy kGatedPolicies[] = {
    InterruptionPolicy::kCheckpoint,
    InterruptionPolicy::kRestart,
};

/// Lookahead depths the soundness checks cycle through: the shipping
/// default, the minimum, and two in between.
constexpr std::size_t kLevelVariants[] = {8, 1, 3, 4};

/// Exact minimum completion over each block's hosts for `task`.
std::vector<double> exact_block_min(ChurnScheduler& sched,
                                    const sim::ScheduleState& state,
                                    InterruptionPolicy policy, double task) {
  constexpr std::size_t kBlock = sim::ScheduleState::kBlockSize;
  std::vector<double> block_min(state.block_count(),
                                std::numeric_limits<double>::infinity());
  for (std::size_t h = 0; h < state.size(); ++h) {
    const double done = sched.completion_for_test(h, task, policy);
    double& m = block_min[state.ect_pos[h] / kBlock];
    m = std::min(m, done);
  }
  return block_min;
}

/// Asserts that every group entry of every position is the minimum of
/// its members' STORED row entries (clean or dirty), and every group
/// min-inv the minimum of its members' ect_block_min_inv: both then
/// bound every member from below.
void expect_group_summary_exact(const BoundGate& gate,
                                const sim::ScheduleState& state) {
  constexpr std::size_t kGroup = BoundGate::kGroup;
  const std::size_t blocks = state.block_count();
  ASSERT_EQ(gate.group_count(), (blocks + kGroup - 1) / kGroup);
  const std::span<const double> ginv = gate.group_min_inv();
  for (std::size_t g = 0; g < gate.group_count(); ++g) {
    const std::size_t hi = std::min(blocks, (g + 1) * kGroup);
    double min_inv = std::numeric_limits<double>::infinity();
    for (std::size_t b = g * kGroup; b < hi; ++b) {
      EXPECT_LE(ginv[g], state.ect_block_min_inv[b]) << "group " << g;
      min_inv = std::min(min_inv, state.ect_block_min_inv[b]);
    }
    EXPECT_EQ(ginv[g], min_inv) << "group " << g;
    for (std::size_t j = 0; j < gate.positions().size(); ++j) {
      double min_entry = std::numeric_limits<double>::infinity();
      for (std::size_t b = g * kGroup; b < hi; ++b) {
        EXPECT_LE(gate.group_row(j)[g], gate.row(j)[b])
            << "group " << g << " block " << b << " position " << j
            << ((gate.dirty_mask(b) >> j) & 1 ? " (dirty)" : " (clean)");
        min_entry = std::min(min_entry, gate.row(j)[b]);
      }
      EXPECT_EQ(gate.group_row(j)[g], min_entry)
          << "group " << g << " position " << j;
    }
  }
}

/// Brute-force warm start: the first block attaining the minimum bound
/// of the full row.
std::size_t full_row_first_argmin(const BoundGate& gate, std::size_t blocks,
                                  std::size_t j, double over) {
  std::size_t best = 0;
  double m = gate.block_bound(j, 0, over);
  for (std::size_t b = 1; b < blocks; ++b) {
    const double bound = gate.block_bound(j, b, over);
    if (bound < m) {
      m = bound;
      best = b;
    }
  }
  return best;
}

/// Asserts lane, grid-entry and envelope soundness against the exact
/// completions of the CURRENT cursor state: every lane at every probe,
/// every grid entry (clean or dirty) at its own position, and the
/// envelope each probe reads off its grid row.
void expect_gate_sound(ChurnScheduler& sched, sim::ScheduleState& state,
                       InterruptionPolicy policy,
                       std::span<const double> probes) {
  const BoundGate& gate = sched.gate();
  const double margin = gate.margin();
  const std::span<const double> positions = gate.positions();
  for (std::size_t j = 0; j < positions.size(); ++j) {
    const std::vector<double> block_min =
        exact_block_min(sched, state, policy, positions[j]);
    for (std::size_t b = 0; b < state.block_count(); ++b) {
      EXPECT_LE(gate.row(j)[b] * margin, block_min[b])
          << "grid entry unsound: block " << b << " position " << j
          << ((gate.dirty_mask(b) >> j) & 1 ? " (dirty)" : " (clean)");
    }
  }
  for (const double task : probes) {
    for (std::size_t h = 0; h < state.size(); ++h) {
      const double done = sched.completion_for_test(h, task, policy);
      const double lane = gate.lane_bound(state.ect_pos[h], task);
      EXPECT_LE(lane * margin, done)
          << "lane bound unsound: host " << h << " task " << task;
    }
    const std::vector<double> block_min =
        exact_block_min(sched, state, policy, task);
    const std::size_t j = gate.position_of(task);
    ASSERT_LE(positions[j], task);
    for (std::size_t b = 0; b < state.block_count(); ++b) {
      const double envelope = gate.row(j)[b] + (task - positions[j]) *
                                                   state.ect_block_min_inv[b];
      EXPECT_LE(envelope * margin, block_min[b])
          << "envelope unsound: block " << b << " task " << task;
    }
  }
  expect_group_summary_exact(gate, state);
}

TEST(BoundGate, AllBoundsSoundOnFreshState) {
  const std::size_t n = 300;
  const std::vector<double> rates = random_rates(n, 11);
  const IntervalTimeline timeline = model_timeline(n, 12);
  const std::vector<double> tasks = random_tasks(64, 13);
  for (const std::size_t levels : kLevelVariants) {
    for (const InterruptionPolicy policy : kGatedPolicies) {
      sim::ScheduleState state =
          sim::ScheduleState::from_rates(std::vector<double>(rates));
      ChurnSchedulerConfig config;
      config.lookahead_levels = levels;
      ChurnScheduler sched(state, timeline, config);
      sched.prime_gate_for_test(tasks, policy);
      expect_gate_sound(sched, state, policy, tasks);
    }
  }
}

// The float32 round-trip property after a real run: a handful of much
// faster hosts funnels hundreds of assignments into one block, so its
// grid entries go dirty and get refreshed again and again, and the run
// ends with entries still dirty. Every retained bound — clean or dirty —
// must still deflate below the exact completion of the post-run state.
TEST(BoundGate, BoundsStaySoundAfterFunnelledRun) {
  const std::size_t n = 192;  // three blocks
  std::vector<double> rates = random_rates(n, 21);
  for (std::size_t h = 0; h < 8; ++h) rates[h] = 60000.0 + 100.0 * h;
  const IntervalTimeline timeline = model_timeline(n, 22);
  const std::vector<double> tasks = random_tasks(400, 23);
  const std::vector<double> probes = random_tasks(32, 24);
  for (const std::size_t levels : kLevelVariants) {
    for (const InterruptionPolicy policy : kGatedPolicies) {
      sim::ScheduleState state =
          sim::ScheduleState::from_rates(std::vector<double>(rates));
      ChurnSchedulerConfig config;
      config.lookahead_levels = levels;
      ChurnScheduler sched(state, timeline, config);
      sched.run(tasks, policy);
      std::size_t dirty = 0;
      for (std::size_t b = 0; b < state.block_count(); ++b) {
        dirty += static_cast<std::size_t>(
            std::popcount(sched.gate().dirty_mask(b)));
      }
      EXPECT_GT(dirty, 0u) << "the run left no dirty entry to check";
      expect_gate_sound(sched, state, policy, probes);
    }
  }
}

TEST(BoundGate, GridHoldsZeroAndFloatRoundedTaskQuantiles) {
  const std::vector<double> tasks = random_tasks(5000, 31);
  const std::vector<double> positions = BoundGate::grid_positions(tasks);
  ASSERT_FALSE(positions.empty());
  EXPECT_EQ(positions[0], 0.0);
  EXPECT_LE(positions.size(), BoundGate::kGridSize);
  EXPECT_EQ(positions.size(), BoundGate::kGridSize);  // distinct quantiles
  std::vector<double> sorted = tasks;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t j = 1; j < positions.size(); ++j) {
    EXPECT_LT(positions[j - 1], positions[j]);
    // Float-representable, so the float32 sweep evaluates exactly there.
    EXPECT_EQ(static_cast<double>(static_cast<float>(positions[j])),
              positions[j]);
    // Rounded DOWN from its quantile: at most the quantile, and within
    // one float ulp of it.
    const std::size_t k = j - 1;
    const double q = sorted[k * sorted.size() / (BoundGate::kGridSize - 1)];
    EXPECT_LE(positions[j], q);
    EXPECT_GT(std::nextafter(static_cast<float>(positions[j]),
                             std::numeric_limits<float>::infinity()),
              q);
  }
  // Duplicates collapse: three distinct sizes give 0 plus themselves.
  const std::vector<double> small =
      BoundGate::grid_positions(std::vector<double>{50.0, 900.0, 4000.0});
  EXPECT_EQ(small, (std::vector<double>{0.0, 50.0, 900.0, 4000.0}));
  // A size that is no float rounds down, never up.
  const double odd = 1000.0 + 1e-9;
  const std::vector<double> rounded =
      BoundGate::grid_positions(std::vector<double>{odd});
  ASSERT_EQ(rounded.size(), 2u);
  EXPECT_LT(rounded[1], odd);
  // No usable size leaves just the zero anchor.
  EXPECT_EQ(BoundGate::grid_positions({}), std::vector<double>{0.0});
}

TEST(BoundGate, PositionOfIsTheLastPositionAtOrBelowTheTask) {
  const std::size_t n = 80;
  const IntervalTimeline timeline = model_timeline(n, 42);
  sim::ScheduleState state = sim::ScheduleState::from_rates(random_rates(n, 41));
  ChurnScheduler sched(state, timeline, {});
  sched.prime_gate_for_test(std::vector<double>{50.0, 900.0, 4000.0},
                            InterruptionPolicy::kCheckpoint);
  const BoundGate& gate = sched.gate();
  ASSERT_EQ(gate.positions().size(), 4u);
  EXPECT_EQ(gate.position_of(-1.0), 0u);
  EXPECT_EQ(gate.position_of(1e-9), 0u);
  EXPECT_EQ(gate.position_of(49.9), 0u);
  EXPECT_EQ(gate.position_of(50.0), 1u);
  EXPECT_EQ(gate.position_of(2000.0), 2u);
  EXPECT_EQ(gate.position_of(4000.0), 3u);
  EXPECT_EQ(gate.position_of(9000.0), 3u);
}

/// Cursor columns for a gate driven directly (no scheduler): arbitrary
/// non-negative values are enough, the gate only packs and bounds them.
struct SyntheticCursors {
  static constexpr std::size_t kLevels = 2;
  std::vector<double> ready, sess_rem, next_start, accr, levels;

  explicit SyntheticCursors(std::size_t n, std::uint64_t seed)
      : ready(n), sess_rem(n), next_start(n), accr(n),
        levels(n * 2 * kLevels) {
    util::Rng rng(seed);
    for (std::size_t h = 0; h < n; ++h) {
      ready[h] = rng.uniform() * 5.0;
      sess_rem[h] = 0.05 + rng.uniform() * 2.0;
      next_start[h] = ready[h] + sess_rem[h] + rng.uniform() * 3.0;
      accr[h] = rng.uniform() * 10.0;
      double* lv = levels.data() + h * 2 * kLevels;
      double cum = accr[h] + sess_rem[h];
      double phi = next_start[h] - accr[h];
      for (std::size_t k = 0; k < kLevels; ++k) {
        cum += 0.05 + rng.uniform() * 2.0;
        phi += rng.uniform() * 3.0;
        lv[k] = cum;
        lv[kLevels + k] = phi;
      }
    }
  }
  CursorView view() const {
    return {ready, sess_rem, next_start, accr, levels, kLevels};
  }
};

/// The exact block minimum the gate stores: min over the block's lane
/// bounds at `task`, and the first lane attaining it.
std::pair<double, std::uint8_t> block_lane_min(const BoundGate& gate,
                                               std::size_t blk,
                                               double task) {
  constexpr std::size_t kBlock = BoundGate::kBlock;
  double m = gate.lane_bound(blk * kBlock, task);
  std::uint8_t arg = 0;
  for (std::size_t i = 1; i < kBlock; ++i) {
    const double v = gate.lane_bound(blk * kBlock + i, task);
    if (v < m) {
      m = v;
      arg = static_cast<std::uint8_t>(i);
    }
  }
  return {m, arg};
}

TEST(BoundGate, ReassignmentDirtiesExactlyItsArgminEntries) {
  const std::size_t n = 200;  // four blocks, the last one partial
  sim::ScheduleState state =
      sim::ScheduleState::from_rates(random_rates(n, 61));
  state.ensure_ect_caches();
  SyntheticCursors cursors(n, 62);
  const std::vector<double> tasks = random_tasks(500, 63);
  BoundGate gate(backend::SimdLevel::kNone);
  gate.reset(state, cursors.view(), tasks, InterruptionPolicy::kCheckpoint);
  const std::span<const double> positions = gate.positions();
  ASSERT_EQ(positions.size(), BoundGate::kGridSize);
  for (std::size_t b = 0; b < state.block_count(); ++b) {
    EXPECT_EQ(gate.dirty_mask(b), 0u);
    for (std::size_t j = 0; j < positions.size(); ++j) {
      const auto [m, arg] = block_lane_min(gate, b, positions[j]);
      EXPECT_EQ(gate.row(j)[b], m);
      EXPECT_EQ(gate.argmin_lane(b, j), arg);
    }
  }

  const std::size_t blk = 1;
  std::uint64_t expected = 0;
  // Reassign, in turn, a lane that is argmin of no position (first, so
  // any spurious bit shows on a clean mask), then the lanes recorded as
  // argmin of the first and of a later position: each assignment must
  // OR in exactly the positions whose recorded argmin was that lane.
  std::vector<std::size_t> lanes;
  for (std::size_t lane = 0; lane < BoundGate::kBlock; ++lane) {
    bool argmin_somewhere = false;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      argmin_somewhere |= gate.argmin_lane(blk, j) == lane;
    }
    if (!argmin_somewhere) {
      lanes.push_back(lane);
      break;
    }
  }
  lanes.push_back(gate.argmin_lane(blk, 0));
  lanes.push_back(gate.argmin_lane(blk, 40));
  ASSERT_EQ(lanes.size(), 3u);
  for (const std::size_t lane : lanes) {
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (gate.argmin_lane(blk, j) == lane) bits |= std::uint64_t{1} << j;
    }
    const std::size_t host = state.ect_order[blk * BoundGate::kBlock + lane];
    // The assignment moves the host's cursor forward: later ready,
    // less of the session left.
    cursors.ready[host] += 4.0;
    cursors.next_start[host] += 4.0;
    gate.on_assign(host, state, cursors.view());
    expected |= bits;
    EXPECT_EQ(gate.dirty_mask(blk), expected) << "lane " << lane;
    for (std::size_t b = 0; b < state.block_count(); ++b) {
      if (b != blk) {
        EXPECT_EQ(gate.dirty_mask(b), 0u);
      }
    }
  }
  ASSERT_NE(expected, 0u);

  // A refresh repairs exactly the dirty entries: the bit clears and the
  // entry is again the exact block minimum with its argmin; a clean
  // entry is left untouched.
  for (std::size_t j = 0; j < positions.size(); ++j) {
    const bool was_dirty = (expected >> j) & 1;
    const double before = gate.row(j)[blk];
    EXPECT_EQ(gate.refresh(blk, j), was_dirty) << "position " << j;
    EXPECT_EQ((gate.dirty_mask(blk) >> j) & 1, 0u);
    const auto [m, arg] = block_lane_min(gate, blk, positions[j]);
    EXPECT_EQ(gate.row(j)[blk], m) << "position " << j;
    EXPECT_EQ(gate.argmin_lane(blk, j), arg) << "position " << j;
    if (was_dirty) {
      EXPECT_GE(gate.row(j)[blk], before);  // a repair only raises
    } else {
      EXPECT_EQ(gate.row(j)[blk], before);
    }
  }
  EXPECT_EQ(gate.dirty_mask(blk), 0u);
}

// The warm search through the group summary against a brute-force scan
// of the full row, before every task of a stepped run: a funnelled
// multi-group population leaves entries dirty, refreshed and re-dirtied
// under the search as the run goes, and the group bounds it writes must
// never exceed a member's bound.
TEST(BoundGate, WarmSearchIsTheFullRowFirstArgminThroughoutARun) {
  const std::size_t n = 2500;  // 40 blocks: groups of 16, 16 and 8
  std::vector<double> rates = random_rates(n, 71);
  for (std::size_t h = 0; h < 8; ++h) rates[h] = 60000.0 + 100.0 * h;
  const IntervalTimeline timeline = model_timeline(n, 72);
  const std::vector<double> tasks = random_tasks(400, 73);
  for (const InterruptionPolicy policy : kGatedPolicies) {
    sim::ScheduleState state =
        sim::ScheduleState::from_rates(std::vector<double>(rates));
    ChurnScheduler sched(state, timeline, {});
    sched.begin_stepping(tasks, policy);
    const BoundGate& gate = sched.gate();
    const std::size_t blocks = state.block_count();
    ASSERT_EQ(gate.group_count(), 3u);
    std::vector<double> gb(gate.group_count());
    for (const double task : tasks) {
      const std::size_t j = gate.position_of(task);
      const double over = task - gate.positions()[j];
      ASSERT_EQ(gate.first_argmin_block(j, over, gb.data()),
                full_row_first_argmin(gate, blocks, j, over))
          << "task " << task;
      for (std::size_t b = 0; b < blocks; ++b) {
        ASSERT_LE(gb[b / BoundGate::kGroup], gate.block_bound(j, b, over))
            << "block " << b << " task " << task;
      }
      sched.step(task);
    }
    expect_group_summary_exact(gate, state);
  }
}

/// A gate over inv.size() full blocks whose hosts are ordered by block:
/// block b's 64 hosts all run at inv[b] (non-decreasing) and are ready
/// at ready[b], with sessions long enough that the position-0 entry of
/// block b is exactly ready[b] (a task of size 0 fits at once).
struct SyntheticGate {
  sim::ScheduleState state;
  std::vector<double> ready, sess_rem, next_start, accr, levels;
  BoundGate gate{backend::SimdLevel::kNone};

  SyntheticGate(const std::vector<double>& inv,
                const std::vector<double>& block_ready) {
    constexpr std::size_t kBlock = BoundGate::kBlock;
    std::vector<double> rates;
    for (std::size_t b = 0; b < inv.size(); ++b) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        rates.push_back(1.0 / inv[b]);
        ready.push_back(block_ready[b]);
      }
    }
    const std::size_t n = rates.size();
    state = sim::ScheduleState::from_rates(std::move(rates));
    state.ensure_ect_caches();
    sess_rem.assign(n, 1000.0);
    next_start.assign(n, 2000.0);
    accr.assign(n, 0.0);
    levels.assign(n * 2, 0.0);
    for (std::size_t h = 0; h < n; ++h) {
      levels[h * 2] = 2000.0;      // cum_1
      levels[h * 2 + 1] = 2000.0;  // phi_1
    }
    gate.reset(state, {ready, sess_rem, next_start, accr, levels, 1},
               std::vector<double>{1.0}, InterruptionPolicy::kCheckpoint);
  }
};

// Hand-built rows where the tightest group is NOT where the answer lies:
// a group bound pairs the minimum entry of one member with the minimum
// inv of another, so it can sit far below every member's own bound.
// Three groups of 16 blocks; at over = 1 block b's bound is ready[b] +
// inv[b]. Blocks 0..16 have inv 1, blocks 17..47 inv 4, so group 1's
// bound takes its inv from block 16 and its entry from block 31.
TEST(BoundGate, WarmSearchExpandsEveryGroupNotAboveTheIncumbent) {
  std::vector<double> inv(48, 4.0);
  std::fill(inv.begin(), inv.begin() + 17, 1.0);
  const double over = 1.0;
  {
    // The minimum lies outside the tightest group: group 1 bounds at
    // 10 + 1 = 11 but its best member (block 31) at 10 + 4 = 14; group
    // 2 bounds at 8 + 4 = 12 and so does its block 32, the answer.
    std::vector<double> ready(48, 100.0);
    ready[31] = 10.0;
    ready[32] = 8.0;
    SyntheticGate sg(inv, ready);
    ASSERT_EQ(sg.gate.row(0)[31], 10.0);
    std::vector<double> gb(sg.gate.group_count());
    EXPECT_EQ(sg.gate.first_argmin_block(0, over, gb.data()), 32u);
    EXPECT_EQ(gb, (std::vector<double>{101.0, 11.0, 12.0}));
    EXPECT_EQ(full_row_first_argmin(sg.gate, 48, 0, over), 32u);
  }
  {
    // Two groups tie on the minimum: block 31 of the tightest group and
    // block 3 of group 0 both bound at 14, and group 0's bound is 14
    // too — equal to the incumbent, so only a <= expansion finds the
    // lower index.
    std::vector<double> ready(48, 100.0);
    ready[31] = 10.0;
    ready[3] = 13.0;
    SyntheticGate sg(inv, ready);
    std::vector<double> gb(sg.gate.group_count());
    EXPECT_EQ(sg.gate.first_argmin_block(0, over, gb.data()), 3u);
    EXPECT_EQ(gb, (std::vector<double>{14.0, 11.0, 104.0}));
    EXPECT_EQ(full_row_first_argmin(sg.gate, 48, 0, over), 3u);
  }
}

TEST(ChurnSchedulerConfigValidation, RejectsOutOfRangeLevels) {
  const std::size_t n = 10;
  sim::ScheduleState state =
      sim::ScheduleState::from_rates(random_rates(n, 51));
  const IntervalTimeline timeline = model_timeline(n, 52);
  ChurnSchedulerConfig zero;
  zero.lookahead_levels = 0;
  EXPECT_THROW(ChurnScheduler(state, timeline, zero), std::invalid_argument);
  ChurnSchedulerConfig deep;
  deep.lookahead_levels = kMaxLookaheadLevels + 1;
  EXPECT_THROW(ChurnScheduler(state, timeline, deep), std::invalid_argument);
  ChurnSchedulerConfig max_ok;
  max_ok.lookahead_levels = kMaxLookaheadLevels;
  EXPECT_NO_THROW(ChurnScheduler(state, timeline, max_ok));
}

}  // namespace
}  // namespace resmodel::churn
