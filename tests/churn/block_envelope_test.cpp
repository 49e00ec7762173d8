// Soundness properties of the churn pruning gate (block_envelope.h):
// every bound the gate hands the scheduler — per-lane sweep values,
// per-block envelope queries, coarse-row entries — must, after deflation
// by the gate's margin, never exceed the exact double completion the
// reference kernel computes. With the gate's float32 columns this is the
// round-trip property: f32 bound * margin <= f64 completion, for every
// host and task, including after the gate has been advanced through
// staleness-epoch territory by a real run.
#include "churn/block_envelope.h"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <stdexcept>
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

/// Asserts, for every host and probe task, lane/envelope/coarse bound
/// soundness against the exact completion of the CURRENT cursor state.
void expect_gate_sound(ChurnScheduler& sched, sim::ScheduleState& state,
                       InterruptionPolicy policy,
                       std::span<const double> probes) {
  const BoundGate& gate = sched.gate();
  const double margin = gate.margin();
  constexpr std::size_t kBlock = sim::ScheduleState::kBlockSize;
  for (const double task : probes) {
    std::vector<double> block_min(state.block_count(),
                                  std::numeric_limits<double>::infinity());
    for (std::size_t h = 0; h < state.size(); ++h) {
      const double done = sched.completion_for_test(h, task, policy);
      const std::size_t pos = state.ect_pos[h];
      const double lane = gate.lane_bound(pos, task);
      EXPECT_LE(lane * margin, done)
          << "lane bound unsound: host " << h << " task " << task;
      block_min[pos / kBlock] = std::min(block_min[pos / kBlock], done);
    }
    for (std::size_t b = 0; b < state.block_count(); ++b) {
      EXPECT_LE(gate.block_bound(b, task) * margin, block_min[b])
          << "block bound unsound: block " << b << " task " << task;
      const std::size_t bucket = gate.bucket_of(task);
      const double edge = gate.bucket_edge(bucket);
      EXPECT_LE(edge, task);
      const double coarse = gate.coarse_row(bucket)[b] +
                            (task - edge) * state.ect_block_min_inv[b];
      EXPECT_LE(coarse * margin, block_min[b])
          << "coarse bound unsound: block " << b << " task " << task;
    }
  }
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

// The float32 round-trip property after a real run: the gate has been
// through per-assignment repairs AND full staleness epochs (the run
// funnels hundreds of tasks through a few fast blocks), and every
// retained bound must still deflate below the exact completion of the
// post-run cursor state.
TEST(BoundGate, BoundsStaySoundThroughStalenessEpochs) {
  const std::size_t n = 192;  // three blocks
  std::vector<double> rates = random_rates(n, 21);
  // A handful of much faster hosts concentrates assignments into one
  // block, cycling its stale counter through multiple rebuild epochs.
  for (std::size_t h = 0; h < 8; ++h) rates[h] = 60000.0 + 100.0 * h;
  const IntervalTimeline timeline = model_timeline(n, 22);
  const std::vector<double> tasks = random_tasks(BoundGate::kStaleLimit * 24,
                                                 23);
  const std::vector<double> probes = random_tasks(32, 24);
  for (const InterruptionPolicy policy : kGatedPolicies) {
    sim::ScheduleState state =
        sim::ScheduleState::from_rates(std::vector<double>(rates));
    ChurnScheduler sched(state, timeline, {});
    sched.run(tasks, policy);
    // Probes must lie inside the run's bucket range for coarse-row
    // queries (same sampler, so they do).
    expect_gate_sound(sched, state, policy, probes);
  }
}

TEST(BoundGate, EveryBlockHasBoundedKnots) {
  const std::size_t n = 130;
  const std::vector<double> rates = random_rates(n, 31);
  const IntervalTimeline timeline = model_timeline(n, 32);
  const std::vector<double> tasks = random_tasks(16, 33);

  sim::ScheduleState state =
      sim::ScheduleState::from_rates(std::vector<double>(rates));
  ChurnScheduler sched(state, timeline, {});
  sched.prime_gate_for_test(tasks, InterruptionPolicy::kCheckpoint);
  for (std::size_t b = 0; b < state.block_count(); ++b) {
    const std::size_t knots = sched.gate().knot_count(b);
    EXPECT_GE(knots, 1u);  // the t = 0 anchor at least
    EXPECT_LE(knots, BoundGate::kKnotCapacity);
  }
}

TEST(BoundGate, BucketEdgesCoverEveryPositiveTask) {
  const std::size_t n = 80;
  const std::vector<double> rates = random_rates(n, 41);
  const IntervalTimeline timeline = model_timeline(n, 42);
  const std::vector<double> tasks = {50.0, 900.0, 4000.0};
  sim::ScheduleState state =
      sim::ScheduleState::from_rates(std::vector<double>(rates));
  ChurnScheduler sched(state, timeline, {});
  sched.prime_gate_for_test(tasks, InterruptionPolicy::kCheckpoint);
  const BoundGate& gate = sched.gate();
  // Edge 0 is exactly 0: tasks below the smallest workload size still
  // anchor at a valid bucket (min-ready bound).
  EXPECT_EQ(gate.bucket_edge(0), 0.0);
  EXPECT_EQ(gate.bucket_of(1e-9), 0u);
  // The smallest workload size anchors at its own edge (edge 1 == tmin).
  EXPECT_EQ(gate.bucket_edge(gate.bucket_of(50.0)), 50.0);
  for (const double t : {0.5, 49.9, 50.0, 2000.0, 4000.0, 9000.0}) {
    const std::size_t bucket = gate.bucket_of(t);
    ASSERT_LT(bucket, BoundGate::kBuckets);
    EXPECT_LE(gate.bucket_edge(bucket), t);
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
