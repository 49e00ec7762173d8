#include "churn/interval_timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "synth/availability.h"
#include "util/rng.h"

namespace resmodel::churn {
namespace {

// The serial contract IntervalTimeline::generate promises: fork once per
// host in host order, then generate each host from its own fork.
std::vector<std::vector<synth::AvailabilityInterval>> manual_intervals(
    const synth::AvailabilityModel& model, std::size_t hosts, double start,
    double end, util::Rng& rng,
    synth::StartMode mode = synth::StartMode::kOnAtStart) {
  std::vector<util::Rng> forks;
  for (std::size_t h = 0; h < hosts; ++h) forks.push_back(rng.fork());
  std::vector<std::vector<synth::AvailabilityInterval>> per_host(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    per_host[h] = model.generate(start, end, forks[h], mode);
  }
  return per_host;
}

TEST(IntervalTimeline, MatchesPerHostGenerationExactly) {
  const synth::AvailabilityModel model;
  util::Rng rng_tl(5), rng_manual(5);
  const IntervalTimeline timeline =
      IntervalTimeline::generate(model, 40, 0.0, 120.0, rng_tl);
  const auto manual = manual_intervals(model, 40, 0.0, 120.0, rng_manual);

  ASSERT_EQ(timeline.host_count(), 40u);
  for (std::size_t h = 0; h < 40; ++h) {
    const auto intervals = timeline.host_intervals(h);
    ASSERT_EQ(intervals.size(), manual[h].size()) << "host " << h;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      EXPECT_EQ(intervals[i].start_day, manual[h][i].start_day);
      EXPECT_EQ(intervals[i].end_day, manual[h][i].end_day);
    }
  }
  // Both consumed the caller's stream identically (one fork per host).
  EXPECT_EQ(rng_tl.next(), rng_manual.next());
}

TEST(IntervalTimeline, GenerateMatchesFromIntervalsColumnForColumn) {
  // generate() fills its CSR columns chunk by chunk (256 hosts each);
  // over several chunks, a partial last one and hosts with no interval
  // at all (a stationary start can open on a long OFF residual), every
  // column must equal the round-trip adapter's — offsets, starts, ends
  // and the cum_ends prefix sums, which must also be the running ON
  // totals of the per-host draws.
  synth::AvailabilityParams params;
  // Widely spread OFF gaps: most hosts get several intervals, while a
  // long OFF residual at the start empties some hosts' windows.
  params.off_lognormal_mu = 0.0;
  params.off_lognormal_sigma = 2.5;
  const synth::AvailabilityModel model(params);
  const std::size_t hosts = 600;
  for (const int threads : {1, 3}) {
    util::Rng rng_tl(17), rng_manual(17);
    const IntervalTimeline timeline = IntervalTimeline::generate(
        model, hosts, 0.0, 10.0, rng_tl, synth::StartMode::kStationary,
        threads);
    const auto manual = manual_intervals(model, hosts, 0.0, 10.0, rng_manual,
                                         synth::StartMode::kStationary);
    const IntervalTimeline expected =
        IntervalTimeline::from_intervals(manual, 0.0, 10.0);
    ASSERT_EQ(timeline.host_count(), hosts);
    ASSERT_EQ(timeline.total_intervals(), expected.total_intervals());
    std::size_t empty_hosts = 0;
    std::size_t most_intervals = 0;
    for (std::size_t h = 0; h < hosts; ++h) {
      ASSERT_EQ(timeline.interval_count(h), expected.interval_count(h))
          << "host " << h;
      empty_hosts += timeline.interval_count(h) == 0 ? 1 : 0;
      most_intervals = std::max(most_intervals, timeline.interval_count(h));
      double accrued = 0.0;  // the running ON total, summed here
      for (std::size_t i = 0; i < timeline.interval_count(h); ++i) {
        EXPECT_EQ(timeline.starts(h)[i], expected.starts(h)[i]);
        EXPECT_EQ(timeline.ends(h)[i], expected.ends(h)[i]);
        EXPECT_EQ(timeline.cum_ends(h)[i], expected.cum_ends(h)[i]);
        accrued += manual[h][i].end_day - manual[h][i].start_day;
        EXPECT_EQ(timeline.cum_ends(h)[i], accrued);
      }
    }
    EXPECT_GT(empty_hosts, 0u);
    EXPECT_GE(most_intervals, 8u);
    EXPECT_EQ(rng_tl.next(), rng_manual.next());
  }
}

TEST(IntervalTimeline, ThreadCountInvariant) {
  const synth::AvailabilityModel model;
  util::Rng r1(9), r4(9);
  const IntervalTimeline serial =
      IntervalTimeline::generate(model, 300, 0.0, 80.0, r1,
                                 synth::StartMode::kOnAtStart, /*threads=*/1);
  const IntervalTimeline parallel =
      IntervalTimeline::generate(model, 300, 0.0, 80.0, r4,
                                 synth::StartMode::kOnAtStart, /*threads=*/4);
  ASSERT_EQ(serial.total_intervals(), parallel.total_intervals());
  for (std::size_t h = 0; h < serial.host_count(); ++h) {
    ASSERT_EQ(serial.interval_count(h), parallel.interval_count(h));
    const auto s = serial.host_intervals(h);
    const auto p = parallel.host_intervals(h);
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s[i].start_day, p[i].start_day);
      EXPECT_EQ(s[i].end_day, p[i].end_day);
    }
  }
}

TEST(IntervalTimeline, RoundTripsVectorOfIntervals) {
  // The satellite round-trip check: vector-of-intervals -> CSR columns ->
  // vector-of-intervals is the identity, including an empty host.
  std::vector<std::vector<synth::AvailabilityInterval>> per_host = {
      {{0.0, 1.5}, {2.0, 4.0}},
      {},
      {{5.0, 9.0}},
  };
  const IntervalTimeline timeline =
      IntervalTimeline::from_intervals(per_host, 0.0, 10.0);
  ASSERT_EQ(timeline.host_count(), 3u);
  EXPECT_EQ(timeline.total_intervals(), 3u);
  EXPECT_EQ(timeline.interval_count(0), 2u);
  EXPECT_EQ(timeline.interval_count(1), 0u);
  EXPECT_EQ(timeline.interval_count(2), 1u);
  for (std::size_t h = 0; h < 3; ++h) {
    const auto intervals = timeline.host_intervals(h);
    ASSERT_EQ(intervals.size(), per_host[h].size());
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      EXPECT_DOUBLE_EQ(intervals[i].start_day, per_host[h][i].start_day);
      EXPECT_DOUBLE_EQ(intervals[i].end_day, per_host[h][i].end_day);
    }
  }
}

TEST(IntervalTimeline, AdvanceCursorFindsTheRightInterval) {
  const std::vector<std::vector<synth::AvailabilityInterval>> per_host = {
      {{0.0, 1.0}, {2.0, 4.0}, {6.0, 7.0}}};
  const IntervalTimeline tl =
      IntervalTimeline::from_intervals(per_host, 0.0, 10.0);
  EXPECT_EQ(tl.advance(0, 0.0), 0u);   // inside first
  EXPECT_EQ(tl.advance(0, 0.999), 0u);
  EXPECT_EQ(tl.advance(0, 1.0), 1u);   // exactly at an exclusive end
  EXPECT_EQ(tl.advance(0, 1.5), 1u);   // in the gap
  EXPECT_EQ(tl.advance(0, 3.0), 1u);   // inside second
  EXPECT_EQ(tl.advance(0, 6.5), 2u);
  EXPECT_EQ(tl.advance(0, 7.0), 3u);   // past everything
}

TEST(IntervalTimeline, NextOnMatchesSemantics) {
  const std::vector<std::vector<synth::AvailabilityInterval>> per_host = {
      {{0.0, 1.0}, {2.0, 4.0}},
      {}};
  const IntervalTimeline tl =
      IntervalTimeline::from_intervals(per_host, 0.0, 10.0);
  // Inside an interval: now.
  EXPECT_DOUBLE_EQ(tl.next_on(0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(tl.next_on(0, 2.0), 2.0);
  // In a gap: the next start.
  EXPECT_DOUBLE_EQ(tl.next_on(0, 1.5), 2.0);
  // At an exclusive interval end: the next start.
  EXPECT_DOUBLE_EQ(tl.next_on(0, 1.0), 2.0);
  // Past the last interval but inside the horizon: ON resumes at the
  // horizon (beyond-horizon convention).
  EXPECT_DOUBLE_EQ(tl.next_on(0, 5.0), 10.0);
  // Beyond the horizon: permanently ON.
  EXPECT_DOUBLE_EQ(tl.next_on(0, 12.5), 12.5);
  // A host with no intervals is OFF until the horizon.
  EXPECT_DOUBLE_EQ(tl.next_on(1, 3.0), 10.0);
}

TEST(IntervalTimeline, FractionMatchesAvailabilityFraction) {
  const synth::AvailabilityModel model;
  util::Rng rng(11);
  const IntervalTimeline tl =
      IntervalTimeline::generate(model, 20, 0.0, 150.0, rng);
  for (std::size_t h = 0; h < tl.host_count(); ++h) {
    const auto intervals = tl.host_intervals(h);
    EXPECT_DOUBLE_EQ(tl.fraction(h, 0.0, 150.0),
                     synth::availability_fraction(intervals, 0.0, 150.0));
    EXPECT_DOUBLE_EQ(tl.fraction(h, 10.0, 60.0),
                     synth::availability_fraction(intervals, 10.0, 60.0));
  }
  // Degenerate windows are zero.
  EXPECT_DOUBLE_EQ(tl.fraction(0, 5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(tl.fraction(0, 9.0, 3.0), 0.0);
}

TEST(IntervalTimeline, PerHostParamsOverload) {
  // Hosts with wildly different ON scales must show it in their measured
  // fractions; identical params must reproduce the shared-model stream.
  synth::AvailabilityParams steady;
  steady.on_weibull_lambda = 20.0;  // very long sessions
  synth::AvailabilityParams flaky;
  flaky.on_weibull_lambda = 0.02;  // very short sessions
  const std::vector<synth::AvailabilityParams> params = {steady, flaky};
  util::Rng rng(13);
  const IntervalTimeline tl =
      IntervalTimeline::generate(params, 0.0, 200.0, rng);
  EXPECT_GT(tl.fraction(0, 0.0, 200.0), tl.fraction(1, 0.0, 200.0));

  const std::vector<synth::AvailabilityParams> same = {
      synth::AvailabilityParams{}, synth::AvailabilityParams{}};
  util::Rng ra(17), rb(17);
  const IntervalTimeline from_params =
      IntervalTimeline::generate(same, 0.0, 100.0, ra);
  const IntervalTimeline from_model = IntervalTimeline::generate(
      synth::AvailabilityModel{}, 2, 0.0, 100.0, rb);
  for (std::size_t h = 0; h < 2; ++h) {
    ASSERT_EQ(from_params.interval_count(h), from_model.interval_count(h));
    const auto a = from_params.host_intervals(h);
    const auto b = from_model.host_intervals(h);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].start_day, b[i].start_day);
      EXPECT_EQ(a[i].end_day, b[i].end_day);
    }
  }
}

TEST(IntervalTimeline, RejectsInvalidParams) {
  synth::AvailabilityParams bad;
  bad.on_weibull_k = -1.0;
  const std::vector<synth::AvailabilityParams> params = {
      synth::AvailabilityParams{}, bad};
  util::Rng rng(1);
  EXPECT_THROW(IntervalTimeline::generate(params, 0.0, 10.0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::churn
