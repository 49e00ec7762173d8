#include "synth/availability.h"

#include <gtest/gtest.h>

#include <cmath>

namespace resmodel::synth {
namespace {

TEST(AvailabilityParams, DefaultsValidate) {
  EXPECT_NO_THROW(AvailabilityParams{}.validate());
}

TEST(AvailabilityParams, RejectsNonPositive) {
  AvailabilityParams p;
  p.on_weibull_k = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = AvailabilityParams{};
  p.off_lognormal_sigma = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(AvailabilityModel, IntervalsAreSortedDisjointAndInWindow) {
  const AvailabilityModel model;
  util::Rng rng(1);
  const auto intervals = model.generate(100.0, 400.0, rng);
  ASSERT_FALSE(intervals.empty());
  double prev_end = 100.0;
  for (const AvailabilityInterval& interval : intervals) {
    ASSERT_GE(interval.start_day, prev_end - 1e-12);
    ASSERT_GT(interval.end_day, interval.start_day);
    ASSERT_LE(interval.end_day, 400.0 + 1e-12);
    prev_end = interval.end_day;
  }
  // Starts in the ON state.
  EXPECT_DOUBLE_EQ(intervals.front().start_day, 100.0);
}

TEST(AvailabilityModel, EmptyWindowGivesNoIntervals) {
  const AvailabilityModel model;
  util::Rng rng(2);
  EXPECT_TRUE(model.generate(10.0, 10.0, rng).empty());
  EXPECT_TRUE(model.generate(10.0, 5.0, rng).empty());
}

TEST(AvailabilityModel, LongRunFractionMatchesExpectation) {
  const AvailabilityModel model;
  util::Rng rng(3);
  const auto intervals = model.generate(0.0, 20000.0, rng);
  const double measured = availability_fraction(intervals, 0.0, 20000.0);
  EXPECT_NEAR(measured, model.expected_availability(), 0.04);
}

TEST(AvailabilityModel, ExpectedAvailabilityIsPlausible) {
  // Defaults approximate volunteer hosts: mostly-on but far from 100%.
  const AvailabilityModel model;
  EXPECT_GT(model.expected_availability(), 0.4);
  EXPECT_LT(model.expected_availability(), 0.95);
}

TEST(AvailabilityModel, ExpectedAvailabilityIsTheClosedFormBitForBit) {
  // E[on] / (E[on] + E[off]) with E[on] = lambda * Gamma(1 + 1/k) and
  // E[off] = exp(mu + sigma^2 / 2), written with std::lgamma: the
  // thread-safe lgamma_r inside the model must not move a single ulp.
  for (const double k : {0.25, 0.40, 1.0, 2.5}) {
    for (const double mu : {-1.9, 0.5}) {
      AvailabilityParams params;
      params.on_weibull_k = k;
      params.off_lognormal_mu = mu;
      const double mean_on = params.on_weibull_lambda *
                             std::exp(std::lgamma(1.0 + 1.0 / k));
      const double mean_off =
          std::exp(mu + params.off_lognormal_sigma *
                            params.off_lognormal_sigma / 2.0);
      EXPECT_EQ(AvailabilityModel(params).expected_availability(),
                mean_on / (mean_on + mean_off))
          << "k=" << k << " mu=" << mu;
    }
  }
}

TEST(AvailabilityModel, HigherOffMeanLowersAvailability) {
  AvailabilityParams long_off;
  long_off.off_lognormal_mu = 0.5;  // much longer outages
  const AvailabilityModel base;
  const AvailabilityModel worse(long_off);
  EXPECT_LT(worse.expected_availability(), base.expected_availability());
}

TEST(AvailabilityFraction, PartialOverlapCounted) {
  const std::vector<AvailabilityInterval> on = {{0.0, 1.0}, {2.0, 4.0}};
  EXPECT_DOUBLE_EQ(availability_fraction(on, 0.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(availability_fraction(on, 0.5, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(availability_fraction(on, 10.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(availability_fraction(on, 5.0, 5.0), 0.0);
}

TEST(AvailabilityFraction, DegenerateWindows) {
  const std::vector<AvailabilityInterval> on = {{2.0, 4.0}};
  // Zero-length and inverted windows are 0, even inside an ON interval.
  EXPECT_DOUBLE_EQ(availability_fraction(on, 3.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(availability_fraction(on, 4.0, 2.0), 0.0);
  // Intervals fully outside the window contribute nothing, on both sides.
  EXPECT_DOUBLE_EQ(availability_fraction(on, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(availability_fraction(on, 5.0, 9.0), 0.0);
  // Empty timeline covers nothing.
  EXPECT_DOUBLE_EQ(availability_fraction({}, 0.0, 10.0), 0.0);
  // Window boundary exactly on the interval boundary: [4, 5) is OFF.
  EXPECT_DOUBLE_EQ(availability_fraction(on, 4.0, 5.0), 0.0);
}

TEST(NextAvailableTime, InsideAndBetweenIntervals) {
  const std::vector<AvailabilityInterval> on = {{0.0, 1.0}, {2.0, 4.0}};
  ASSERT_TRUE(next_available_time(on, 0.5).has_value());
  EXPECT_DOUBLE_EQ(*next_available_time(on, 0.5), 0.5);  // already on
  EXPECT_DOUBLE_EQ(*next_available_time(on, 1.5), 2.0);  // wait for next
  EXPECT_FALSE(next_available_time(on, 4.5).has_value());  // nothing left
}

TEST(NextAvailableTime, EdgeCases) {
  const std::vector<AvailabilityInterval> on = {{0.0, 1.0}, {2.0, 4.0}};
  // Empty timeline: never available.
  EXPECT_FALSE(next_available_time({}, 0.0).has_value());
  // Day exactly at an interval start: contained.
  EXPECT_DOUBLE_EQ(*next_available_time(on, 2.0), 2.0);
  // Day exactly at an interval end: ends are exclusive, so the next
  // interval (or nothing) answers.
  EXPECT_DOUBLE_EQ(*next_available_time(on, 1.0), 2.0);
  EXPECT_FALSE(next_available_time(on, 4.0).has_value());
  // Day before the first interval snaps forward to its start.
  const std::vector<AvailabilityInterval> late = {{5.0, 6.0}};
  EXPECT_DOUBLE_EQ(*next_available_time(late, 0.0), 5.0);
}

TEST(AvailabilityModel, StationaryStartKeepsDefaultStreamUnchanged) {
  // kOnAtStart is the default and must consume the rng exactly as the
  // two-argument overload always has.
  const AvailabilityModel model;
  util::Rng a(21), b(21);
  const auto legacy = model.generate(0.0, 50.0, a);
  const auto explicit_mode =
      model.generate(0.0, 50.0, b, StartMode::kOnAtStart);
  ASSERT_EQ(legacy.size(), explicit_mode.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy[i].start_day, explicit_mode[i].start_day);
    EXPECT_DOUBLE_EQ(legacy[i].end_day, explicit_mode[i].end_day);
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(AvailabilityModel, StationaryStartIsSometimesOff) {
  // Across many seeds, the stationary start must produce both initial
  // states: a first interval at the window edge (ON) and one strictly
  // after it (OFF residual first). Always-ON never produces the latter.
  const AvailabilityModel model;
  int started_on = 0, started_off = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed);
    const auto intervals =
        model.generate(0.0, 1000.0, rng, StartMode::kStationary);
    ASSERT_FALSE(intervals.empty());
    if (intervals.front().start_day == 0.0) {
      ++started_on;
    } else {
      ++started_off;
    }
  }
  EXPECT_GT(started_on, 0);
  EXPECT_GT(started_off, 0);
  // The ON share should be in the neighbourhood of the long-run fraction.
  const double on_share = static_cast<double>(started_on) / 200.0;
  EXPECT_NEAR(on_share, model.expected_availability(), 0.15);
}

TEST(AvailabilityModel, StationaryLongRunFractionStillMatches) {
  const AvailabilityModel model;
  util::Rng rng(33);
  const auto intervals =
      model.generate(0.0, 20000.0, rng, StartMode::kStationary);
  const double measured = availability_fraction(intervals, 0.0, 20000.0);
  EXPECT_NEAR(measured, model.expected_availability(), 0.04);
}

TEST(AvailabilityModel, DeterministicForFixedSeed) {
  const AvailabilityModel model;
  util::Rng a(7), b(7);
  const auto ia = model.generate(0.0, 100.0, a);
  const auto ib = model.generate(0.0, 100.0, b);
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t i = 0; i < ia.size(); ++i) {
    EXPECT_DOUBLE_EQ(ia[i].start_day, ib[i].start_day);
    EXPECT_DOUBLE_EQ(ia[i].end_day, ib[i].end_day);
  }
}

}  // namespace
}  // namespace resmodel::synth
