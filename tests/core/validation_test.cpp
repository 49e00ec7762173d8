#include "core/validation.h"

#include <gtest/gtest.h>

#include "core/host_generator.h"
#include "util/rng.h"

namespace resmodel::core {
namespace {

TEST(TwoSampleKs, IdenticalSamplesGiveZero) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(two_sample_ks(xs, xs), 0.0);
}

TEST(TwoSampleKs, DisjointSamplesGiveOne) {
  EXPECT_DOUBLE_EQ(two_sample_ks({1, 2, 3}, {10, 11, 12}), 1.0);
}

TEST(TwoSampleKs, EmptyGivesOne) {
  EXPECT_DOUBLE_EQ(two_sample_ks({}, {1.0}), 1.0);
}

TEST(TwoSampleKs, KnownHalfShift) {
  // {1,2} vs {2,3}: max CDF gap is 0.5 (at x in [1,2)).
  EXPECT_DOUBLE_EQ(two_sample_ks({1, 2}, {2, 3}), 0.5);
}

TEST(CompareResources, SameModelSamplesAreClose) {
  // Generated vs "actual" drawn from the same model: the Figure-12
  // situation in the ideal case. Mean diffs should be within a few
  // percent and KS small.
  const HostGenerator gen(paper_params());
  util::Rng rng_a(1), rng_b(2);
  const auto date = util::ModelDate::from_ymd(2010, 9, 1);
  const auto actual = gen.generate_batch(date, 20000, rng_a);
  const auto generated = gen.generate_batch(date, 20000, rng_b);
  const auto comparisons = compare_resources(columns_of(actual), generated);
  ASSERT_EQ(comparisons.size(), 5u);
  for (const ResourceComparison& c : comparisons) {
    EXPECT_LT(c.mean_diff_fraction, 0.05) << c.name;
    EXPECT_LT(c.ks_statistic, 0.03) << c.name;
  }
}

TEST(CompareResources, DetectsDeliberateMismatch) {
  const HostGenerator gen(paper_params());
  util::Rng rng_a(3), rng_b(4);
  const auto actual =
      gen.generate_batch(util::ModelDate::from_ymd(2006, 1, 1), 5000, rng_a);
  const auto generated =
      gen.generate_batch(util::ModelDate::from_ymd(2010, 9, 1), 5000, rng_b);
  const auto comparisons = compare_resources(columns_of(actual), generated);
  // Four years of growth: every resource mean should be visibly off.
  for (const ResourceComparison& c : comparisons) {
    EXPECT_GT(c.mean_diff_fraction, 0.10) << c.name;
  }
}

TEST(CompareResources, NamesInPaperOrder) {
  const HostGenerator gen(paper_params());
  util::Rng rng(5);
  const auto hosts =
      gen.generate_batch(util::ModelDate::from_ymd(2010, 1, 1), 100, rng);
  const auto comparisons = compare_resources(columns_of(hosts), hosts);
  EXPECT_EQ(comparisons[0].name, "Cores");
  EXPECT_EQ(comparisons[1].name, "Memory (MB)");
  EXPECT_EQ(comparisons[4].name, "Avail Disk (GB)");
}

TEST(GeneratedCorrelationMatrix, MatchesTableVIIIShape) {
  const HostGenerator gen(paper_params());
  util::Rng rng(6);
  const auto hosts =
      gen.generate_batch(util::ModelDate::from_ymd(2010, 9, 1), 40000, rng);
  const stats::Matrix m = generated_correlation_matrix(hosts);
  ASSERT_EQ(m.rows(), 6u);
  // Table VIII's headline structure (see host_generator_test for why
  // whet-dhry sits at the latent 0.639 rather than the paper's 0.505).
  EXPECT_NEAR(m(0, 1), 0.727, 0.06);  // cores-memory
  EXPECT_NEAR(m(3, 4), 0.639, 0.05);  // whet-dhry
  EXPECT_GT(m(2, 3), 0.15);           // mem/core-whet (attenuated 0.25)
  EXPECT_LT(m(2, 3), 0.35);
  EXPECT_NEAR(m(5, 0), 0.0, 0.03);    // disk uncorrelated
}

}  // namespace
}  // namespace resmodel::core
