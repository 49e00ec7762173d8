#include "model/correlation_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "model/cholesky_gaussian.h"
#include "model/empirical_rank_copula.h"
#include "model/factory.h"
#include "model/independent.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/matrix.h"
#include "util/rng.h"

namespace resmodel::model {
namespace {

stats::Matrix paper_r() {
  return stats::Matrix::from_rows({
      {1.0, 0.250, 0.306},
      {0.250, 1.0, 0.639},
      {0.306, 0.639, 1.0},
  });
}

/// Columns of `n` triples drawn from `m`.
std::vector<std::vector<double>> sample_columns(const CorrelationModel& m,
                                                std::size_t n,
                                                std::uint64_t seed) {
  std::vector<std::vector<double>> cols(m.dimension());
  for (auto& c : cols) c.reserve(n);
  util::Rng rng(seed);
  std::vector<double> z(m.dimension());
  for (std::size_t i = 0; i < n; ++i) {
    m.sample_normals(0.0, rng, z);
    for (std::size_t d = 0; d < z.size(); ++d) cols[d].push_back(z[d]);
  }
  return cols;
}

/// Spearman correlation of a bivariate Gaussian with Pearson r.
double gaussian_spearman(double r) {
  return 6.0 / std::numbers::pi * std::asin(r / 2.0);
}

TEST(CholeskyGaussian, MatchesLegacyCorrelatedNormals) {
  const CholeskyGaussian m(paper_r());
  const auto lower = stats::cholesky(paper_r());
  ASSERT_TRUE(lower.has_value());
  util::Rng a(123), b(123);
  double z[3];
  for (int i = 0; i < 100; ++i) {
    m.sample_normals(4.0, a, z);
    const std::vector<double> expected = stats::correlated_normals(b, *lower);
    for (std::size_t d = 0; d < 3; ++d) {
      ASSERT_DOUBLE_EQ(z[d], expected[d]) << "draw " << i << " dim " << d;
    }
  }
}

TEST(CholeskyGaussian, ReproducesPearsonMatrix) {
  const CholeskyGaussian m(paper_r());
  const auto cols = sample_columns(m, 50000, 7);
  EXPECT_NEAR(stats::pearson(cols[0], cols[1]), 0.250, 0.02);
  EXPECT_NEAR(stats::pearson(cols[0], cols[2]), 0.306, 0.02);
  EXPECT_NEAR(stats::pearson(cols[1], cols[2]), 0.639, 0.02);
  for (const auto& c : cols) {
    EXPECT_NEAR(stats::mean(c), 0.0, 0.02);
    EXPECT_NEAR(stats::stddev(c), 1.0, 0.02);
  }
}

TEST(CholeskyGaussian, RejectsNonPositiveDefinite) {
  EXPECT_THROW(CholeskyGaussian(stats::Matrix::from_rows({
                   {1.0, 0.99},
                   {0.5, 1.0},  // asymmetric
               })),
               std::invalid_argument);
  EXPECT_THROW(CholeskyGaussian(stats::Matrix::from_rows({
                   {1.0, 1.2},
                   {1.2, 1.0},  // |r| > 1, not PD
               })),
               std::invalid_argument);
  EXPECT_THROW(CholeskyGaussian(stats::Matrix(0, 0)), std::invalid_argument);
}

TEST(Independent, ComponentsUncorrelated) {
  const Independent m;
  EXPECT_EQ(m.dimension(), kTripleDim);
  const auto cols = sample_columns(m, 50000, 11);
  EXPECT_NEAR(stats::pearson(cols[0], cols[1]), 0.0, 0.02);
  EXPECT_NEAR(stats::pearson(cols[0], cols[2]), 0.0, 0.02);
  EXPECT_NEAR(stats::pearson(cols[1], cols[2]), 0.0, 0.02);
  for (const auto& c : cols) {
    EXPECT_NEAR(stats::mean(c), 0.0, 0.02);
    EXPECT_NEAR(stats::stddev(c), 1.0, 0.02);
  }
}

TEST(CorrelationModel, SampleUniformsAreUniform) {
  const CholeskyGaussian m(paper_r());
  util::Rng rng(13);
  std::vector<double> u(3);
  std::vector<double> first;
  for (int i = 0; i < 20000; ++i) {
    m.sample_uniforms(0.0, rng, u);
    for (double v : u) {
      ASSERT_GT(v, 0.0);
      ASSERT_LT(v, 1.0);
    }
    first.push_back(u[0]);
  }
  EXPECT_NEAR(stats::mean(first), 0.5, 0.01);
  EXPECT_NEAR(stats::stddev(first), std::sqrt(1.0 / 12.0), 0.01);
}

// The satellite requirement: a copula fitted on generated data reproduces
// the input Spearman matrix within tolerance. Rank correlation must also
// survive arbitrary monotone marginal transforms.
TEST(EmpiricalRankCopula, RecoversSpearmanOfGeneratingProcess) {
  const stats::Matrix r = paper_r();
  const CholeskyGaussian truth(r);
  auto cols = sample_columns(truth, 40000, 17);
  // Monotone, wildly non-linear marginal transforms: ranks are invariant.
  for (double& v : cols[0]) v = std::exp(v);
  for (double& v : cols[1]) v = v * v * v;
  for (double& v : cols[2]) v = std::atan(v) * 1e6;

  const EmpiricalRankCopula fitted = EmpiricalRankCopula::fit(cols);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(fitted.fitted_spearman()(i, j),
                  gaussian_spearman(r(i, j)), 0.02)
          << i << "," << j;
      // The 2 sin(pi rho / 6) back-map recovers the latent Pearson R.
      EXPECT_NEAR(fitted.gaussian_correlation()(i, j), r(i, j), 0.02)
          << i << "," << j;
    }
  }
}

TEST(EmpiricalRankCopula, RefitOnOwnSamplesRoundTrips) {
  const CholeskyGaussian truth(paper_r());
  const EmpiricalRankCopula first =
      EmpiricalRankCopula::fit(sample_columns(truth, 30000, 19));
  const EmpiricalRankCopula second =
      EmpiricalRankCopula::fit(sample_columns(first, 30000, 23));
  EXPECT_LT(
      second.fitted_spearman().max_abs_diff(first.fitted_spearman()), 0.03);
}

TEST(EmpiricalRankCopula, FitRejectsBadInput) {
  const std::vector<std::vector<double>> ragged = {{1, 2, 3}, {1, 2}};
  EXPECT_THROW(EmpiricalRankCopula::fit(ragged), std::invalid_argument);
  const std::vector<std::vector<double>> tiny = {{1, 2}, {2, 1}};
  EXPECT_THROW(EmpiricalRankCopula::fit(tiny), std::invalid_argument);
  const std::vector<std::vector<double>> constant = {{1, 1, 1, 1},
                                                     {1, 2, 3, 4}};
  EXPECT_THROW(EmpiricalRankCopula::fit(constant), std::invalid_argument);
  const std::vector<std::vector<double>> one = {{1, 2, 3}};
  EXPECT_THROW(EmpiricalRankCopula::fit(one), std::invalid_argument);
}

TEST(EmpiricalRankCopula, PdRepairYieldsUsableMatrix) {
  // A rank matrix whose 2 sin(pi rho/6) image is far outside the PD cone.
  const stats::Matrix s = stats::Matrix::from_rows({
      {1.0, 0.95, -0.95},
      {0.95, 1.0, 0.95},
      {-0.95, 0.95, 1.0},
  });
  const stats::Matrix repaired = gaussian_correlation_from_spearman(s);
  EXPECT_TRUE(stats::cholesky(repaired).has_value());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(repaired(i, i), 1.0);
  }
}

TEST(Factory, ParsesKnownKinds) {
  EXPECT_EQ(parse_correlation_kind("cholesky"), CorrelationKind::kCholesky);
  EXPECT_EQ(parse_correlation_kind("independent"),
            CorrelationKind::kIndependent);
  EXPECT_EQ(parse_correlation_kind("empirical"), CorrelationKind::kEmpirical);
  EXPECT_FALSE(parse_correlation_kind("copula").has_value());
  EXPECT_FALSE(parse_correlation_kind("").has_value());
}

TEST(Factory, BuildsModels) {
  const stats::Matrix r = paper_r();
  EXPECT_EQ(
      make_correlation_model(CorrelationKind::kCholesky, r)->name(),
      "cholesky");
  EXPECT_EQ(
      make_correlation_model(CorrelationKind::kIndependent, r)->name(),
      "independent");
  EXPECT_EQ(
      make_correlation_model(CorrelationKind::kIndependent, r)->dimension(),
      3u);
}

TEST(Factory, EmpiricalWithoutTraceThrows) {
  EXPECT_THROW(
      make_correlation_model(CorrelationKind::kEmpirical, paper_r()),
      std::invalid_argument);
}

TEST(Factory, SpanningFitDatesLieInsideTraceWindow) {
  trace::TraceStore store;
  trace::HostRecord a;
  a.created_day = 100;
  a.last_contact_day = 400;
  trace::HostRecord b;
  b.created_day = 700;
  b.last_contact_day = 1100;
  store.add(a);
  store.add(b);
  const auto dates = spanning_fit_dates(store, 4);
  ASSERT_EQ(dates.size(), 4u);
  for (std::size_t i = 0; i < dates.size(); ++i) {
    EXPECT_GT(dates[i].day_index(), 100);
    EXPECT_LT(dates[i].day_index(), 1100);
    if (i > 0) {
      EXPECT_GT(dates[i].day_index(), dates[i - 1].day_index());
    }
  }
  EXPECT_TRUE(spanning_fit_dates(trace::TraceStore{}, 4).empty());
}

TEST(CorrelationModel, CloneIsIndependentAndEquivalent) {
  const CholeskyGaussian m(paper_r());
  const auto copy = m.clone();
  util::Rng a(31), b(31);
  double za[3], zb[3];
  for (int i = 0; i < 50; ++i) {
    m.sample_normals(1.0, a, za);
    copy->sample_normals(1.0, b, zb);
    for (std::size_t d = 0; d < 3; ++d) ASSERT_DOUBLE_EQ(za[d], zb[d]);
  }
}

}  // namespace
}  // namespace resmodel::model
