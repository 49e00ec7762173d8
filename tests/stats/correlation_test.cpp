#include "stats/correlation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace resmodel::stats {
namespace {

TEST(Pearson, PerfectPositiveLinear) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegativeLinear) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, InvariantToAffineTransform) {
  util::Rng rng(1);
  std::vector<double> x(500), y(500), y2(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 0.5 * x[i] + rng.normal();
    y2[i] = 100.0 - 7.0 * y[i];  // affine with negative slope
  }
  EXPECT_NEAR(pearson(x, y2), -pearson(x, y), 1e-12);
}

TEST(Pearson, IndependentSamplesNearZero) {
  util::Rng rng(2);
  std::vector<double> x(50000), y(50000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.02);
}

TEST(Pearson, DegenerateInputsAreNan) {
  EXPECT_TRUE(std::isnan(pearson(std::vector<double>{1.0},
                                 std::vector<double>{2.0})));
  EXPECT_TRUE(std::isnan(pearson(std::vector<double>{1, 2},
                                 std::vector<double>{1, 2, 3})));
  EXPECT_TRUE(std::isnan(pearson(std::vector<double>{1, 1, 1},
                                 std::vector<double>{1, 2, 3})));
}

TEST(Spearman, MonotoneNonlinearGivesOne) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};  // x^3
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);  // pearson is not 1 for nonlinear
}

TEST(Spearman, TiesAveraged) {
  const std::vector<double> x = {1, 2, 2, 3};
  const std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(CorrelationMatrix, DiagonalIsOneAndSymmetric) {
  util::Rng rng(3);
  std::vector<NamedColumn> cols = {{"a", {}}, {"b", {}}, {"c", {}}};
  for (int i = 0; i < 1000; ++i) {
    const double base = rng.normal();
    cols[0].values.push_back(base);
    cols[1].values.push_back(base + rng.normal());
    cols[2].values.push_back(rng.normal());
  }
  const Matrix m = correlation_matrix(cols);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m(i, i), 1.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
    }
  }
  EXPECT_GT(m(0, 1), 0.5);       // correlated by construction
  EXPECT_LT(std::fabs(m(0, 2)), 0.15);  // independent
}

TEST(CorrelationMatrix, RejectsUnequalColumns) {
  std::vector<NamedColumn> cols = {{"a", {1, 2, 3}}, {"b", {1, 2}}};
  EXPECT_THROW(correlation_matrix(cols), std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::stats
