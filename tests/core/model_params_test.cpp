#include "core/model_params.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

namespace resmodel::core {
namespace {

TEST(DiscreteRatioChain, PmfSumsToOne) {
  const ModelParams p = paper_params();
  for (double t : {-1.0, 0.0, 2.0, 4.0, 8.0}) {
    const std::vector<double> pmf = p.cores.pmf(t);
    EXPECT_NEAR(std::accumulate(pmf.begin(), pmf.end(), 0.0), 1.0, 1e-12);
    for (double v : pmf) EXPECT_GE(v, 0.0);
  }
}

TEST(DiscreteRatioChain, PaperCoreMixAt2006) {
  // §V-D: in 2006 the 1-core:2-core ratio was ~3.3:1 and 2:4 was ~14.4:1.
  const ModelParams p = paper_params();
  const std::vector<double> pmf = p.cores.pmf(0.0);
  EXPECT_NEAR(pmf[0] / pmf[1], 3.369, 1e-9);
  EXPECT_NEAR(pmf[1] / pmf[2], 17.49, 1e-9);
}

TEST(DiscreteRatioChain, CoreRatioInvertsBy2010) {
  // §V-D: "by 2010 the ratio inverted to 1 to 2.5".
  const ModelParams p = paper_params();
  const std::vector<double> pmf = p.cores.pmf(4.0);
  EXPECT_NEAR(pmf[1] / pmf[0], 2.5, 0.35);
}

TEST(DiscreteRatioChain, QuantileMatchesPmf) {
  const ModelParams p = paper_params();
  const std::vector<double> pmf = p.cores.pmf(2.0);
  // u just below the first mass returns the first value; u = 1 the last.
  EXPECT_DOUBLE_EQ(p.cores.quantile(2.0, pmf[0] * 0.5), 1.0);
  EXPECT_DOUBLE_EQ(p.cores.quantile(2.0, 1.0), 16.0);
  // u just above the first mass returns the second value.
  EXPECT_DOUBLE_EQ(p.cores.quantile(2.0, pmf[0] + 1e-12), 2.0);
}

TEST(DiscreteRatioChain, MeanGrowsOverTime) {
  const ModelParams p = paper_params();
  double prev = p.cores.mean(-1.0);
  for (double t = 0.0; t <= 8.0; t += 1.0) {
    const double m = p.cores.mean(t);
    EXPECT_GT(m, prev);
    prev = m;
  }
}

TEST(DiscreteRatioChain, PaperPredicts46CoresIn2014) {
  // §VI-C: "The average number of cores per host in 2014 is predicted to
  // be 4.6".
  const ModelParams p = paper_params();
  EXPECT_NEAR(p.cores.mean(8.0), 4.6, 0.25);
}

TEST(DiscreteRatioChain, ValidateRejectsRaggedChain) {
  DiscreteRatioChain chain;
  chain.values = {1, 2, 4};
  chain.ratios = {{1.0, 0.0, 0.0}};  // needs 2 ratios
  EXPECT_THROW(chain.validate(), std::invalid_argument);
}

TEST(DiscreteRatioChain, ValidateRejectsNonAscendingValues) {
  DiscreteRatioChain chain;
  chain.values = {2, 1};
  chain.ratios = {{1.0, 0.0, 0.0}};
  EXPECT_THROW(chain.validate(), std::invalid_argument);
}

TEST(DiscreteRatioChain, ValidateRejectsNonPositiveA) {
  DiscreteRatioChain chain;
  chain.values = {1, 2};
  chain.ratios = {{0.0, 0.0, 0.0}};
  EXPECT_THROW(chain.validate(), std::invalid_argument);
}

TEST(MomentLaws, StddevIsSqrtVariance) {
  const ModelParams p = paper_params();
  EXPECT_NEAR(p.dhrystone.stddev(0.0), std::sqrt(1.379e6), 1e-6);
}

TEST(PaperParams, TableVIValuesAt2006) {
  const ModelParams p = paper_params();
  EXPECT_NEAR(p.dhrystone.mean(0.0), 2064.0, 1e-9);
  EXPECT_NEAR(p.whetstone.mean(0.0), 1179.0, 1e-9);
  EXPECT_NEAR(p.disk_gb.mean(0.0), 31.59, 1e-9);
}

TEST(PaperParams, PredictedMoments2014MatchPaper) {
  // §VI-C: 2014 predictions — Dhrystone (8100, 4419), Whetstone
  // (2975, 868), disk (272.0, 434.5).
  const ModelParams p = paper_params();
  EXPECT_NEAR(p.dhrystone.mean(8.0), 8100.0, 100.0);
  EXPECT_NEAR(p.dhrystone.stddev(8.0), 4419.0, 60.0);
  EXPECT_NEAR(p.whetstone.mean(8.0), 2975.0, 35.0);
  EXPECT_NEAR(p.whetstone.stddev(8.0), 868.0, 15.0);
  EXPECT_NEAR(p.disk_gb.mean(8.0), 272.0, 4.0);
  EXPECT_NEAR(p.disk_gb.stddev(8.0), 434.5, 8.0);
}

TEST(PaperParams, MemoryChainCoversPublishedValues) {
  const ModelParams p = paper_params();
  EXPECT_EQ(p.memory_per_core_mb.values,
            (std::vector<double>{256, 512, 768, 1024, 1536, 2048, 4096}));
  EXPECT_EQ(p.memory_per_core_mb.ratios.size(), 6u);
}

TEST(PaperParams, CorrelationMatrixIsPaperR) {
  const ModelParams p = paper_params();
  EXPECT_DOUBLE_EQ(p.resource_correlation(0, 1), 0.250);
  EXPECT_DOUBLE_EQ(p.resource_correlation(0, 2), 0.306);
  EXPECT_DOUBLE_EQ(p.resource_correlation(1, 2), 0.639);
}

TEST(PaperParams, Validates) { EXPECT_NO_THROW(paper_params().validate()); }

TEST(ModelParams, SerializationRoundTrip) {
  const ModelParams p = paper_params();
  const ModelParams q = ModelParams::deserialize(p.serialize());
  EXPECT_EQ(q.cores.values, p.cores.values);
  EXPECT_EQ(q.memory_per_core_mb.values, p.memory_per_core_mb.values);
  for (std::size_t i = 0; i < p.cores.ratios.size(); ++i) {
    EXPECT_DOUBLE_EQ(q.cores.ratios[i].a, p.cores.ratios[i].a);
    EXPECT_DOUBLE_EQ(q.cores.ratios[i].b, p.cores.ratios[i].b);
  }
  EXPECT_DOUBLE_EQ(q.dhrystone.mean_law.a, p.dhrystone.mean_law.a);
  EXPECT_DOUBLE_EQ(q.disk_gb.variance_law.b, p.disk_gb.variance_law.b);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(q.resource_correlation(r, c),
                       p.resource_correlation(r, c));
    }
  }
}

// tests/core/data/model_v1.txt is a committed model file, written by
// core::paper_params().serialize(). A reader that refuses it, or a writer
// that does not reproduce it from what the reader loaded, has changed the
// model.txt format; so has a paper_params() that no longer serializes to
// it. Either change re-pins the fixture on purpose.
TEST(ModelParams, GoldenFixtureLoadsAndRewritesByteIdentically) {
  std::ifstream in(RESMODEL_MODEL_FIXTURE);
  ASSERT_TRUE(in.good());
  std::ostringstream fixture;
  fixture << in.rdbuf();
  ASSERT_FALSE(fixture.str().empty());
  EXPECT_EQ(ModelParams::deserialize(fixture.str()).serialize(),
            fixture.str());
  EXPECT_EQ(paper_params().serialize(), fixture.str());
}

TEST(ModelParams, DeserializeRejectsGarbage) {
  EXPECT_THROW(ModelParams::deserialize("model = other\n"),
               std::runtime_error);
  EXPECT_THROW(ModelParams::deserialize(""), std::runtime_error);
}

TEST(ModelParams, ValidateRejectsBadCorrelation) {
  ModelParams p = paper_params();
  p.resource_correlation(0, 1) = 2.0;  // breaks symmetry and PD
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::core
