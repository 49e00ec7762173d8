#include "core/prediction.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace resmodel::core {
namespace {

TEST(PredictedCoreFractions, ColumnsAreDistributions) {
  const ModelParams p = paper_params();
  const std::vector<double> ts = {3.0, 5.0, 8.0};
  const auto fractions = predicted_core_fractions(p, ts);
  ASSERT_EQ(fractions.size(), p.cores.values.size());
  for (std::size_t j = 0; j < ts.size(); ++j) {
    double total = 0.0;
    for (const auto& row : fractions) total += row[j];
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(PredictedCoreFractions, SingleCoreVanishesBy2014) {
  // Figure 13: "the number of single core hosts decreases to a negligible
  // fraction within three years".
  const ModelParams p = paper_params();
  const auto fractions = predicted_core_fractions(p, {8.0});
  EXPECT_LT(fractions[0][0], 0.05);
}

TEST(PredictedCoreFractions, TwoCoreStillLargeIn2014) {
  // Figure 13: 2-core hosts "comprise roughly 40% of the total by 2014".
  const ModelParams p = paper_params();
  const auto fractions = predicted_core_fractions(p, {8.0});
  EXPECT_NEAR(fractions[1][0], 0.40, 0.10);
}

TEST(PredictedMeanCores, PaperValue2014) {
  EXPECT_NEAR(predicted_mean_cores(paper_params(), 8.0), 4.6, 0.25);
}

TEST(PredictedMemoryDistribution, IsSortedDistribution) {
  const ModelParams p = paper_params();
  const auto dist = predicted_memory_distribution(p, 4.0);
  ASSERT_FALSE(dist.empty());
  double total = 0.0;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    total += dist[i].probability;
    if (i > 0) {
      EXPECT_GT(dist[i].memory_mb, dist[i - 1].memory_mb);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PredictedMeanMemory, PaperValue2014Is68GB) {
  // §VI-C: "This prediction indicates an average of 6.8 GB per host by
  // 2014". Reproduces with the §V-E six-value memory chain; the full
  // Table-X chain (with the 2GB:4GB ratio) predicts ~8.1 GB instead.
  const ModelParams six = with_memory_capped(paper_params(), 2048.0);
  EXPECT_NEAR(predicted_mean_memory_mb(six, 8.0) / 1024.0, 6.8, 0.7);
  EXPECT_NEAR(predicted_mean_memory_mb(paper_params(), 8.0) / 1024.0, 8.1,
              0.7);
}

TEST(WithMemoryCapped, TruncatesChainAndValidates) {
  const ModelParams six = with_memory_capped(paper_params(), 2048.0);
  EXPECT_EQ(six.memory_per_core_mb.values.back(), 2048.0);
  EXPECT_EQ(six.memory_per_core_mb.ratios.size(), 5u);
  // Core chain untouched.
  EXPECT_EQ(six.cores.values, paper_params().cores.values);
}

TEST(PredictedMemoryCdf, MonotoneInThreshold) {
  const ModelParams p = paper_params();
  const std::vector<double> thresholds = {1024, 2048, 4096, 8192};
  const auto cdf = predicted_memory_cdf_at(p, 6.0, thresholds);
  ASSERT_EQ(cdf.size(), 4u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  EXPECT_LE(cdf.back(), 1.0 + 1e-12);
}

TEST(PredictedMemoryCdf, SmallMemoryHostsVanishOverTime) {
  const ModelParams p = paper_params();
  const auto now = predicted_memory_cdf_at(p, 3.0, {1024.0});
  const auto later = predicted_memory_cdf_at(p, 8.0, {1024.0});
  EXPECT_LT(later[0], now[0]);
}

TEST(PredictedMoments, MatchLawsDirectly) {
  const ModelParams p = paper_params();
  const MomentPrediction d = predicted_dhrystone(p, 8.0);
  EXPECT_NEAR(d.mean, p.dhrystone.mean(8.0), 1e-9);
  EXPECT_NEAR(d.stddev, p.dhrystone.stddev(8.0), 1e-9);
  const MomentPrediction w = predicted_whetstone(p, 8.0);
  EXPECT_NEAR(w.mean, 2975.0, 35.0);  // paper's 2014 prediction
  const MomentPrediction disk = predicted_disk_gb(p, 8.0);
  EXPECT_NEAR(disk.mean, 272.0, 4.0);
}

TEST(QuantileHost, MedianHostIsModest) {
  const ModelParams p = paper_params();
  const QuantileHost median = predicted_quantile_host(p, 4.0, 0.5);
  EXPECT_GE(median.cores, 1.0);
  EXPECT_LE(median.cores, 4.0);
  EXPECT_GT(median.memory_mb, 0.0);
  EXPECT_GT(median.disk_avail_gb, 0.0);
}

TEST(QuantileHost, BestBeatsWorstEverywhere) {
  const ModelParams p = paper_params();
  const QuantileHost best = predicted_quantile_host(p, 4.0, 0.99);
  const QuantileHost worst = predicted_quantile_host(p, 4.0, 0.01);
  EXPECT_GT(best.cores, worst.cores);
  EXPECT_GT(best.memory_mb, worst.memory_mb);
  EXPECT_GT(best.whetstone_mips, worst.whetstone_mips);
  EXPECT_GT(best.dhrystone_mips, worst.dhrystone_mips);
  EXPECT_GT(best.disk_avail_gb, worst.disk_avail_gb);
}

TEST(QuantileHost, ResourcesNonNegativeAtLowQuantiles) {
  const ModelParams p = paper_params();
  const QuantileHost h = predicted_quantile_host(p, 0.0, 0.001);
  EXPECT_GT(h.whetstone_mips, 0.0);
  EXPECT_GT(h.dhrystone_mips, 0.0);
  EXPECT_GT(h.disk_avail_gb, 0.0);
}

}  // namespace
}  // namespace resmodel::core
