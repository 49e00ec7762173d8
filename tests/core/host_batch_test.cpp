// The batched structure-of-arrays generation engine: equivalence with the
// per-host path, deterministic parallelism, and pluggable correlation
// models end to end.
#include <gtest/gtest.h>

#include <memory>

#include "core/host_generator.h"
#include "model/empirical_rank_copula.h"
#include "model/independent.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "util/rng.h"

namespace resmodel::core {
namespace {

const HostGenerator& paper_generator() {
  static const HostGenerator kGen(paper_params());
  return kGen;
}

void expect_same_host(const GeneratedHost& a, const GeneratedHost& b,
                      std::size_t i) {
  ASSERT_EQ(a.n_cores, b.n_cores) << i;
  ASSERT_DOUBLE_EQ(a.memory_per_core_mb, b.memory_per_core_mb) << i;
  ASSERT_DOUBLE_EQ(a.memory_mb, b.memory_mb) << i;
  ASSERT_DOUBLE_EQ(a.whetstone_mips, b.whetstone_mips) << i;
  ASSERT_DOUBLE_EQ(a.dhrystone_mips, b.dhrystone_mips) << i;
  ASSERT_DOUBLE_EQ(a.disk_avail_gb, b.disk_avail_gb) << i;
}

TEST(GeneratedHostBatch, ResizeAndRowAccess) {
  GeneratedHostBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.resize(3);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.memory_mb.size(), 3u);
  EXPECT_EQ(batch.disk_avail_gb.size(), 3u);
  batch.n_cores[1] = 4;
  batch.whetstone_mips[1] = 2000.0;
  const GeneratedHost h = batch.host(1);
  EXPECT_EQ(h.n_cores, 4);
  EXPECT_DOUBLE_EQ(h.whetstone_mips, 2000.0);
}

// The SoA engine hoists the date-dependent tables but must consume the rng
// exactly like generate(): element-wise bit-identical output.
TEST(GeneratedHostBatch, BatchMatchesPerHostGeneration) {
  const auto date = util::ModelDate::from_ymd(2009, 6, 1);
  util::Rng rng_batch(41), rng_loop(41);
  const GeneratedHostBatch batch =
      paper_generator().generate_batch(date, 3000, rng_batch);
  const std::vector<GeneratedHost> loop =
      paper_generator().generate_many(date, 3000, rng_loop);
  ASSERT_EQ(batch.size(), loop.size());
  for (std::size_t i = 0; i < loop.size(); ++i) {
    expect_same_host(batch.host(i), loop[i], i);
  }
}

// The satellite requirement: generate_batch_parallel(seed, threads=1) ==
// (threads=8).
TEST(GeneratedHostBatch, ParallelThreadCountInvariant) {
  const auto date = util::ModelDate::from_ymd(2010, 6, 1);
  const GeneratedHostBatch one =
      paper_generator().generate_batch_parallel(date, 20000, 99, 1);
  const GeneratedHostBatch eight =
      paper_generator().generate_batch_parallel(date, 20000, 99, 8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_same_host(one.host(i), eight.host(i), i);
  }
}

TEST(GeneratedHostBatch, ColumnsOfMatchesRows) {
  const auto date = util::ModelDate::from_ymd(2008, 1, 1);
  util::Rng rng(43);
  const GeneratedHostBatch batch =
      paper_generator().generate_batch(date, 500, rng);
  const trace::ResourceSnapshot cols = columns_of(batch);
  ASSERT_EQ(cols.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const GeneratedHost h = batch.host(i);
    ASSERT_EQ(cols.cores[i], static_cast<double>(h.n_cores)) << i;
    ASSERT_EQ(cols.memory_mb[i], h.memory_mb) << i;
    ASSERT_EQ(cols.memory_per_core_mb[i], h.memory_per_core_mb) << i;
    ASSERT_EQ(cols.whetstone_mips[i], h.whetstone_mips) << i;
    ASSERT_EQ(cols.dhrystone_mips[i], h.dhrystone_mips) << i;
    ASSERT_EQ(cols.disk_avail_gb[i], h.disk_avail_gb) << i;
  }
}

TEST(GeneratedHostBatch, BatchMomentsTrackLaws) {
  const ModelParams p = paper_params();
  const auto date = util::ModelDate::from_ymd(2010, 1, 1);
  const GeneratedHostBatch batch =
      paper_generator().generate_batch_parallel(date, 50000, 7, 0);
  const double t = date.t();
  const trace::ResourceSnapshot cols = columns_of(batch);
  EXPECT_NEAR(stats::mean(cols.dhrystone_mips), p.dhrystone.mean(t),
              p.dhrystone.mean(t) * 0.03);
  EXPECT_NEAR(stats::mean(cols.whetstone_mips), p.whetstone.mean(t),
              p.whetstone.mean(t) * 0.03);
}

// Plugging the Independent model removes the benchmark coupling while the
// emergent cores-memory product correlation survives — the ablation the
// paper argues from, now a one-line model swap.
TEST(HostGeneratorCorrelationModels, IndependentRemovesBenchmarkCoupling) {
  const HostGenerator gen(paper_params(),
                          std::make_shared<model::Independent>());
  EXPECT_EQ(gen.correlation().name(), "independent");
  util::Rng rng(47);
  const GeneratedHostBatch batch = gen.generate_batch(
      util::ModelDate::from_ymd(2010, 8, 1), 50000, rng);
  const trace::ResourceSnapshot cols = columns_of(batch);
  EXPECT_NEAR(stats::pearson(cols.whetstone_mips, cols.dhrystone_mips), 0.0,
              0.03);
  EXPECT_NEAR(
      stats::pearson(cols.memory_per_core_mb, cols.whetstone_mips), 0.0,
      0.03);
  EXPECT_GT(stats::pearson(cols.cores, cols.memory_mb), 0.5);
}

TEST(HostGeneratorCorrelationModels, EmpiricalReproducesRankStructure) {
  // Fit a rank copula on hosts generated by the paper's model, regenerate
  // under it, and compare the rank correlation of the benchmark pair.
  const auto date = util::ModelDate::from_ymd(2010, 8, 1);
  util::Rng rng(53);
  const GeneratedHostBatch reference =
      paper_generator().generate_batch(date, 30000, rng);
  const std::vector<std::vector<double>> cols = {
      reference.memory_per_core_mb, reference.whetstone_mips,
      reference.dhrystone_mips};
  const HostGenerator gen(
      paper_params(),
      std::make_shared<model::EmpiricalRankCopula>(
          model::EmpiricalRankCopula::fit(cols)));
  util::Rng rng2(59);
  const GeneratedHostBatch regenerated =
      gen.generate_batch(date, 30000, rng2);
  EXPECT_NEAR(stats::spearman(regenerated.whetstone_mips,
                              regenerated.dhrystone_mips),
              stats::spearman(reference.whetstone_mips,
                              reference.dhrystone_mips),
              0.05);
}

TEST(HostGeneratorCorrelationModels, RejectsWrongDimension) {
  EXPECT_THROW(HostGenerator(paper_params(),
                             std::make_shared<model::Independent>(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::core
