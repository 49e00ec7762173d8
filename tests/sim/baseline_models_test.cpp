#include "sim/baseline_models.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "synth/population.h"
#include "util/checksum.h"

namespace resmodel::sim {
namespace {

const trace::TraceStore& shared_trace() {
  static const trace::TraceStore kTrace = [] {
    synth::PopulationConfig config;
    config.seed = 99;
    config.target_active_hosts = 2500;
    return synth::generate_population(config);
  }();
  return kTrace;
}

std::vector<util::ModelDate> yearly_dates() {
  std::vector<util::ModelDate> dates;
  for (int y = 2006; y <= 2010; ++y) {
    dates.push_back(util::ModelDate::from_ymd(y, 1, 1));
  }
  return dates;
}

TEST(FromSnapshot, PreservesColumns) {
  const auto snap = shared_trace().snapshot(util::ModelDate::from_ymd(2009, 1, 1));
  const HostResourcesSoA hosts = HostResourcesSoA::from_snapshot(snap);
  ASSERT_EQ(hosts.size(), snap.size());
  EXPECT_DOUBLE_EQ(hosts.cores[0], snap.cores[0]);
  EXPECT_DOUBLE_EQ(hosts.disk_avail_gb[0], snap.disk_avail_gb[0]);
}

// Pins every value synthesize_soa draws or derives: each model's ten
// columns (five raw, five log) for one date, count and seed, as CRC32C
// digests of the column bytes. A change to any model's draw order, clamp,
// formula or log column moves a digest; re-pin only on purpose.
TEST(SynthesizeSoA, ColumnsArePinned) {
  struct Case {
    const HostSynthesisModel* model;
    std::uint32_t digests[10];
  };
  const CorrelatedModel correlated(core::paper_params());
  const auto normal =
      NormalDistributionModel::fit(shared_trace(), yearly_dates());
  const GridResourceModel grid(core::paper_params(), 1.5);
  const Case cases[] = {
      {&correlated,
       {0xf8ee10e1, 0xa4367b1a, 0xb27139ab, 0x8032ea2e, 0xb1e08071,
        0xd919561f, 0x80de6ce7, 0x842f55a8, 0xbe3d0219, 0x645abf2c}},
      {&normal,
       {0xcf751c49, 0x842e67d2, 0xa59267c1, 0x6ae95594, 0x0ee1b193,
        0xe2536b94, 0x967d98d8, 0x3341f046, 0x45ad2046, 0x478f4035}},
      {&grid,
       {0x6896bf90, 0x81673f5b, 0x38a2e05f, 0x533b17eb, 0x0c6afe37,
        0x9e3eb9eb, 0x2948a373, 0x1eea79e4, 0x1a79eb7c, 0x8043308d}},
  };
  const auto date = util::ModelDate::from_ymd(2010, 6, 1);
  for (const Case& c : cases) {
    util::Rng rng(77);
    const HostResourcesSoA soa = c.model->synthesize_soa(date, 400, rng);
    ASSERT_EQ(soa.size(), 400u) << c.model->name();
    ASSERT_TRUE(soa.logs_ready()) << c.model->name();
    const std::vector<double>* columns[10] = {
        &soa.cores,          &soa.memory_mb,          &soa.dhrystone_mips,
        &soa.whetstone_mips, &soa.disk_avail_gb,      &soa.log_cores,
        &soa.log_memory_mb,  &soa.log_dhrystone_mips, &soa.log_whetstone_mips,
        &soa.log_disk_avail_gb};
    for (int k = 0; k < 10; ++k) {
      EXPECT_EQ(util::crc32c(columns[k]->data(),
                             columns[k]->size() * sizeof(double)),
                c.digests[k])
          << c.model->name() << " column " << k;
    }
  }
}

TEST(CorrelatedModel, PreservesResourceCorrelations) {
  const CorrelatedModel model(core::paper_params());
  util::Rng rng(1);
  const HostResourcesSoA h =
      model.synthesize_soa(util::ModelDate::from_ymd(2010, 6, 1), 30000, rng);
  EXPECT_GT(stats::pearson(h.cores, h.memory_mb), 0.5);
  EXPECT_GT(stats::pearson(h.whetstone_mips, h.dhrystone_mips), 0.35);
}

TEST(NormalModel, ProducesUncorrelatedResources) {
  const auto model = NormalDistributionModel::fit(shared_trace(), yearly_dates());
  util::Rng rng(2);
  const HostResourcesSoA h =
      model.synthesize_soa(util::ModelDate::from_ymd(2010, 6, 1), 30000, rng);
  EXPECT_LT(std::fabs(stats::pearson(h.cores, h.memory_mb)), 0.05);
  EXPECT_LT(std::fabs(stats::pearson(h.whetstone_mips, h.dhrystone_mips)),
            0.05);
}

TEST(NormalModel, MeansTrackActualData) {
  const auto model = NormalDistributionModel::fit(shared_trace(), yearly_dates());
  util::Rng rng(3);
  const auto date = util::ModelDate::from_ymd(2010, 1, 1);
  const HostResourcesSoA h = model.synthesize_soa(date, 30000, rng);
  const auto snap = shared_trace().snapshot(date);
  // The linear extrapolation is anchored on the actual yearly means, so at
  // a grid date the synthesized means should be close (clamping biases
  // cores slightly upward).
  EXPECT_NEAR(stats::mean(h.memory_mb), stats::mean(snap.memory_mb),
              stats::mean(snap.memory_mb) * 0.12);
  EXPECT_NEAR(stats::mean(h.whetstone_mips), stats::mean(snap.whetstone_mips),
              stats::mean(snap.whetstone_mips) * 0.10);
}

TEST(NormalModel, AllResourcesPositive) {
  const auto model = NormalDistributionModel::fit(shared_trace(), yearly_dates());
  util::Rng rng(4);
  for (const HostResources& h :
       model.synthesize_soa(util::ModelDate::from_ymd(2006, 1, 1), 5000, rng)
           .to_hosts()) {
    ASSERT_GE(h.cores, 1.0);
    ASSERT_GT(h.memory_mb, 0.0);
    ASSERT_GT(h.whetstone_mips, 0.0);
    ASSERT_GT(h.dhrystone_mips, 0.0);
    ASSERT_GT(h.disk_avail_gb, 0.0);
  }
}

TEST(NormalModel, CoresAreIntegers) {
  const auto model = NormalDistributionModel::fit(shared_trace(), yearly_dates());
  util::Rng rng(5);
  for (const HostResources& h :
       model.synthesize_soa(util::ModelDate::from_ymd(2010, 1, 1), 1000, rng)
           .to_hosts()) {
    ASSERT_DOUBLE_EQ(h.cores, std::round(h.cores));
  }
}

TEST(GridModel, OverestimatesAvailableDisk) {
  // The Kee model tracks total capacity, so its "available disk"
  // systematically exceeds the correlated model's (the Figure-15 P2P
  // effect).
  const GridResourceModel grid(core::paper_params(), 0.5);
  const CorrelatedModel correlated(core::paper_params());
  util::Rng rng_a(6), rng_b(7);
  const auto date = util::ModelDate::from_ymd(2010, 6, 1);
  const HostResourcesSoA grid_hosts = grid.synthesize_soa(date, 20000, rng_a);
  const HostResourcesSoA corr_hosts =
      correlated.synthesize_soa(date, 20000, rng_b);
  EXPECT_GT(stats::mean(grid_hosts.disk_avail_gb),
            1.4 * stats::mean(corr_hosts.disk_avail_gb));
}

TEST(GridModel, AgeMixtureLowersMeansVsFreshHosts) {
  const GridResourceModel grid(core::paper_params(), 0.6);
  const CorrelatedModel fresh(core::paper_params());
  util::Rng rng_a(8), rng_b(9);
  const auto date = util::ModelDate::from_ymd(2010, 6, 1);
  const HostResourcesSoA grid_hosts = grid.synthesize_soa(date, 20000, rng_a);
  const HostResourcesSoA fresh_hosts = fresh.synthesize_soa(date, 20000, rng_b);
  EXPECT_LT(stats::mean(grid_hosts.whetstone_mips),
            stats::mean(fresh_hosts.whetstone_mips));
}

TEST(GridModel, MemoryIsPowerOfTwoPerCore) {
  const GridResourceModel grid(core::paper_params(), 0.5);
  util::Rng rng(10);
  for (const HostResources& h :
       grid.synthesize_soa(util::ModelDate::from_ymd(2009, 1, 1), 2000, rng)
           .to_hosts()) {
    const double per_core = h.memory_mb / h.cores;
    const double log2v = std::log2(per_core);
    ASSERT_NEAR(log2v, std::round(log2v), 1e-9) << per_core;
  }
}

TEST(GridModel, NamesAreStable) {
  EXPECT_EQ(CorrelatedModel(core::paper_params()).name(), "Correlated Model");
  EXPECT_EQ(GridResourceModel(core::paper_params(), 0.5).name(), "Grid Model");
  const auto normal =
      NormalDistributionModel::fit(shared_trace(), yearly_dates());
  EXPECT_EQ(normal.name(), "Normal Distribution Model");
}

}  // namespace
}  // namespace resmodel::sim
