// Integration tests spanning the whole pipeline:
//   synth trace -> fit -> generate -> validate   (the paper's main loop)
//   boinc collection -> fit                       (Section IV end to end)
//   fit -> serialize -> reload -> generate        (the public tool's flow)
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "boinc/simulation.h"
#include "core/fit_pipeline.h"
#include "core/host_generator.h"
#include "core/validation.h"
#include "sim/experiment.h"
#include "synth/population.h"
#include "trace/csv_io.h"

namespace resmodel {
namespace {

const trace::TraceStore& ground_truth() {
  static const trace::TraceStore kTrace = [] {
    synth::PopulationConfig config;
    config.seed = 424242;
    config.target_active_hosts = 5000;
    trace::TraceStore store = synth::generate_population(config);
    // The paper discards implausible records (§V-B) before any analysis;
    // do the same to the ground truth used for direct comparisons.
    store.discard_implausible();
    return store;
  }();
  return kTrace;
}

const core::FitReport& fitted() {
  static const core::FitReport kReport = core::fit_model(ground_truth());
  return kReport;
}

TEST(EndToEnd, FittedModelValidatesAgainstHeldOutDate) {
  // Fit on 2006-2010 snapshots, generate for September 2010 (outside the
  // fitting window) and compare to the trace — the paper's §VI-B check.
  const core::HostGenerator generator(fitted().params);
  const auto sep2010 = util::ModelDate::from_ymd(2010, 9, 1);
  const trace::ResourceSnapshot actual = ground_truth().snapshot(sep2010);
  ASSERT_GT(actual.size(), 1000u);
  util::Rng rng(1);
  const auto generated =
      generator.generate_batch(sep2010, actual.size(), rng);
  const auto comparisons = core::compare_resources(actual, generated);
  // The paper reports mean differences of 0.5%-13%; allow up to 20% per
  // resource on the synthetic loop.
  for (const core::ResourceComparison& c : comparisons) {
    EXPECT_LT(c.mean_diff_fraction, 0.20) << c.name;
    EXPECT_LT(c.stddev_diff_fraction, 0.40) << c.name;
  }
}

TEST(EndToEnd, GeneratedCorrelationsMatchTrace) {
  const core::HostGenerator generator(fitted().params);
  util::Rng rng(2);
  const auto generated = generator.generate_batch(
      util::ModelDate::from_ymd(2010, 9, 1), 30000, rng);
  const stats::Matrix gen_corr =
      core::generated_correlation_matrix(generated);
  const stats::Matrix& actual_corr = fitted().full_correlation;
  // Headline structure: cores-memory and whet-dhry strongly positive,
  // disk uncorrelated — within 0.2 of the trace values (Table VIII vs
  // Table III in the paper shows comparable gaps).
  EXPECT_NEAR(gen_corr(0, 1), actual_corr(0, 1), 0.2);
  EXPECT_NEAR(gen_corr(3, 4), actual_corr(3, 4), 0.2);
  EXPECT_LT(std::fabs(gen_corr(5, 1)), 0.1);
}

TEST(EndToEnd, ModelSurvivesSerializationRoundTrip) {
  const std::string text = fitted().params.serialize();
  const core::ModelParams reloaded = core::ModelParams::deserialize(text);
  const core::HostGenerator a(fitted().params);
  const core::HostGenerator b(reloaded);
  util::Rng rng_a(3), rng_b(3);
  const auto date = util::ModelDate::from_ymd(2012, 1, 1);
  const auto hosts_a = a.generate_many(date, 50, rng_a);
  const auto hosts_b = b.generate_many(date, 50, rng_b);
  for (std::size_t i = 0; i < hosts_a.size(); ++i) {
    EXPECT_EQ(hosts_a[i].n_cores, hosts_b[i].n_cores);
    EXPECT_DOUBLE_EQ(hosts_a[i].whetstone_mips, hosts_b[i].whetstone_mips);
  }
}

TEST(EndToEnd, TraceSurvivesCsvRoundTripAndRefits) {
  std::stringstream buffer;
  trace::write_csv(ground_truth(), buffer);
  const trace::TraceStore reloaded = trace::read_csv(buffer);
  ASSERT_EQ(reloaded.size(), ground_truth().size());
  const core::FitReport refit = core::fit_model(reloaded);
  EXPECT_DOUBLE_EQ(refit.core_ratios[0].law.a, fitted().core_ratios[0].law.a);
  EXPECT_DOUBLE_EQ(refit.dhrystone_mean.law.b, fitted().dhrystone_mean.law.b);
}

TEST(EndToEnd, BoincCollectionFeedsFittingPipeline) {
  boinc::CollectionConfig config;
  config.population.seed = 77;
  config.population.target_active_hosts = 800;
  config.client.mean_contact_interval_days = 5.0;
  const boinc::CollectionResult collected = boinc::run_collection(config);

  const core::FitReport report = core::fit_model(collected.trace);
  // The collected trace carries the same hardware population, so the
  // fitted laws must resemble the published ones in sign and rough size.
  EXPECT_LT(report.core_ratios[0].law.b, -0.2);   // 1:2 decays
  EXPECT_GT(report.dhrystone_mean.law.b, 0.08);   // speeds grow
  EXPECT_GT(report.disk_mean.law.b, 0.1);         // disks grow
  EXPECT_NO_THROW(report.params.validate());
}

TEST(EndToEnd, UtilityExperimentRanksCorrelatedFirst) {
  // Figure 15's qualitative outcome on the synthetic loop: averaged over
  // apps and months, the correlated model is closer to the actual
  // allocation than both baselines.
  const sim::CorrelatedModel correlated(fitted().params);
  const auto normal = sim::NormalDistributionModel::fit(
      ground_truth(), {util::ModelDate::from_ymd(2006, 1, 1),
                       util::ModelDate::from_ymd(2007, 1, 1),
                       util::ModelDate::from_ymd(2008, 1, 1),
                       util::ModelDate::from_ymd(2009, 1, 1),
                       util::ModelDate::from_ymd(2010, 1, 1)});
  const sim::GridResourceModel grid(fitted().params, 0.5);
  const std::vector<const sim::HostSynthesisModel*> models = {
      &correlated, &normal, &grid};
  util::Rng rng(4);
  const std::vector<util::ModelDate> dates = {
      util::ModelDate::from_ymd(2010, 2, 1),
      util::ModelDate::from_ymd(2010, 6, 1)};
  const sim::UtilityExperimentResult result = sim::run_utility_experiment(
      ground_truth(), models, sim::paper_applications(), dates, rng);

  std::vector<double> avg(models.size(), 0.0);
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const auto& app_series : result.diff_percent[m]) {
      for (double d : app_series) avg[m] += d;
    }
  }
  EXPECT_LT(avg[0], avg[1]);  // correlated beats normal
  EXPECT_LT(avg[0], avg[2]);  // correlated beats grid
}

}  // namespace
}  // namespace resmodel
