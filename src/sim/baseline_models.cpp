#include "sim/baseline_models.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace resmodel::sim {

namespace {
constexpr double kMinMips = 25.0;
constexpr double kMinMemoryMb = 64.0;
constexpr double kMinDiskGb = 0.01;
}  // namespace

// ------------------------------------------------------- CorrelatedModel --

CorrelatedModel::CorrelatedModel(core::ModelParams params)
    : generator_(std::move(params)) {}

CorrelatedModel::CorrelatedModel(
    core::ModelParams params,
    std::shared_ptr<const model::CorrelationModel> correlation,
    std::string display_name)
    : generator_(std::move(params), std::move(correlation)),
      name_(std::move(display_name)) {}

HostResourcesSoA CorrelatedModel::synthesize_soa(util::ModelDate date,
                                                 std::size_t count,
                                                 util::Rng& rng) const {
  return HostResourcesSoA::from_batch(
      generator_.generate_batch(date, count, rng));
}

// ----------------------------------------------- NormalDistributionModel --

NormalDistributionModel::NormalDistributionModel(LinearTrend cores,
                                                 LinearTrend memory,
                                                 LinearTrend whetstone,
                                                 LinearTrend dhrystone,
                                                 LinearTrend disk)
    : cores_(cores),
      memory_(memory),
      whetstone_(whetstone),
      dhrystone_(dhrystone),
      disk_(disk) {}

NormalDistributionModel NormalDistributionModel::fit(
    const trace::TraceStore& store,
    const std::vector<util::ModelDate>& dates) {
  std::vector<double> ts;
  std::vector<double> mean_series[5];
  std::vector<double> sd_series[5];
  for (const util::ModelDate& d : dates) {
    // The paper's §V-B plausibility filter precedes every analysis step;
    // without it a handful of corrupt records dominates the fitted moments.
    const trace::ResourceSnapshot snap = store.snapshot_plausible(d);
    if (snap.size() < 2) continue;
    ts.push_back(d.t());
    const std::vector<double>* cols[5] = {
        &snap.cores, &snap.memory_mb, &snap.whetstone_mips,
        &snap.dhrystone_mips, &snap.disk_avail_gb};
    for (int i = 0; i < 5; ++i) {
      mean_series[i].push_back(stats::mean(*cols[i]));
      sd_series[i].push_back(stats::stddev(*cols[i]));
    }
  }
  LinearTrend trends[5];
  for (int i = 0; i < 5; ++i) {
    trends[i].mean = stats::ols(ts, mean_series[i]);
    trends[i].stddev = stats::ols(ts, sd_series[i]);
  }
  return NormalDistributionModel(trends[0], trends[1], trends[2], trends[3],
                                 trends[4]);
}

HostResourcesSoA NormalDistributionModel::synthesize_soa(
    util::ModelDate date, std::size_t count, util::Rng& rng) const {
  const double t = date.t();
  const auto eval = [t](const LinearTrend& trend) {
    const double mean = trend.mean.slope * t + trend.mean.intercept;
    const double sd =
        std::max(1e-6, trend.stddev.slope * t + trend.stddev.intercept);
    return std::pair<double, double>(mean, sd);
  };
  const auto [cores_m, cores_sd] = eval(cores_);
  const auto [mem_m, mem_sd] = eval(memory_);
  const auto [whet_m, whet_sd] = eval(whetstone_);
  const auto [dhry_m, dhry_sd] = eval(dhrystone_);
  const auto [disk_m, disk_sd] = eval(disk_);
  const stats::LogNormalDist disk_dist = stats::LogNormalDist::from_moments(
      std::max(kMinDiskGb, disk_m), std::max(1e-6, disk_sd * disk_sd));

  HostResourcesSoA out;
  out.resize(count);
  // Row loop, column writes: each host takes its five draws in a row.
  for (std::size_t i = 0; i < count; ++i) {
    // Cores must be a positive integer; round the normal draw.
    out.cores[i] = std::max(1.0, std::round(rng.normal(cores_m, cores_sd)));
    out.memory_mb[i] = std::max(kMinMemoryMb, rng.normal(mem_m, mem_sd));
    out.whetstone_mips[i] = std::max(kMinMips, rng.normal(whet_m, whet_sd));
    out.dhrystone_mips[i] = std::max(kMinMips, rng.normal(dhry_m, dhry_sd));
    out.disk_avail_gb[i] = disk_dist.sample(rng);
  }
  out.precompute_logs();
  return out;
}

// ------------------------------------------------------ GridResourceModel --

GridResourceModel::GridResourceModel(core::ModelParams params,
                                     double mean_host_lifetime_years,
                                     double mean_avail_disk_fraction)
    : params_(std::move(params)),
      mean_lifetime_years_(std::max(0.05, mean_host_lifetime_years)),
      mean_avail_fraction_(
          std::clamp(mean_avail_disk_fraction, 0.05, 1.0)) {
  params_.validate();
}

HostResourcesSoA GridResourceModel::synthesize_soa(util::ModelDate date,
                                                   std::size_t count,
                                                   util::Rng& rng) const {
  const double t_now = date.t();
  HostResourcesSoA out;
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Mixture of host ages: exponential with the mean observed lifetime,
    // so the population contains both freshly purchased and old machines.
    const double age = rng.exponential(1.0 / mean_lifetime_years_);
    const double t = t_now - std::min(age, 6.0);

    // Processor count from the composition at the aged date.
    const double cores = params_.cores.quantile(t, rng.uniform());
    out.cores[i] = cores;

    // Log-normal processor speeds with our fitted moments (uncorrelated).
    const auto whet = stats::LogNormalDist::from_moments(
        std::max(kMinMips, params_.whetstone.mean(t)),
        std::max(1.0, params_.whetstone.variance(t)));
    const auto dhry = stats::LogNormalDist::from_moments(
        std::max(kMinMips, params_.dhrystone.mean(t)),
        std::max(1.0, params_.dhrystone.variance(t)));
    out.whetstone_mips[i] = whet.sample(rng);
    out.dhrystone_mips[i] = dhry.sample(rng);

    // Kee-style memory: per-processor memory is a power of two whose
    // exponent is normal around the model's per-core mean at the aged date.
    const double mean_per_core = params_.memory_per_core_mb.mean(t);
    const double k = std::round(
        rng.normal(std::log2(std::max(kMinMemoryMb, mean_per_core)), 0.8));
    const double per_core =
        std::clamp(std::exp2(k), kMinMemoryMb, 8.0 * 1024.0);
    out.memory_mb[i] = per_core * cores;

    // Exponential disk *capacity* growth; dividing the available-space law
    // by the mean available fraction models total capacity, which is what
    // Kee et al. track — hence the systematic overestimate of available
    // space the paper observes for the P2P application.
    const double capacity_mean =
        std::max(kMinDiskGb, params_.disk_gb.mean(t) / mean_avail_fraction_);
    const double capacity_var = std::max(
        1e-6, params_.disk_gb.variance(t) /
                  (mean_avail_fraction_ * mean_avail_fraction_));
    out.disk_avail_gb[i] =
        stats::LogNormalDist::from_moments(capacity_mean, capacity_var)
            .sample(rng);
  }
  out.precompute_logs();
  return out;
}

}  // namespace resmodel::sim
