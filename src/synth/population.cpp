#include "synth/population.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/host_generator.h"
#include "stats/distributions.h"
#include "synth/categorical_trends.h"

namespace resmodel::synth {

namespace {

// Intermediate per-core-memory values the paper observed but excluded from
// its discrete model (e.g. 1280 MB, 1792 MB). Emitting them exercises the
// fitting pipeline's snap-or-drop logic.
constexpr double kIntermediateMemoryMb[] = {384, 640, 1280, 1792, 3072};

// Corruption modes for implausible records (§V-B: >128 cores, >1e5 MIPS,
// >100 GB memory, >1e4 GB disk).
enum class Corruption { kCores, kWhetstone, kDhrystone, kMemory, kDisk };

void corrupt_record(trace::HostRecord& h, util::Rng& rng) {
  switch (static_cast<Corruption>(rng.uniform_index(5))) {
    case Corruption::kCores:
      h.n_cores = 129 + static_cast<int>(rng.uniform_index(900));
      break;
    case Corruption::kWhetstone:
      h.whetstone_mips = 1.1e5 * (1.0 + rng.uniform());
      break;
    case Corruption::kDhrystone:
      h.dhrystone_mips = 1.1e5 * (1.0 + rng.uniform());
      break;
    case Corruption::kMemory:
      h.memory_mb = 1.1e5 * (1.0 + rng.uniform());
      break;
    case Corruption::kDisk:
      h.disk_avail_gb = 1.1e4 * (1.0 + rng.uniform());
      break;
  }
}

}  // namespace

double lifetime_lambda(const PopulationConfig& config, double t) noexcept {
  return config.lifetime_lambda_2006 *
         std::exp(-config.lifetime_lambda_decay * t);
}

std::uint64_t sample_poisson(util::Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until below e^-mean.
    const double limit = std::exp(-mean);
    double product = rng.uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      product *= rng.uniform();
      ++count;
    }
    return count;
  }
  // Normal approximation with continuity correction.
  const double v = rng.normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

util::ModelDate effective_hardware_date(const PopulationConfig& config,
                                        util::ModelDate created) noexcept {
  return util::ModelDate::from_year(created.year() +
                                    config.resource_lead_years);
}

trace::HostRecord finish_host(const PopulationConfig& config,
                              const core::GeneratedHost& hw,
                              util::ModelDate created, std::uint64_t id,
                              util::Rng& rng) {
  const double t = created.t();
  trace::HostRecord h;
  h.id = id;
  h.created_day = created.day_index();

  // Lifetime: Weibull with date-dependent scale (Figure 1 + Figure 3).
  const stats::WeibullDist lifetime(config.lifetime_k,
                                    std::max(1.0, lifetime_lambda(config, t)));
  const double days = lifetime.sample(rng);
  h.last_contact_day =
      h.created_day + static_cast<std::int32_t>(std::llround(days));

  const util::ModelDate effective = effective_hardware_date(config, created);
  h.n_cores = hw.n_cores;
  h.memory_mb = hw.memory_mb;
  h.whetstone_mips = hw.whetstone_mips;
  h.dhrystone_mips = hw.dhrystone_mips;
  h.disk_avail_gb = hw.disk_avail_gb;

  // Benchmark measurement noise (multiplicative log-normal).
  if (config.benchmark_noise_sigma > 0.0) {
    h.whetstone_mips *=
        std::exp(rng.normal(0.0, config.benchmark_noise_sigma));
    h.dhrystone_mips *=
        std::exp(rng.normal(0.0, config.benchmark_noise_sigma));
  }

  // A small share of non-power-of-two core counts (excluded by the model).
  if (rng.uniform() < config.odd_core_fraction) {
    h.n_cores = rng.uniform() < 0.5 ? 3 : 6;
    h.memory_mb = hw.memory_per_core_mb * h.n_cores;
  }

  // A share of off-grid per-core-memory values (snapped/dropped by the
  // fitting pipeline, as in the real data).
  if (rng.uniform() < config.intermediate_memory_fraction) {
    const double per_core = kIntermediateMemoryMb[rng.uniform_index(
        std::size(kIntermediateMemoryMb))];
    h.memory_mb = per_core * h.n_cores;
  }

  // Total disk: available fraction is uniform (§V-G).
  const double avail_fraction = rng.uniform(
      config.min_avail_disk_fraction, config.max_avail_disk_fraction);
  h.disk_total_gb = h.disk_avail_gb / avail_fraction;

  // Categorical attributes. Hardware mixes are sampled at the same
  // lead-corrected date so active-population shares track the tables.
  const double te = effective.t();
  h.cpu = static_cast<trace::CpuFamily>(cpu_family_trend().sample(te, rng));
  h.os = static_cast<trace::OsFamily>(os_family_trend().sample(te, rng));

  // GPU reporting (Table VII / Fig 10), post-Sep-2009 adoption curve.
  if (rng.uniform() < gpu_adoption_fraction(te)) {
    h.gpu = static_cast<trace::GpuType>(1 + gpu_type_trend().sample(te, rng));
    const std::vector<double>& values = gpu_memory_values_mb();
    const std::vector<double> pmf = gpu_memory_pmf(te);
    const double u = rng.uniform();
    double acc = 0.0;
    h.gpu_memory_mb = values.back();
    for (std::size_t i = 0; i < pmf.size(); ++i) {
      acc += pmf[i];
      if (u <= acc) {
        h.gpu_memory_mb = values[i];
        break;
      }
    }
  }

  // Corrupt a small share of records so the plausibility filter has work.
  if (rng.uniform() < config.corrupt_fraction) {
    corrupt_record(h, rng);
  }
  return h;
}

trace::TraceStore generate_population(const PopulationConfig& config) {
  util::Rng rng(config.seed);
  const core::HostGenerator generator(config.model);

  // Steady-state arrival rate: active ~= rate * E[lifetime], so
  // rate(t) = target / (lambda(t) * Gamma(1 + 1/k)), modulated seasonally.
  const double gamma_factor =
      std::exp(std::lgamma(1.0 + 1.0 / config.lifetime_k));

  trace::TraceStore store;
  const std::int32_t end_day = config.sim_end.day_index();
  std::uint64_t next_id = 1;
  for (std::int32_t day = config.sim_start.day_index(); day <= end_day;
       ++day) {
    const util::ModelDate date = util::ModelDate::from_day_index(day);
    const double t = date.t();
    const double mean_lifetime = lifetime_lambda(config, t) * gamma_factor;
    double rate = static_cast<double>(config.target_active_hosts) /
                  std::max(1.0, mean_lifetime);
    rate *= 1.0 + config.seasonal_amplitude *
                      std::sin(2.0 * std::numbers::pi * (t - 0.2));
    // One SoA batch for the whole day's cohort (they share the effective
    // hardware date), then per-host wrap-up.
    const std::uint64_t arrivals = sample_poisson(rng, rate);
    const core::GeneratedHostBatch hw = generator.generate_batch(
        effective_hardware_date(config, date), arrivals, rng);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      trace::HostRecord h =
          finish_host(config, hw.host(i), date, next_id++, rng);
      // The trace can only record contacts up to the collection end.
      h.last_contact_day = std::min(h.last_contact_day, end_day);
      store.add(h);
    }
  }
  return store;
}

}  // namespace resmodel::synth
