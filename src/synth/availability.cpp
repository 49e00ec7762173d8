#include "synth/availability.h"

#include <math.h>

#include <cmath>
#include <stdexcept>

#include "stats/distributions.h"

namespace resmodel::synth {

void AvailabilityParams::validate() const {
  if (!(on_weibull_k > 0.0) || !(on_weibull_lambda > 0.0)) {
    throw std::invalid_argument(
        "AvailabilityParams: ON Weibull parameters must be > 0");
  }
  if (!(off_lognormal_sigma > 0.0)) {
    throw std::invalid_argument(
        "AvailabilityParams: OFF log-normal sigma must be > 0");
  }
}

AvailabilityModel::AvailabilityModel(AvailabilityParams params)
    : params_(params) {
  params_.validate();
}

double AvailabilityModel::expected_availability() const noexcept {
  // The reentrant lgamma_r: the stationary timeline fill calls this from
  // worker threads, and lgamma writes the global signgam. Both compute
  // through the same glibc kernel, so the value is unchanged.
  int sign = 0;
  const double mean_on =
      params_.on_weibull_lambda *
      std::exp(::lgamma_r(1.0 + 1.0 / params_.on_weibull_k, &sign));
  const double mean_off =
      std::exp(params_.off_lognormal_mu +
               params_.off_lognormal_sigma * params_.off_lognormal_sigma / 2.0);
  return mean_on / (mean_on + mean_off);
}

std::vector<AvailabilityInterval> AvailabilityModel::generate(
    double start_day, double end_day, util::Rng& rng, StartMode mode) const {
  std::vector<AvailabilityInterval> intervals;
  if (!(end_day > start_day)) return intervals;
  const stats::WeibullDist on_dist(params_.on_weibull_k,
                                   params_.on_weibull_lambda);
  const stats::LogNormalDist off_dist(params_.off_lognormal_mu,
                                      params_.off_lognormal_sigma);
  double clock = start_day;
  // < 0 means "no residual pending"; >= 0 is the residual first ON length.
  double residual_on = -1.0;
  if (mode == StartMode::kStationary) {
    // An inspection at an arbitrary instant finds the host ON with the
    // long-run probability E[on] / (E[on] + E[off]), partway through the
    // current session. The residual is a uniform fraction of a fresh
    // duration — a pragmatic stand-in for the exact equilibrium residual
    // law S(r)/E[L], which has no closed form for Weibull/log-normal.
    // Hoisted locals: both factors draw from the same rng and operand
    // evaluation order of `*` is unspecified — the stream must not
    // depend on the compiler.
    if (rng.uniform() < expected_availability()) {
      const double fresh = on_dist.sample(rng);
      residual_on = std::max(1e-6, fresh * rng.uniform());
    } else {
      const double fresh = off_dist.sample(rng);
      clock += std::max(1e-6, fresh * rng.uniform());
    }
  }
  while (clock < end_day) {
    const double on_len =
        residual_on >= 0.0 ? residual_on : std::max(1e-6, on_dist.sample(rng));
    residual_on = -1.0;
    AvailabilityInterval interval;
    interval.start_day = clock;
    interval.end_day = std::min(end_day, clock + on_len);
    intervals.push_back(interval);
    clock += on_len;
    if (clock >= end_day) break;
    clock += std::max(1e-6, off_dist.sample(rng));
  }
  return intervals;
}

double availability_fraction(const std::vector<AvailabilityInterval>& on,
                             double start_day, double end_day) noexcept {
  if (!(end_day > start_day)) return 0.0;
  double covered = 0.0;
  for (const AvailabilityInterval& interval : on) {
    const double lo = std::max(interval.start_day, start_day);
    const double hi = std::min(interval.end_day, end_day);
    if (hi > lo) covered += hi - lo;
  }
  return covered / (end_day - start_day);
}

std::optional<double> next_available_time(
    const std::vector<AvailabilityInterval>& on, double day) noexcept {
  for (const AvailabilityInterval& interval : on) {
    if (interval.contains(day)) return day;
    if (interval.start_day >= day) return interval.start_day;
  }
  return std::nullopt;
}

}  // namespace resmodel::synth
