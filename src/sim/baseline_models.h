// The three host-synthesis models compared in §VII (Figure 15):
//
//  - CorrelatedModel: the paper's contribution (core::HostGenerator).
//  - NormalDistributionModel: linear extrapolation of the Figure-2 resource
//    means/stddevs, each resource sampled from an *uncorrelated* normal
//    (log-normal for disk).
//  - GridResourceModel: Kee et al. (SC'04) re-parameterized with our fitted
//    values "where appropriate": log-normal processor speeds, a time- and
//    processor-dependent power-of-two memory model, an exponential growth
//    model of disk space (which models *total* capacity and therefore
//    overestimates available space), and a mixture of host ages based on
//    the average host lifetime.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/host_generator.h"
#include "core/model_params.h"
#include "model/correlation_model.h"
#include "sim/host_soa.h"
#include "stats/regression.h"
#include "trace/trace_store.h"
#include "util/model_date.h"
#include "util/rng.h"

namespace resmodel::sim {

/// Anything that can synthesize a host population for a date.
class HostSynthesisModel {
 public:
  virtual ~HostSynthesisModel() = default;
  virtual std::string name() const = 0;

  /// `count` hosts for `date`, drawn from `rng`, with the log columns the
  /// allocator reads already filled.
  virtual HostResourcesSoA synthesize_soa(util::ModelDate date,
                                          std::size_t count,
                                          util::Rng& rng) const = 0;
};

/// The paper's generative model with a pluggable dependence structure.
/// Defaults to the published Cholesky-Gaussian copula; pass any
/// model::CorrelationModel (independent, empirical-rank, ...) to run the
/// same marginal laws under a different joint structure. Synthesis runs
/// through the batched SoA engine.
class CorrelatedModel final : public HostSynthesisModel {
 public:
  explicit CorrelatedModel(core::ModelParams params);
  CorrelatedModel(core::ModelParams params,
                  std::shared_ptr<const model::CorrelationModel> correlation,
                  std::string display_name);
  std::string name() const override { return name_; }
  HostResourcesSoA synthesize_soa(util::ModelDate date, std::size_t count,
                                  util::Rng& rng) const override;

 private:
  core::HostGenerator generator_;
  std::string name_ = "Correlated Model";
};

/// Linear mean/stddev trend of one resource (the Figure-2 extrapolation).
struct LinearTrend {
  stats::LinearFit mean;    ///< mean(t) = slope * t + intercept
  stats::LinearFit stddev;  ///< stddev(t) likewise
};

/// The uncorrelated normal-distribution baseline.
class NormalDistributionModel final : public HostSynthesisModel {
 public:
  /// Trends for {cores, memory, whetstone, dhrystone, disk}, in that order.
  NormalDistributionModel(LinearTrend cores, LinearTrend memory,
                          LinearTrend whetstone, LinearTrend dhrystone,
                          LinearTrend disk);

  /// Fits the five linear trends from yearly snapshots of a trace.
  static NormalDistributionModel fit(const trace::TraceStore& store,
                                     const std::vector<util::ModelDate>& dates);

  std::string name() const override { return "Normal Distribution Model"; }
  HostResourcesSoA synthesize_soa(util::ModelDate date, std::size_t count,
                                  util::Rng& rng) const override;

 private:
  LinearTrend cores_, memory_, whetstone_, dhrystone_, disk_;
};

/// The Kee et al. Grid resource baseline.
class GridResourceModel final : public HostSynthesisModel {
 public:
  /// `params` supplies the speed moment laws and core composition;
  /// `mean_host_lifetime_years` drives the old/new host age mixture;
  /// `mean_avail_disk_fraction` converts the model's total-disk growth law
  /// into (over-)estimated available space.
  GridResourceModel(core::ModelParams params, double mean_host_lifetime_years,
                    double mean_avail_disk_fraction = 0.5);

  std::string name() const override { return "Grid Model"; }
  HostResourcesSoA synthesize_soa(util::ModelDate date, std::size_t count,
                                  util::Rng& rng) const override;

 private:
  core::ModelParams params_;
  double mean_lifetime_years_;
  double mean_avail_fraction_;
};

}  // namespace resmodel::sim
