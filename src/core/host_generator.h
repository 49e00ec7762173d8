// The Figure-11 host creation flowchart.
//
// Given a target date:
//   1. sample the core count from the chained-ratio pmf;
//   2. draw a correlated standard-normal triple (mem/core, Whetstone,
//      Dhrystone) from the pluggable model::CorrelationModel — the paper's
//      Cholesky-driven Gaussian copula by default;
//   3. map the first component through Phi to a uniform and use it to pick
//      the discrete per-core memory;
//   4. renormalize the other two components to the date's predicted
//      benchmark mean/variance;
//   5. sample available disk from an independent log-normal with the
//      date's predicted moments;
//   6. total memory = per-core memory x cores.
//
// generate_batch()/generate_batch_parallel() are the engine: they hoist
// every t-dependent quantity out of the loop and fill the columns of a
// GeneratedHostBatch. generate()/generate_many() run the flowchart one
// host at a time, recomputing the date's tables per call; they are the
// oracle the batch engine is tested against, bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/model_params.h"
#include "model/correlation_model.h"
#include "trace/trace_store.h"
#include "util/model_date.h"
#include "util/rng.h"

namespace resmodel::core {

/// One synthesized host.
struct GeneratedHost {
  int n_cores = 1;
  double memory_per_core_mb = 0.0;
  double memory_mb = 0.0;
  double whetstone_mips = 0.0;
  double dhrystone_mips = 0.0;
  double disk_avail_gb = 0.0;
};

/// Structure-of-arrays host population: index i across all columns is one
/// host. This is the contiguous layout every downstream consumer
/// (validation, correlation tables, the allocator adapters) iterates over.
struct GeneratedHostBatch {
  std::vector<int> n_cores;
  std::vector<double> memory_per_core_mb;
  std::vector<double> memory_mb;
  std::vector<double> whetstone_mips;
  std::vector<double> dhrystone_mips;
  std::vector<double> disk_avail_gb;

  std::size_t size() const noexcept { return n_cores.size(); }
  bool empty() const noexcept { return n_cores.empty(); }
  void resize(std::size_t n);

  /// Row i as an AoS host.
  GeneratedHost host(std::size_t i) const noexcept;
};

/// Generates hosts from a ModelParams. Immutable after construction;
/// safe to share across threads when each thread has its own Rng.
class HostGenerator {
 public:
  /// Uses the paper's dependence structure: a CholeskyGaussian over
  /// params.resource_correlation. Throws std::invalid_argument on invalid
  /// params (including a non-positive-definite correlation matrix).
  explicit HostGenerator(ModelParams params);

  /// Plugs in an alternative dependence structure. The model must have
  /// dimension 3 (the {mem/core, Whetstone, Dhrystone} triple).
  HostGenerator(ModelParams params,
                std::shared_ptr<const model::CorrelationModel> correlation);

  const ModelParams& params() const noexcept { return params_; }
  const model::CorrelationModel& correlation() const noexcept {
    return *correlation_;
  }

  /// The per-host oracle (see the file comment).
  GeneratedHost generate(util::ModelDate date, util::Rng& rng) const;

  std::vector<GeneratedHost> generate_many(util::ModelDate date,
                                           std::size_t count,
                                           util::Rng& rng) const;

  /// The SoA fast path: precomputes the date's pmfs/moments once and fills
  /// the batch columns. Consumes `rng` exactly like generate() host by
  /// host, so generate_batch(...) == generate_many(...) element-wise.
  GeneratedHostBatch generate_batch(util::ModelDate date, std::size_t count,
                                    util::Rng& rng) const;

  /// Deterministic parallel SoA generation: hosts are produced in
  /// fixed-size chunks, each with its own (seed, chunk)-derived stream, so
  /// the result is identical for any thread count. threads == 0 uses the
  /// hardware concurrency.
  GeneratedHostBatch generate_batch_parallel(util::ModelDate date,
                                             std::size_t count,
                                             std::uint64_t seed,
                                             int threads = 0) const;

 private:
  struct DateContext;
  DateContext date_context(util::ModelDate date) const;
  void fill_range(GeneratedHostBatch& batch, std::size_t begin,
                  std::size_t end, const DateContext& ctx,
                  util::Rng& rng) const;

  ModelParams params_;
  std::shared_ptr<const model::CorrelationModel> correlation_;
};

/// The batch as the six double columns of a trace snapshot (cores
/// widened to double), for analysis code that reads either.
trace::ResourceSnapshot columns_of(const GeneratedHostBatch& batch);

}  // namespace resmodel::core
