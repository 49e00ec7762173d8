// Generated-vs-actual validation (§VI-B: Figure 12 and Table VIII).
#pragma once

#include <string>
#include <vector>

#include "core/host_generator.h"
#include "stats/matrix.h"
#include "trace/trace_store.h"

namespace resmodel::core {

/// Per-resource comparison of a generated set against actual data.
struct ResourceComparison {
  std::string name;
  double mean_actual = 0.0;
  double mean_generated = 0.0;
  double stddev_actual = 0.0;
  double stddev_generated = 0.0;
  /// |gen - actual| / actual, as a fraction (the paper reports 0.5%-13.0%
  /// for means and 3.5%-32.7% for standard deviations).
  double mean_diff_fraction = 0.0;
  double stddev_diff_fraction = 0.0;
  /// Two-sample Kolmogorov-Smirnov statistic between the samples.
  double ks_statistic = 0.0;
};

/// Compares the five modeled resources (cores, memory, whetstone,
/// dhrystone, disk) of a generated host set against an actual snapshot.
std::vector<ResourceComparison> compare_resources(
    const trace::ResourceSnapshot& actual, const GeneratedHostBatch& generated);

/// Table-VIII machinery: the 6x6 correlation matrix over
/// {cores, memory, mem/core, whet, dhry, disk} of a generated host set.
stats::Matrix generated_correlation_matrix(const GeneratedHostBatch& generated);

/// Two-sample KS statistic sup |F1 - F2|.
double two_sample_ks(std::vector<double> a, std::vector<double> b);

}  // namespace resmodel::core
