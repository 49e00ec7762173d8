#include "core/validation.h"

#include <algorithm>
#include <cmath>

#include "core/fit_pipeline.h"
#include "stats/descriptive.h"

namespace resmodel::core {

namespace {

ResourceComparison compare_one(std::string name,
                               const std::vector<double>& actual,
                               const std::vector<double>& generated) {
  ResourceComparison cmp;
  cmp.name = std::move(name);
  const stats::Summary sa = stats::summarize(actual);
  const stats::Summary sg = stats::summarize(generated);
  cmp.mean_actual = sa.mean;
  cmp.mean_generated = sg.mean;
  cmp.stddev_actual = sa.stddev;
  cmp.stddev_generated = sg.stddev;
  cmp.mean_diff_fraction =
      sa.mean != 0.0 ? std::fabs(sg.mean - sa.mean) / std::fabs(sa.mean) : 0.0;
  cmp.stddev_diff_fraction =
      sa.stddev != 0.0 ? std::fabs(sg.stddev - sa.stddev) / sa.stddev : 0.0;
  cmp.ks_statistic = two_sample_ks(actual, generated);
  return cmp;
}

}  // namespace

double two_sample_ks(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  return d;
}

std::vector<ResourceComparison> compare_resources(
    const trace::ResourceSnapshot& actual, const GeneratedHostBatch& generated) {
  // Only the cores column needs int -> double conversion; the batch's
  // other columns are consumed in place (no six-column copy).
  const std::vector<double> cores(generated.n_cores.begin(),
                                  generated.n_cores.end());
  std::vector<ResourceComparison> out;
  out.push_back(compare_one("Cores", actual.cores, cores));
  out.push_back(
      compare_one("Memory (MB)", actual.memory_mb, generated.memory_mb));
  out.push_back(compare_one("Whetstone MIPS", actual.whetstone_mips,
                            generated.whetstone_mips));
  out.push_back(compare_one("Dhrystone MIPS", actual.dhrystone_mips,
                            generated.dhrystone_mips));
  out.push_back(compare_one("Avail Disk (GB)", actual.disk_avail_gb,
                            generated.disk_avail_gb));
  return out;
}

stats::Matrix generated_correlation_matrix(const GeneratedHostBatch& generated) {
  const std::vector<double> cores(generated.n_cores.begin(),
                                  generated.n_cores.end());
  return resource_correlation_matrix(
      cores, generated.memory_mb, generated.memory_per_core_mb,
      generated.whetstone_mips, generated.dhrystone_mips,
      generated.disk_avail_gb);
}

}  // namespace resmodel::core
