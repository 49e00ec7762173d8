// Table VI: the exponential prediction laws for benchmark and disk-space
// moments, fitted from the trace.
// Paper: Dhry mean (2064, 0.1709, r=0.9946), Dhry var (1.379e6, 0.3313,
// 0.9937), Whet mean (1179, 0.1157, 0.9981), Whet var (3.237e5, 0.1057,
// 0.8795), Disk mean (31.59, 0.2691, 0.9955), Disk var (2890, 0.5224,
// 0.9954).
#include <iostream>

#include "common.h"
#include "stats/bootstrap.h"
#include "stats/regression.h"
#include "util/rng.h"

using namespace resmodel;

int main() {
  bench::print_header("Table VI",
                      "Benchmark and disk space prediction law values");

  const core::FitReport& fit = bench::bench_fit();
  struct Row {
    const char* name;
    const core::MomentSeries* series;
    double a, b, r;
  };
  const Row rows[] = {
      {"Dhrystone Mean (MIPS)", &fit.dhrystone_mean, 2064, 0.1709, 0.9946},
      {"Dhrystone Variance", &fit.dhrystone_variance, 1.379e6, 0.3313,
       0.9937},
      {"Whetstone Mean (MIPS)", &fit.whetstone_mean, 1179, 0.1157, 0.9981},
      {"Whetstone Variance", &fit.whetstone_variance, 3.237e5, 0.1057,
       0.8795},
      {"Disk Space Mean (GB)", &fit.disk_mean, 31.59, 0.2691, 0.9955},
      {"Disk Space Variance", &fit.disk_variance, 2890, 0.5224, 0.9954},
  };

  // 95% bootstrap CI on b, resampling snapshot points jointly.
  util::Rng rng(6);
  const auto b_interval = [&rng](const core::MomentSeries& series) {
    return stats::bootstrap_ci_paired(
        series.t, series.value,
        [](std::span<const double> ts, std::span<const double> ys) {
          return stats::ExponentialLaw::fit(ts, ys).b;
        },
        500, 0.95, rng);
  };

  util::Table table({"Quantity", "a (measured)", "a (paper)", "b (measured)",
                     "b 95% CI", "b (paper)", "r (measured)", "r (paper)"});
  for (const Row& row : rows) {
    const stats::BootstrapInterval ci = b_interval(*row.series);
    // Appended piecewise: GCC 12 reports a false -Wrestrict on
    // operator+(const char*, string&&).
    std::string ci_text("[");
    ci_text += util::Table::num(ci.lo, 3);
    ci_text += ", ";
    ci_text += util::Table::num(ci.hi, 3);
    ci_text += "]";
    table.add_row({row.name, util::Table::sci(row.series->law.a, 3),
                   util::Table::sci(row.a, 3),
                   util::Table::num(row.series->law.b, 4), ci_text,
                   util::Table::num(row.b, 4),
                   util::Table::num(row.series->law.r, 4),
                   util::Table::num(row.r, 4)});
  }
  table.print(std::cout);

  std::cout << "\nPer-snapshot moment series (t = years since 2006):\n";
  util::Table series({"t", "Dhry mean", "Whet mean", "Disk mean (GB)"});
  for (std::size_t j = 0; j < fit.dhrystone_mean.t.size(); ++j) {
    series.add_row({util::Table::num(fit.dhrystone_mean.t[j], 2),
                    util::Table::num(fit.dhrystone_mean.value[j], 0),
                    util::Table::num(fit.whetstone_mean.value[j], 0),
                    util::Table::num(fit.disk_mean.value[j], 1)});
  }
  series.print(std::cout);
  return 0;
}
