// Quickstart: generate a realistic set of Internet end hosts for a date.
//
//   ./quickstart [YYYY-MM-DD] [count]
//
// Uses the published model parameters (Table X of the paper) to synthesize
// hosts with correlated resources, prints a few of them and the summary
// statistics of the batch.
#include <iostream>
#include <string>

#include "core/host_generator.h"
#include "core/model_params.h"
#include "stats/descriptive.h"
#include "util/model_date.h"
#include "util/rng.h"
#include "util/table.h"

using namespace resmodel;

int main(int argc, char** argv) {
  util::ModelDate date = util::ModelDate::from_ymd(2010, 9, 1);
  std::size_t count = 10000;
  try {
    if (argc > 1) date = util::ModelDate::parse(argv[1]);
    if (argc > 2) count = static_cast<std::size_t>(std::stoul(argv[2]));
  } catch (const std::exception& e) {
    std::cerr << "usage: quickstart [YYYY-MM-DD] [count]\n" << e.what()
              << '\n';
    return 1;
  }

  // 1. The published model (fit your own with core::fit_model instead).
  const core::ModelParams params = core::paper_params();

  // 2. A generator and a deterministic random stream.
  const core::HostGenerator generator(params);
  util::Rng rng(42);

  // 3. Hosts, through the batched structure-of-arrays engine.
  const core::GeneratedHostBatch hosts =
      generator.generate_batch(date, count, rng);

  std::cout << "Generated " << hosts.size() << " hosts for "
            << date.to_string() << " (t = " << date.t()
            << " years since 2006).\n\nFirst five hosts:\n";
  util::Table sample({"Cores", "Memory (MB)", "Whetstone", "Dhrystone",
                      "Avail disk (GB)"});
  for (std::size_t i = 0; i < 5 && i < hosts.size(); ++i) {
    const core::GeneratedHost h = hosts.host(i);
    sample.add_row({std::to_string(h.n_cores),
                    util::Table::num(h.memory_mb, 0),
                    util::Table::num(h.whetstone_mips, 0),
                    util::Table::num(h.dhrystone_mips, 0),
                    util::Table::num(h.disk_avail_gb, 1)});
  }
  sample.print(std::cout);

  const trace::ResourceSnapshot cols = core::columns_of(hosts);
  std::cout << "\nBatch statistics:\n";
  util::Table summary({"Resource", "Mean", "Stddev", "Median"});
  const auto row = [&summary](const std::string& name,
                              const std::vector<double>& values, int prec) {
    const stats::Summary s = stats::summarize(values);
    summary.add_row({name, util::Table::num(s.mean, prec),
                     util::Table::num(s.stddev, prec),
                     util::Table::num(s.median, prec)});
  };
  row("Cores", cols.cores, 2);
  row("Memory (MB)", cols.memory_mb, 0);
  row("Whetstone MIPS", cols.whetstone_mips, 0);
  row("Dhrystone MIPS", cols.dhrystone_mips, 0);
  row("Avail disk (GB)", cols.disk_avail_gb, 1);
  summary.print(std::cout);

  std::cout << "\nThe model file format (save/load with "
               "ModelParams::serialize/deserialize):\n"
            << params.serialize().substr(0, 400) << "...\n";
  return 0;
}
