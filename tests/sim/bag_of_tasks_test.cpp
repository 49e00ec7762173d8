#include "sim/bag_of_tasks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "churn/block_envelope.h"
#include "core/host_generator.h"
#include "util/rng.h"

namespace resmodel::sim {
namespace {

HostResourcesSoA model_hosts(std::size_t n, std::uint64_t seed) {
  const core::HostGenerator gen(core::paper_params());
  util::Rng rng(seed);
  return HostResourcesSoA::from_batch(
      gen.generate_batch(util::ModelDate::from_ymd(2010, 1, 1), n, rng));
}

HostResourcesSoA uniform_hosts(std::size_t n, double whet) {
  std::vector<HostResources> hosts(n);
  for (HostResources& h : hosts) {
    h.cores = 1;
    h.whetstone_mips = whet;
    h.dhrystone_mips = whet * 2;
    h.memory_mb = 1024;
    h.disk_avail_gb = 10;
  }
  return HostResourcesSoA::from_hosts(hosts);
}

TEST(BagOfTasks, RejectsBadInputs) {
  util::Rng rng(1);
  BagOfTasksConfig config;
  EXPECT_THROW(run_bag_of_tasks(HostResourcesSoA{}, config,
                                SchedulingPolicy::kDynamicPull, rng),
               std::invalid_argument);
  config.task_count = 0;
  EXPECT_THROW(run_bag_of_tasks(uniform_hosts(2, 1000), config,
                                SchedulingPolicy::kDynamicPull, rng),
               std::invalid_argument);
}

TEST(BagOfTasks, HomogeneousHostsAllPoliciesAgree) {
  // Identical hosts: any sensible policy spreads evenly, and the makespan
  // is ~ total work / aggregate rate.
  util::Rng r1(2), r2(2), r3(2);
  BagOfTasksConfig config;
  config.task_count = 4000;
  const auto hosts = uniform_hosts(50, 1000.0);
  const auto rr = run_bag_of_tasks(hosts, config,
                                   SchedulingPolicy::kStaticRoundRobin, r1);
  const auto sw = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kStaticSpeedWeighted, r2);
  const auto pull =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r3);
  EXPECT_NEAR(rr.makespan_days / sw.makespan_days, 1.0, 0.1);
  EXPECT_NEAR(rr.makespan_days / pull.makespan_days, 1.0, 0.1);
  // Conservation: identical seeds -> identical workload and rates.
  EXPECT_NEAR(rr.total_cpu_days, sw.total_cpu_days, 1e-9);
  EXPECT_NEAR(rr.total_cpu_days, pull.total_cpu_days, 1e-9);
}

TEST(BagOfTasks, HeterogeneousHostsPunishKnowledgeFreeStriping) {
  // On the real (correlated) host mixture, blind striping is dragged down
  // by the slowest hosts; dynamic pull and speed-weighted dealing are far
  // better. This is the motivation-section claim made executable.
  util::Rng r1(3), r2(3), r3(3);
  BagOfTasksConfig config;
  config.task_count = 5000;
  const auto hosts = model_hosts(300, 4);
  const auto rr = run_bag_of_tasks(hosts, config,
                                   SchedulingPolicy::kStaticRoundRobin, r1);
  const auto sw = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kStaticSpeedWeighted, r2);
  const auto ect =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, r3);
  EXPECT_GT(rr.makespan_days, 1.5 * ect.makespan_days);
  EXPECT_GT(rr.makespan_days, 1.5 * sw.makespan_days);
}

TEST(BagOfTasks, DynamicEctBeatsOrMatchesStaticSpeedWeighted) {
  util::Rng r1(5), r2(5);
  BagOfTasksConfig config;
  config.task_count = 3000;
  const auto hosts = model_hosts(200, 6);
  const auto sw = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kStaticSpeedWeighted, r1);
  const auto ect =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, r2);
  EXPECT_LE(ect.makespan_days, sw.makespan_days * 1.05);
}

TEST(BagOfTasks, NaivePullSuffersStragglers) {
  // The correlated model occasionally produces near-zero-speed hosts (the
  // clamped normal tail); knowledge-free pull hands them tasks and the
  // makespan explodes relative to completion-time-aware ECT.
  util::Rng r1(5), r2(5);
  BagOfTasksConfig config;
  config.task_count = 3000;
  const auto hosts = model_hosts(200, 6);
  const auto pull =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r1);
  const auto ect =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, r2);
  EXPECT_GE(pull.makespan_days, ect.makespan_days);
}

TEST(BagOfTasks, MakespanBoundsHold) {
  util::Rng rng(7);
  BagOfTasksConfig config;
  config.task_count = 1000;
  const auto hosts = model_hosts(100, 8);
  const auto result =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, rng);
  // Makespan >= total work / aggregate capacity (perfect balance bound)
  // and >= the mean busy time.
  EXPECT_GE(result.makespan_days + 1e-9, result.mean_host_busy_days);
  EXPECT_GT(result.makespan_days, 0.0);
  EXPECT_EQ(result.hosts_used, hosts.size());  // more tasks than hosts
  EXPECT_NEAR(result.max_host_busy_days, result.makespan_days,
              result.makespan_days * 0.5);
}

TEST(BagOfTasks, AvailabilityOverlayIncreasesMakespan) {
  BagOfTasksConfig plain;
  plain.task_count = 2000;
  BagOfTasksConfig derated = plain;
  derated.model_availability = true;
  const auto hosts = model_hosts(150, 9);
  util::Rng r1(10), r2(10);
  const auto fast =
      run_bag_of_tasks(hosts, plain, SchedulingPolicy::kDynamicPull, r1);
  const auto slow =
      run_bag_of_tasks(hosts, derated, SchedulingPolicy::kDynamicPull, r2);
  EXPECT_GT(slow.makespan_days, fast.makespan_days);
}

TEST(BagOfTasks, PolicyNamesAreStable) {
  EXPECT_EQ(to_string(SchedulingPolicy::kStaticRoundRobin),
            "static round-robin");
  EXPECT_EQ(to_string(SchedulingPolicy::kStaticSpeedWeighted),
            "static speed-weighted");
  EXPECT_EQ(to_string(SchedulingPolicy::kDynamicPull), "dynamic pull");
  EXPECT_EQ(to_string(SchedulingPolicy::kDynamicEct), "dynamic ECT");
}

TEST(BagOfTasks, DeterministicForFixedSeed) {
  BagOfTasksConfig config;
  config.task_count = 500;
  const auto hosts = model_hosts(50, 11);
  util::Rng r1(12), r2(12);
  const auto a =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r1);
  const auto b =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r2);
  EXPECT_DOUBLE_EQ(a.makespan_days, b.makespan_days);
  EXPECT_DOUBLE_EQ(a.total_cpu_days, b.total_cpu_days);
}

void expect_results_identical(const BagOfTasksResult& a,
                              const BagOfTasksResult& b) {
  EXPECT_EQ(a.makespan_days, b.makespan_days);
  EXPECT_EQ(a.total_cpu_days, b.total_cpu_days);
  EXPECT_EQ(a.mean_host_busy_days, b.mean_host_busy_days);
  EXPECT_EQ(a.max_host_busy_days, b.max_host_busy_days);
  EXPECT_EQ(a.hosts_used, b.hosts_used);
  EXPECT_EQ(a.wasted_cpu_days, b.wasted_cpu_days);
  EXPECT_EQ(a.interruptions, b.interruptions);
}

TEST(BagOfTasks, FastPathBitIdenticalToReference) {
  // The blocked-MCT, 4-ary-heap and interval-walking kernels promise
  // results bit-identical to the retained scalar / priority_queue /
  // full-walk reference kernels, which backend = kScalar selects — for
  // every policy, with and without the availability overlay — and both
  // runs leave the caller's stream at the same place.
  const HostResourcesSoA hosts = model_hosts(300, 13);
  BagOfTasksConfig config;
  config.task_count = 1500;
  BagOfTasksConfig scalar = config;
  scalar.backend = backend::Backend::kScalar;
  const SchedulingPolicy policies[] = {
      SchedulingPolicy::kStaticRoundRobin,
      SchedulingPolicy::kStaticSpeedWeighted,
      SchedulingPolicy::kDynamicPull,
      SchedulingPolicy::kDynamicEct,
      SchedulingPolicy::kChurnEctCheckpoint,
      SchedulingPolicy::kChurnEctRestart,
      SchedulingPolicy::kChurnEctAbandon,
  };
  for (const bool availability : {false, true}) {
    config.model_availability = availability;
    scalar.model_availability = availability;
    for (const SchedulingPolicy policy : policies) {
      SCOPED_TRACE(to_string(policy));
      util::Rng fast_rng(41), scalar_rng(41);
      const BagOfTasksResult fast =
          run_bag_of_tasks(hosts, config, policy, fast_rng);
      const BagOfTasksResult ref =
          run_bag_of_tasks(hosts, scalar, policy, scalar_rng);
      expect_results_identical(fast, ref);
      EXPECT_EQ(fast_rng.next(), scalar_rng.next());
    }
  }
}

TEST(BagOfTasks, ChurnPoliciesModelRealInterruptions) {
  const auto hosts = model_hosts(150, 14);
  BagOfTasksConfig config;
  config.task_count = 1200;
  util::Rng r1(51), r2(51), r3(51), r4(51);
  const auto derate = run_bag_of_tasks(
      hosts, [] {
        BagOfTasksConfig c;
        c.task_count = 1200;
        c.model_availability = true;
        return c;
      }(), SchedulingPolicy::kDynamicEct, r1);
  const auto ckpt = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctCheckpoint, r2);
  const auto restart = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctRestart, r3);
  const auto abandon = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctAbandon, r4);

  // Checkpointing never wastes work; restart and abandon burn real ON
  // time on the heavy-tailed session mix.
  EXPECT_DOUBLE_EQ(ckpt.wasted_cpu_days, 0.0);
  EXPECT_EQ(ckpt.interruptions, 0u);
  EXPECT_GT(restart.interruptions, 0u);
  EXPECT_GT(restart.wasted_cpu_days, 0.0);
  EXPECT_GT(abandon.interruptions, 0u);
  // All four are sane, positive schedules.
  EXPECT_GT(derate.makespan_days, 0.0);
  EXPECT_GT(ckpt.makespan_days, 0.0);
  EXPECT_GE(restart.makespan_days, ckpt.makespan_days * 0.999);
  EXPECT_GT(abandon.makespan_days, 0.0);
}

TEST(BagOfTasks, CoupledAvailabilityMakespanIsMonotoneInRho) {
  // Fast-but-flaky (rho < 0) must hurt interval-aware ECT more than
  // uncorrelated coupling, which must hurt more than fast-and-steady
  // (rho > 0) — the coupling's end-to-end signature.
  const auto hosts = model_hosts(400, 15);
  BagOfTasksConfig config;
  config.task_count = 4000;
  config.availability_coupled = true;
  double last = -1.0;
  for (const double rho : {-0.5, 0.0, 0.5}) {
    config.availability_coupling.speed_rho = rho;
    util::Rng rng(61);
    const auto result = run_bag_of_tasks(
        hosts, config, SchedulingPolicy::kChurnEctCheckpoint, rng);
    if (last >= 0.0) {
      EXPECT_LT(result.makespan_days, last) << "rho " << rho;
    }
    last = result.makespan_days;
  }
}

TEST(BagOfTasks, ComputeHostRatesDeratesByTheRealizedFractions) {
  // The derated rate column is the base column times max(0.01, fraction)
  // of the realization the same stream draws, and it leaves the stream
  // exactly where realize_availability does; without the overlay it is
  // the base column and consumes nothing.
  const HostResourcesSoA hosts = model_hosts(150, 17);
  BagOfTasksConfig config;
  config.model_availability = true;
  util::Rng rates_rng(55), real_rng(55);
  const std::vector<double> rates =
      compute_host_rates(hosts, config, rates_rng);
  const std::vector<double> base = base_host_rates(hosts);
  const AvailabilityRealization real =
      realize_availability(base, config, real_rng);
  ASSERT_EQ(rates.size(), hosts.size());
  for (std::size_t h = 0; h < rates.size(); ++h) {
    EXPECT_EQ(rates[h], base[h] * std::max(0.01, real.fractions[h]))
        << "host " << h;
  }
  EXPECT_EQ(rates_rng.next(), real_rng.next());

  config.model_availability = false;
  util::Rng plain_rng(56), untouched(56);
  EXPECT_EQ(compute_host_rates(hosts, config, plain_rng), base);
  EXPECT_EQ(plain_rng.next(), untouched.next());
}

TEST(BagOfTasks, StaticMakespanIsMaxBusyWithoutExtraPass) {
  const auto hosts = model_hosts(100, 19);
  BagOfTasksConfig config;
  config.task_count = 700;
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kStaticRoundRobin,
        SchedulingPolicy::kStaticSpeedWeighted}) {
    util::Rng rng(23);
    const BagOfTasksResult result =
        run_bag_of_tasks(hosts, config, policy, rng);
    EXPECT_EQ(result.makespan_days, result.max_host_busy_days);
  }
}

TEST(PolicySweep, CellsMatchDirectRunsAndThreadCountIsIrrelevant) {
  std::vector<SweepPopulation> populations;
  populations.push_back({"small", model_hosts(80, 25)});
  populations.push_back({"large", model_hosts(130, 26)});

  PolicySweepConfig sweep;
  sweep.policies = {
      SchedulingPolicy::kStaticRoundRobin,
      SchedulingPolicy::kStaticSpeedWeighted,
      SchedulingPolicy::kDynamicPull,
      SchedulingPolicy::kDynamicEct,
      SchedulingPolicy::kChurnEctCheckpoint,
      SchedulingPolicy::kChurnEctRestart,
      SchedulingPolicy::kChurnEctAbandon,
  };
  sweep.task_counts = {150, 400};
  sweep.base.model_availability = true;
  // Coupling on, so the copula draws are part of the shared stream too.
  sweep.base.availability_coupled = true;
  sweep.base.availability_coupling.speed_rho = -0.3;
  sweep.workload_seed = 777;

  sweep.threads = 1;
  const PolicySweepResult serial = run_policy_sweep(populations, sweep);
  sweep.threads = 4;
  const PolicySweepResult parallel = run_policy_sweep(populations, sweep);
  ASSERT_EQ(serial.cells.size(),
            populations.size() * sweep.policies.size() *
                sweep.task_counts.size());

  for (std::size_t p = 0; p < populations.size(); ++p) {
    for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
      for (std::size_t t = 0; t < sweep.task_counts.size(); ++t) {
        const PolicySweepCell& cell = serial.at(p, pol, t);
        EXPECT_EQ(cell.population, p);
        EXPECT_EQ(cell.policy, pol);
        EXPECT_EQ(cell.task_count, t);
        expect_results_identical(cell.result,
                                 parallel.at(p, pol, t).result);
        // Every cell is exactly one deterministic run_bag_of_tasks call.
        BagOfTasksConfig direct_config = sweep.base;
        direct_config.task_count = sweep.task_counts[t];
        util::Rng direct_rng(sweep.workload_seed);
        const BagOfTasksResult direct = run_bag_of_tasks(
            populations[p].hosts, direct_config, sweep.policies[pol],
            direct_rng);
        expect_results_identical(cell.result, direct);
      }
    }
  }
}

TEST(PolicySweep, ChurnCellsMatchStandaloneWithoutDerateFlag) {
  // model_availability = false with churn policies present: churn cells
  // resume the rng from the post-realization state, derate-free cells
  // from the untouched seed state — both must equal their standalone
  // runs.
  std::vector<SweepPopulation> populations;
  populations.push_back({"pop", model_hosts(90, 28)});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct,
                    SchedulingPolicy::kChurnEctCheckpoint,
                    SchedulingPolicy::kChurnEctAbandon};
  sweep.task_counts = {200};
  sweep.workload_seed = 555;
  const PolicySweepResult grid = run_policy_sweep(populations, sweep);
  for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
    BagOfTasksConfig direct = sweep.base;
    direct.task_count = 200;
    util::Rng rng(555);
    const auto standalone = run_bag_of_tasks(populations[0].hosts, direct,
                                             sweep.policies[pol], rng);
    expect_results_identical(grid.at(0, pol, 0).result, standalone);
  }
}

TEST(PolicySweep, ChurnLevelsKnobCellsMatchStandaloneRuns) {
  // The lookahead-depth knob rides through the sweep's warm-state path
  // (shared ScheduleState caches + churn cursor seed); cells at a
  // non-default depth must still equal their standalone runs bit for
  // bit, at any thread count.
  std::vector<SweepPopulation> populations;
  populations.push_back({"pop", model_hosts(80, 29)});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kChurnEctCheckpoint,
                    SchedulingPolicy::kChurnEctRestart};
  sweep.task_counts = {150};
  sweep.workload_seed = 606;
  sweep.base.churn_lookahead_levels = 2;
  sweep.threads = 1;
  const PolicySweepResult serial = run_policy_sweep(populations, sweep);
  sweep.threads = 4;
  const PolicySweepResult parallel = run_policy_sweep(populations, sweep);
  for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
    expect_results_identical(serial.at(0, pol, 0).result,
                             parallel.at(0, pol, 0).result);
    BagOfTasksConfig direct = sweep.base;
    direct.task_count = 150;
    util::Rng rng(606);
    const auto standalone = run_bag_of_tasks(populations[0].hosts, direct,
                                             sweep.policies[pol], rng);
    expect_results_identical(serial.at(0, pol, 0).result, standalone);
  }
}

// --- Warm-state sharing ---------------------------------------------------

/// Every cell of `grid` equals its standalone run_bag_of_tasks, the
/// replication outcome included. A cell that draws no availability
/// cannot read a coupling, so its standalone run has it cleared (a
/// standalone run would refuse it).
void expect_cells_match_standalone(
    const std::vector<SweepPopulation>& populations,
    const PolicySweepConfig& sweep, const PolicySweepResult& grid) {
  ASSERT_EQ(grid.cells.size(), populations.size() * sweep.policies.size() *
                                   sweep.task_counts.size());
  for (const PolicySweepCell& cell : grid.cells) {
    PolicySweepConfig one_cell;
    one_cell.policies = {sweep.policies[cell.policy]};
    one_cell.base = sweep.base;
    if (!one_cell.draws_availability()) {
      one_cell.base.availability_coupled = false;
    }
    BagOfTasksConfig direct = one_cell.base;
    direct.task_count = sweep.task_counts[cell.task_count];
    SCOPED_TRACE("population " + std::to_string(cell.population) +
                 ", policy " + to_string(sweep.policies[cell.policy]) +
                 ", tasks " + std::to_string(direct.task_count));
    util::Rng rng(sweep.workload_seed);
    const BagOfTasksResult standalone =
        run_bag_of_tasks(populations[cell.population].hosts, direct,
                         sweep.policies[cell.policy], rng);
    expect_results_identical(cell.result, standalone);
    const ReplicationOutcome& a = cell.result.replication;
    const ReplicationOutcome& b = standalone.replication;
    EXPECT_EQ(a.tasks_validated, b.tasks_validated);
    EXPECT_EQ(a.tasks_invalid, b.tasks_invalid);
    EXPECT_EQ(a.tasks_missed_deadline, b.tasks_missed_deadline);
    EXPECT_EQ(a.replicas_issued, b.replicas_issued);
    EXPECT_EQ(a.replicas_crashed, b.replicas_crashed);
    EXPECT_EQ(a.reissues, b.reissues);
    EXPECT_EQ(a.wasted_replica_cpu_days, b.wasted_replica_cpu_days);
    EXPECT_EQ(a.last_validation_day, b.last_validation_day);
  }
}

/// Two distinct populations of 90 hosts and one of 120.
std::vector<SweepPopulation> sharing_populations() {
  std::vector<SweepPopulation> populations;
  populations.push_back({"a90", model_hosts(90, 41)});
  populations.push_back({"b90", model_hosts(90, 42)});
  populations.push_back({"c120", model_hosts(120, 43)});
  return populations;
}

/// Runs `sweep` at 1 and 4 threads; both must equal the standalone runs
/// and report `draws` availability realizations.
void expect_sweep_shares(const std::vector<SweepPopulation>& populations,
                         PolicySweepConfig sweep, std::size_t draws) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    sweep.threads = threads;
    const PolicySweepResult grid = run_policy_sweep(populations, sweep);
    EXPECT_EQ(grid.availability_draws, draws);
    expect_cells_match_standalone(populations, sweep, grid);
  }
}

PolicySweepConfig grid_sweep() {
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicPull,
                    SchedulingPolicy::kDynamicEct,
                    SchedulingPolicy::kChurnEctCheckpoint,
                    SchedulingPolicy::kChurnEctRestart,
                    SchedulingPolicy::kChurnEctAbandon};
  sweep.task_counts = {150, 260};
  sweep.workload_seed = 4711;
  return sweep;
}

PolicySweepConfig replicated_sweep() {
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct,
                    SchedulingPolicy::kChurnEctCheckpoint};
  sweep.task_counts = {200};
  sweep.base.replication.enabled = true;
  sweep.base.replication.quorum = 2;
  sweep.base.replication.replicas = 3;
  sweep.base.replication.deadline_days = 4.0;
  sweep.base.fault_mix.crash_fraction = 0.1;
  sweep.base.fault_mix.straggler_fraction = 0.05;
  sweep.base.fault_mix.corrupter_fraction = 0.05;
  sweep.workload_seed = 4712;
  return sweep;
}

TEST(PolicySweep, EqualSizedUncoupledPopulationsShareOneDraw) {
  // An uncoupled draw reads only the host count and the seed stream, so
  // the two 90-host populations share one realization (timeline, post-
  // draw stream, cursor seed) and the 120-host one draws its own. Every
  // cell must still equal its standalone run, which draws for itself.
  const std::vector<SweepPopulation> populations = sharing_populations();
  expect_sweep_shares(populations, grid_sweep(), 2);
  // The derated rates and the shared fractions, beside the churn cells'
  // full-rate states.
  PolicySweepConfig derated = grid_sweep();
  derated.base.model_availability = true;
  expect_sweep_shares(populations, derated, 2);
  expect_sweep_shares(populations, replicated_sweep(), 2);
}

TEST(PolicySweep, CoupledPopulationsDrawTheirOwnRealization) {
  // Coupled parameters are ranked by each population's speeds, so equal
  // host counts share nothing: three populations, three draws.
  const std::vector<SweepPopulation> populations = sharing_populations();
  PolicySweepConfig grid = grid_sweep();
  grid.base.availability_coupled = true;
  grid.base.availability_coupling.speed_rho = -0.6;
  expect_sweep_shares(populations, grid, 3);
  PolicySweepConfig replicated = replicated_sweep();
  replicated.base.availability_coupled = true;
  replicated.base.availability_coupling.speed_rho = -0.6;
  expect_sweep_shares(populations, replicated, 3);
}

TEST(PolicySweep, DerateOnlySweepSharesFractions) {
  // No churn or replicated cell: the shared draw keeps only the
  // fractions, and every derated cell resumes from the post-draw stream.
  const std::vector<SweepPopulation> populations = sharing_populations();
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kStaticRoundRobin,
                    SchedulingPolicy::kStaticSpeedWeighted,
                    SchedulingPolicy::kDynamicPull,
                    SchedulingPolicy::kDynamicEct};
  sweep.task_counts = {150};
  sweep.base.model_availability = true;
  sweep.workload_seed = 4713;
  expect_sweep_shares(populations, sweep, 2);
  // Nothing consumes a draw without the derate.
  sweep.base.model_availability = false;
  expect_sweep_shares(populations, sweep, 0);
}

TEST(BagOfTasks, RejectsOutOfRangeChurnLookaheadLevels) {
  const auto hosts = model_hosts(20, 30);
  util::Rng rng(9);
  BagOfTasksConfig config;
  config.task_count = 10;
  config.churn_lookahead_levels = 0;
  EXPECT_THROW(run_bag_of_tasks(hosts, config,
                                SchedulingPolicy::kChurnEctCheckpoint, rng),
               std::invalid_argument);
  config.churn_lookahead_levels = churn::kMaxLookaheadLevels + 1;
  EXPECT_THROW(run_bag_of_tasks(hosts, config,
                                SchedulingPolicy::kChurnEctCheckpoint, rng),
               std::invalid_argument);
  config.churn_lookahead_levels = churn::kMaxLookaheadLevels;
  EXPECT_NO_THROW(run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctCheckpoint, rng));
}

TEST(BagOfTasks, SharedRealizationOverloadMatchesStandalone) {
  // Drawing the realization once and passing it in must reproduce the
  // draw-inside path exactly: same availability stream, same task
  // stream, for churn and derate policies alike. This is the contract
  // that keeps knob sweeps (e.g. churn-levels variants) draw-comparable.
  const HostResourcesSoA hosts = model_hosts(70, 31);
  BagOfTasksConfig config;
  config.task_count = 120;
  config.model_availability = true;
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kDynamicEct, SchedulingPolicy::kChurnEctCheckpoint,
        SchedulingPolicy::kChurnEctRestart}) {
    util::Rng inside_rng(4242);
    const auto inside = run_bag_of_tasks(hosts, config, policy, inside_rng);

    util::Rng outside_rng(4242);
    const std::vector<double> speed = base_host_rates(hosts);
    const AvailabilityRealization real =
        realize_availability(speed, config, outside_rng);
    const auto outside =
        run_bag_of_tasks(hosts, real, config, policy, outside_rng);
    expect_results_identical(inside, outside);
    EXPECT_EQ(inside_rng.next(), outside_rng.next());
  }
}

TEST(BagOfTasks, SharedRealizationOverloadValidatesCoverage) {
  const HostResourcesSoA hosts = model_hosts(30, 32);
  BagOfTasksConfig config;
  config.task_count = 10;
  config.model_availability = true;
  AvailabilityRealization empty;  // no timeline, no fractions
  util::Rng rng(5);
  EXPECT_THROW(run_bag_of_tasks(hosts, empty, config,
                                SchedulingPolicy::kChurnEctCheckpoint, rng),
               std::invalid_argument);
  EXPECT_THROW(run_bag_of_tasks(hosts, empty, config,
                                SchedulingPolicy::kDynamicEct, rng),
               std::invalid_argument);
}

TEST(BagOfTasks, CouplingWithoutADrawIsRefused) {
  // A standalone run is the one-cell sweep, so it refuses a coupling no
  // draw would read: pull, static or plain ECT without the derate or
  // replication. A policy that draws availability accepts it.
  const HostResourcesSoA hosts = model_hosts(40, 34);
  BagOfTasksConfig config;
  config.task_count = 60;
  config.availability_coupled = true;
  config.availability_coupling.speed_rho = -0.5;
  util::Rng rng(8);
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kStaticRoundRobin,
        SchedulingPolicy::kStaticSpeedWeighted,
        SchedulingPolicy::kDynamicPull, SchedulingPolicy::kDynamicEct}) {
    SCOPED_TRACE(to_string(policy));
    EXPECT_THROW(run_bag_of_tasks(hosts, config, policy, rng),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(run_bag_of_tasks(hosts, config,
                                   SchedulingPolicy::kChurnEctCheckpoint, rng));
  config.model_availability = true;
  EXPECT_NO_THROW(
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, rng));
}

TEST(PolicySweep, AvailabilityCouplingNeedsACellThatDrawsAvailability) {
  std::vector<SweepPopulation> populations;
  populations.push_back({"pop", model_hosts(600, 33)});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct};
  sweep.task_counts = {900};
  sweep.base.availability_coupled = true;
  sweep.base.availability_coupling.speed_rho = -0.8;
  // Plain dynamic ECT: no derate, no churn policy, not replicated —
  // nothing would read the coupling.
  EXPECT_FALSE(sweep.draws_availability());
  EXPECT_THROW(run_policy_sweep(populations, sweep), std::invalid_argument);

  // A replicated run draws the coupled timeline and its crash model walks
  // it, so the coupling changes the outcome.
  sweep.base.replication.enabled = true;
  sweep.base.replication.replicas = 3;
  sweep.base.replication.quorum = 2;
  sweep.base.replication.deadline_days = 4.0;
  sweep.base.fault_mix.crash_fraction = 0.2;
  EXPECT_TRUE(sweep.draws_availability());
  const BagOfTasksResult coupled =
      run_policy_sweep(populations, sweep).at(0, 0, 0).result;
  sweep.base.availability_coupled = false;
  const BagOfTasksResult uncoupled =
      run_policy_sweep(populations, sweep).at(0, 0, 0).result;
  EXPECT_TRUE(coupled.replication.replicas_crashed !=
                  uncoupled.replication.replicas_crashed ||
              coupled.makespan_days != uncoupled.makespan_days);
}

TEST(PolicySweep, RejectsEmptyAxesAndPopulations) {
  std::vector<SweepPopulation> populations;
  populations.push_back({"ok", model_hosts(10, 27)});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct};
  sweep.task_counts = {10};
  EXPECT_THROW(run_policy_sweep({}, sweep), std::invalid_argument);
  PolicySweepConfig no_policies = sweep;
  no_policies.policies.clear();
  EXPECT_THROW(run_policy_sweep(populations, no_policies),
               std::invalid_argument);
  PolicySweepConfig no_tasks = sweep;
  no_tasks.task_counts.clear();
  EXPECT_THROW(run_policy_sweep(populations, no_tasks), std::invalid_argument);
  // A degenerate count anywhere in the list must throw up front on the
  // calling thread, never from inside a spawned worker.
  PolicySweepConfig bad_later_cell = sweep;
  bad_later_cell.task_counts = {10, 0};
  bad_later_cell.threads = 4;
  EXPECT_THROW(run_policy_sweep(populations, bad_later_cell),
               std::invalid_argument);
  // An out-of-range policy value must also throw on the calling thread.
  PolicySweepConfig bad_policy = sweep;
  bad_policy.policies = {SchedulingPolicy::kDynamicEct,
                         static_cast<SchedulingPolicy>(99)};
  bad_policy.threads = 4;
  EXPECT_THROW(run_policy_sweep(populations, bad_policy),
               std::invalid_argument);
  populations.push_back({"empty", HostResourcesSoA{}});
  EXPECT_THROW(run_policy_sweep(populations, sweep), std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::sim
