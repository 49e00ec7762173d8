// Tests of the fault-tolerant work-distribution layer (sim/replication.h)
// through the public bag-of-tasks entry points: quorum validation,
// deadline re-issue, fault injection, and the determinism / oracle
// contracts the rest of the tree already obeys.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "churn/churn_scheduler.h"
#include "churn/interval_timeline.h"
#include "core/host_generator.h"
#include "sim/bag_of_tasks.h"
#include "sim/replication.h"
#include "synth/availability.h"
#include "util/rng.h"

namespace resmodel::sim {
namespace {

HostResourcesSoA model_hosts(std::size_t n, std::uint64_t seed) {
  const core::HostGenerator gen(core::paper_params());
  util::Rng rng(seed);
  return HostResourcesSoA::from_batch(
      gen.generate_batch(util::ModelDate::from_ymd(2010, 1, 1), n, rng));
}

BagOfTasksConfig replicated_config(std::uint32_t quorum,
                                   std::uint32_t replicas) {
  BagOfTasksConfig config;
  config.task_count = 800;
  config.replication.enabled = true;
  config.replication.quorum = quorum;
  config.replication.replicas = replicas;
  return config;
}

void expect_replica_partition(const ReplicationOutcome& o) {
  EXPECT_EQ(o.replicas_issued,
            o.replicas_correct + o.replicas_corrupt + o.replicas_crashed +
                o.replicas_missed_deadline + o.replicas_duplicate_host);
}

TEST(Replication, OneOfOneNoFaultsMatchesPlainChurnRun) {
  // The golden-oracle contract: replication 1/1 with no deadline and no
  // faults issues one replica per task in task order — the identical
  // select/commit sequence as the plain churn run, on the identical
  // sampled workload and interval realization. Bit-identical results.
  const auto hosts = model_hosts(150, 3);
  BagOfTasksConfig plain;
  plain.task_count = 600;
  BagOfTasksConfig replicated = plain;
  replicated.replication.enabled = true;
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kChurnEctCheckpoint,
        SchedulingPolicy::kChurnEctRestart,
        SchedulingPolicy::kChurnEctAbandon}) {
    util::Rng r1(11), r2(11);
    const BagOfTasksResult a = run_bag_of_tasks(hosts, plain, policy, r1);
    const BagOfTasksResult b =
        run_bag_of_tasks(hosts, replicated, policy, r2);
    EXPECT_EQ(a.makespan_days, b.makespan_days);
    EXPECT_EQ(a.total_cpu_days, b.total_cpu_days);
    EXPECT_EQ(a.wasted_cpu_days, b.wasted_cpu_days);
    EXPECT_EQ(a.interruptions, b.interruptions);
    EXPECT_EQ(a.hosts_used, b.hosts_used);
    EXPECT_EQ(b.replication.tasks_issued, 600u);
    EXPECT_EQ(b.replication.tasks_validated, 600u);
    EXPECT_TRUE(b.replication.conserves_tasks());
  }
}

TEST(Replication, OneOfOneNoFaultsMatchesPlainDeratedEctRun) {
  // kDynamicEct with model_availability: the plain run derates its rates
  // from the availability realization, and the replicated run derates
  // them from the same draw and keeps its timeline for the crash model,
  // so both sample the identical workload. A 1-of-1, fault-free,
  // deadline-free replicated run steps the selection one replica at a
  // time — the stepped and the batch use of the blocked ECT selection
  // must pick the same hosts. 2,000 hosts span 32 blocks.
  const auto hosts = model_hosts(2000, 5);
  BagOfTasksConfig plain;
  plain.task_count = 3000;
  plain.model_availability = true;
  BagOfTasksConfig replicated = plain;
  replicated.replication.enabled = true;
  util::Rng r1(19), r2(19);
  const BagOfTasksResult a =
      run_bag_of_tasks(hosts, plain, SchedulingPolicy::kDynamicEct, r1);
  const BagOfTasksResult b =
      run_bag_of_tasks(hosts, replicated, SchedulingPolicy::kDynamicEct, r2);
  EXPECT_EQ(a.makespan_days, b.makespan_days);
  EXPECT_EQ(a.total_cpu_days, b.total_cpu_days);
  EXPECT_EQ(a.max_host_busy_days, b.max_host_busy_days);
  EXPECT_EQ(a.mean_host_busy_days, b.mean_host_busy_days);
  EXPECT_EQ(a.hosts_used, b.hosts_used);
  EXPECT_EQ(b.replication.tasks_validated, 3000u);
  EXPECT_TRUE(b.replication.conserves_tasks());
}

TEST(Replication, ConservationAcrossPoliciesAndMixes) {
  // The zero-silently-lost-tasks invariant: every issued task resolves to
  // validated, invalid, or missed-deadline — across every ECT-family
  // policy and a spread of fault mixes.
  const auto hosts = model_hosts(200, 5);
  FaultMixConfig crashy;
  crashy.crash_fraction = 0.3;
  FaultMixConfig corrupting;
  corrupting.corrupter_fraction = 0.25;
  FaultMixConfig mixed;
  mixed.crash_fraction = 0.1;
  mixed.straggler_fraction = 0.1;
  mixed.corrupter_fraction = 0.1;
  for (const FaultMixConfig& mix : {crashy, corrupting, mixed}) {
    for (const SchedulingPolicy policy :
         {SchedulingPolicy::kDynamicEct,
          SchedulingPolicy::kChurnEctCheckpoint,
          SchedulingPolicy::kChurnEctRestart,
          SchedulingPolicy::kChurnEctAbandon}) {
      BagOfTasksConfig config = replicated_config(2, 3);
      config.task_count = 500;
      config.fault_mix = mix;
      config.replication.deadline_days = 5.0;
      config.replication.max_retries = 3;
      util::Rng rng(17);
      const BagOfTasksResult result =
          run_bag_of_tasks(hosts, config, policy, rng);
      EXPECT_EQ(result.replication.tasks_issued, 500u);
      EXPECT_TRUE(result.replication.conserves_tasks());
      expect_replica_partition(result.replication);
    }
  }
}

TEST(Replication, ScalarOracleMatchesFastPathBitwise) {
  // Same run, scalar reference kernels vs the auto-dispatched fast path:
  // identical makespans AND identical outcome counters, to the bit.
  const auto hosts = model_hosts(180, 9);
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kDynamicEct,
        SchedulingPolicy::kChurnEctCheckpoint,
        SchedulingPolicy::kChurnEctAbandon}) {
    BagOfTasksConfig fast = replicated_config(2, 3);
    fast.fault_mix.crash_fraction = 0.1;
    fast.fault_mix.corrupter_fraction = 0.1;
    fast.replication.deadline_days = 4.0;
    BagOfTasksConfig scalar = fast;
    scalar.backend = backend::Backend::kScalar;
    util::Rng r1(23), r2(23);
    const BagOfTasksResult f = run_bag_of_tasks(hosts, fast, policy, r1);
    const BagOfTasksResult s = run_bag_of_tasks(hosts, scalar, policy, r2);
    EXPECT_EQ(f.makespan_days, s.makespan_days);
    EXPECT_EQ(f.total_cpu_days, s.total_cpu_days);
    EXPECT_EQ(f.replication.tasks_validated, s.replication.tasks_validated);
    EXPECT_EQ(f.replication.tasks_invalid, s.replication.tasks_invalid);
    EXPECT_EQ(f.replication.tasks_missed_deadline,
              s.replication.tasks_missed_deadline);
    EXPECT_EQ(f.replication.replicas_crashed, s.replication.replicas_crashed);
    EXPECT_EQ(f.replication.reissues, s.replication.reissues);
    EXPECT_EQ(f.replication.wasted_replica_cpu_days,
              s.replication.wasted_replica_cpu_days);
    EXPECT_EQ(f.replication.reissue_latency_p99_days,
              s.replication.reissue_latency_p99_days);
  }
}

TEST(Replication, ScalarOracleMatchesFastPathAcrossReissueRounds) {
  // 5,000 hosts (79 blocks) under a 2-of-3 quorum whose deadline is
  // short enough that tasks fail every round, so advance_time reloads
  // the blocked selection before each re-issue round. The blocked
  // selections (kDynamicEct keyed on free_at, kChurnEctAbandon keyed on
  // the ready-at cursor) must reproduce the scalar oracle's schedule:
  // every host column and every counter, bit for bit.
  constexpr std::size_t kHosts = 5000;
  util::Rng rng(41);
  std::vector<double> rates(kHosts);
  for (double& r : rates) r = 50.0 + rng.uniform() * 5000.0;
  const churn::IntervalTimeline timeline = churn::IntervalTimeline::generate(
      synth::AvailabilityModel{}, kHosts, 0.0, 60.0, rng);
  FaultMixConfig mix;
  mix.crash_fraction = 0.15;
  mix.straggler_fraction = 0.15;
  mix.corrupter_fraction = 0.1;
  const FaultProfiles faults = sample_fault_profiles(kHosts, mix, rng);
  std::vector<double> tasks(4000);
  for (double& t : tasks) t = 200.0 + rng.uniform() * 4000.0;
  ReplicationConfig rep;
  rep.enabled = true;
  rep.quorum = 2;
  rep.replicas = 3;
  rep.deadline_days = 0.5;
  rep.max_retries = 2;

  for (const bool abandon : {false, true}) {
    ScheduleState fast = ScheduleState::from_rates(rates);
    ScheduleState oracle = ScheduleState::from_rates(rates);
    BagOfTasksResult f;
    BagOfTasksResult o;
    if (abandon) {
      churn::ChurnScheduler fast_sched(fast, timeline);
      churn::ChurnScheduler oracle_sched(oracle, timeline);
      f = run_replicated_churn(fast_sched, fast, tasks, faults, rep,
                               churn::InterruptionPolicy::kAbandon, false);
      o = run_replicated_churn(oracle_sched, oracle, tasks, faults, rep,
                               churn::InterruptionPolicy::kAbandon, true);
    } else {
      f = run_replicated_ect(fast, timeline, tasks, faults, rep,
                             backend::Backend::kAuto, false);
      o = run_replicated_ect(oracle, timeline, tasks, faults, rep,
                             backend::Backend::kAuto, true);
    }
    SCOPED_TRACE(abandon ? "kChurnEctAbandon" : "kDynamicEct");
    // Tasks fail terminally only in the last round (round max_retries),
    // so a failure proves that every re-issue round ran.
    EXPECT_GT(o.replication.tasks_invalid +
                  o.replication.tasks_missed_deadline,
              0u);
    EXPECT_GT(o.replication.reissues, 0u);
    EXPECT_EQ(f.makespan_days, o.makespan_days);
    EXPECT_EQ(f.total_cpu_days, o.total_cpu_days);
    EXPECT_EQ(f.wasted_cpu_days, o.wasted_cpu_days);
    EXPECT_EQ(f.interruptions, o.interruptions);
    EXPECT_EQ(f.hosts_used, o.hosts_used);
    const ReplicationOutcome& x = f.replication;
    const ReplicationOutcome& y = o.replication;
    EXPECT_EQ(x.tasks_issued, y.tasks_issued);
    EXPECT_EQ(x.tasks_validated, y.tasks_validated);
    EXPECT_EQ(x.tasks_invalid, y.tasks_invalid);
    EXPECT_EQ(x.tasks_missed_deadline, y.tasks_missed_deadline);
    EXPECT_EQ(x.replicas_issued, y.replicas_issued);
    EXPECT_EQ(x.replicas_correct, y.replicas_correct);
    EXPECT_EQ(x.replicas_corrupt, y.replicas_corrupt);
    EXPECT_EQ(x.replicas_crashed, y.replicas_crashed);
    EXPECT_EQ(x.replicas_missed_deadline, y.replicas_missed_deadline);
    EXPECT_EQ(x.replicas_duplicate_host, y.replicas_duplicate_host);
    EXPECT_EQ(x.reissues, y.reissues);
    EXPECT_EQ(x.wasted_replica_cpu_days, y.wasted_replica_cpu_days);
    EXPECT_EQ(x.reissue_latency_p50_days, y.reissue_latency_p50_days);
    EXPECT_EQ(x.reissue_latency_p90_days, y.reissue_latency_p90_days);
    EXPECT_EQ(x.reissue_latency_p99_days, y.reissue_latency_p99_days);
    EXPECT_EQ(x.last_validation_day, y.last_validation_day);
    std::size_t differing_hosts = 0;
    for (std::size_t h = 0; h < kHosts; ++h) {
      differing_hosts += fast.busy_days[h] != oracle.busy_days[h] ||
                         fast.free_at[h] != oracle.free_at[h];
    }
    EXPECT_EQ(differing_hosts, 0u);
  }
}

TEST(Replication, SweepOutcomesAreThreadCountInvariant) {
  std::vector<SweepPopulation> pops;
  pops.push_back({"P", model_hosts(120, 13)});

  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct,
                    SchedulingPolicy::kChurnEctCheckpoint};
  sweep.task_counts = {300, 600};
  sweep.base.replication.enabled = true;
  sweep.base.replication.quorum = 2;
  sweep.base.replication.replicas = 3;
  sweep.base.replication.deadline_days = 4.0;
  sweep.base.fault_mix.crash_fraction = 0.15;
  sweep.base.fault_mix.corrupter_fraction = 0.05;
  sweep.workload_seed = 77;

  sweep.threads = 1;
  const PolicySweepResult serial = run_policy_sweep(pops, sweep);
  sweep.threads = 4;
  const PolicySweepResult parallel = run_policy_sweep(pops, sweep);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const ReplicationOutcome& a = serial.cells[i].result.replication;
    const ReplicationOutcome& b = parallel.cells[i].result.replication;
    EXPECT_EQ(serial.cells[i].result.makespan_days,
              parallel.cells[i].result.makespan_days);
    EXPECT_EQ(a.tasks_validated, b.tasks_validated);
    EXPECT_EQ(a.tasks_invalid, b.tasks_invalid);
    EXPECT_EQ(a.tasks_missed_deadline, b.tasks_missed_deadline);
    EXPECT_EQ(a.replicas_issued, b.replicas_issued);
    EXPECT_EQ(a.reissues, b.reissues);
    EXPECT_EQ(a.wasted_replica_cpu_days, b.wasted_replica_cpu_days);
    EXPECT_TRUE(a.conserves_tasks());
  }
}

TEST(Replication, AllCorruptersYieldInvalidNeverSilentLoss) {
  // With every host corrupting, no quorum of matching correct digests can
  // ever form; each task must resolve to invalid (graceful degradation),
  // never hang or vanish.
  const auto hosts = model_hosts(100, 21);
  BagOfTasksConfig config = replicated_config(2, 3);
  config.task_count = 200;
  config.fault_mix.corrupter_fraction = 1.0;
  config.replication.deadline_days = 50.0;
  config.replication.max_retries = 1;
  util::Rng rng(31);
  const BagOfTasksResult result =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, rng);
  EXPECT_EQ(result.replication.tasks_validated, 0u);
  // Most tasks fail the quorum outright; a deadline-tail few may time out
  // instead — but every task resolves to one of the two failure codes.
  EXPECT_GT(result.replication.tasks_invalid, 150u);
  EXPECT_EQ(result.replication.tasks_invalid +
                result.replication.tasks_missed_deadline,
            200u);
  EXPECT_TRUE(result.replication.conserves_tasks());
  EXPECT_GT(result.replication.replicas_corrupt, 0u);
}

TEST(Replication, QuorumRedundancySurvivesCorruptionSingleCopyDoesNot) {
  // 25% corrupters: a single unreplicated copy loses about a quarter of
  // the tasks; 2-of-3 quorum replication recovers nearly all of them.
  const auto hosts = model_hosts(200, 27);
  BagOfTasksConfig single = replicated_config(1, 1);
  single.fault_mix.corrupter_fraction = 0.25;
  BagOfTasksConfig quorum = replicated_config(2, 3);
  quorum.fault_mix.corrupter_fraction = 0.25;
  util::Rng r1(41), r2(41);
  const BagOfTasksResult s =
      run_bag_of_tasks(hosts, single, SchedulingPolicy::kDynamicEct, r1);
  const BagOfTasksResult q =
      run_bag_of_tasks(hosts, quorum, SchedulingPolicy::kDynamicEct, r2);
  EXPECT_TRUE(s.replication.conserves_tasks());
  EXPECT_TRUE(q.replication.conserves_tasks());
  EXPECT_GT(s.replication.tasks_invalid, 800u / 8);  // ~25% corrupted
  // Quorum replication recovers tasks a single copy loses — though less
  // than independence would predict, because ECT concentrates the three
  // replicas of a task on the same fast (and possibly corrupt) hosts.
  EXPECT_GT(q.replication.tasks_validated, s.replication.tasks_validated);
  EXPECT_LT(q.replication.tasks_invalid, s.replication.tasks_invalid);
  // Redundancy has a price, and the accounting must show it.
  EXPECT_GT(q.replication.wasted_replica_cpu_days,
            s.replication.wasted_replica_cpu_days);
}

TEST(Replication, ImpossibleDeadlineExhaustsRetriesGracefully) {
  // A deadline no host can meet: every round times out, re-issues happen
  // exactly max_retries times per task, and every task ends
  // missed-deadline — bounded, accounted, no infinite loop.
  const auto hosts = model_hosts(80, 33);
  BagOfTasksConfig config = replicated_config(1, 1);
  config.task_count = 150;
  config.replication.deadline_days = 1e-7;
  config.replication.max_retries = 2;
  util::Rng rng(51);
  const BagOfTasksResult result =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, rng);
  EXPECT_EQ(result.replication.tasks_validated, 0u);
  EXPECT_EQ(result.replication.tasks_missed_deadline, 150u);
  EXPECT_EQ(result.replication.reissues, 150u * 2);
  EXPECT_TRUE(result.replication.conserves_tasks());
  EXPECT_GT(result.replication.replicas_missed_deadline, 0u);
}

TEST(Replication, DeadlinedRunReportsReissueLatencies) {
  // A tight-but-meetable deadline with crashy hosts: some tasks need a
  // second round, and their validation latencies populate the
  // percentiles (p50 <= p90 <= p99, all past the first-round window).
  const auto hosts = model_hosts(150, 35);
  BagOfTasksConfig config = replicated_config(2, 3);
  config.fault_mix.crash_fraction = 0.3;
  config.replication.deadline_days = 2.0;
  util::Rng rng(61);
  const BagOfTasksResult result = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctCheckpoint, rng);
  ASSERT_TRUE(result.replication.conserves_tasks());
  if (result.replication.reissues > 0 &&
      result.replication.reissue_latency_p50_days > 0.0) {
    EXPECT_LE(result.replication.reissue_latency_p50_days,
              result.replication.reissue_latency_p90_days);
    EXPECT_LE(result.replication.reissue_latency_p90_days,
              result.replication.reissue_latency_p99_days);
    EXPECT_GT(result.replication.reissue_latency_p50_days, 2.0);
  }
}

TEST(Replication, DeterministicForFixedSeed) {
  const auto hosts = model_hosts(100, 43);
  BagOfTasksConfig config = replicated_config(2, 3);
  config.fault_mix.crash_fraction = 0.1;
  config.fault_mix.straggler_fraction = 0.1;
  config.replication.deadline_days = 3.0;
  util::Rng r1(71), r2(71);
  const BagOfTasksResult a = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctRestart, r1);
  const BagOfTasksResult b = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctRestart, r2);
  EXPECT_EQ(a.makespan_days, b.makespan_days);
  EXPECT_EQ(a.replication.tasks_validated, b.replication.tasks_validated);
  EXPECT_EQ(a.replication.replicas_crashed, b.replication.replicas_crashed);
  EXPECT_EQ(a.replication.wasted_replica_cpu_days,
            b.replication.wasted_replica_cpu_days);
}

TEST(Replication, RejectsNonEctPoliciesAndBadConfigs) {
  const auto hosts = model_hosts(50, 47);
  BagOfTasksConfig config = replicated_config(2, 3);
  util::Rng rng(81);
  EXPECT_THROW(run_bag_of_tasks(hosts, config,
                                SchedulingPolicy::kStaticRoundRobin, rng),
               std::invalid_argument);
  EXPECT_THROW(
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, rng),
      std::invalid_argument);
  BagOfTasksConfig bad_quorum = replicated_config(4, 3);
  EXPECT_THROW(run_bag_of_tasks(hosts, bad_quorum,
                                SchedulingPolicy::kDynamicEct, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::sim
