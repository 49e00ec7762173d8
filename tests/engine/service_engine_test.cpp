// Engine-vs-oracle equivalence and engine invariants. The contract under
// test (src/engine/README.md): run_service_engine is bit-identical to
// boinc::run_collection for any shard/thread count, conserves work units
// after every drained batch, and the quorum overlay's outcome is a pure
// function of the config.
#include "engine/service_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "boinc/client.h"
#include "boinc/server.h"
#include "boinc/simulation.h"

namespace resmodel::engine {
namespace {

boinc::CollectionConfig base_collection(std::uint64_t seed) {
  boinc::CollectionConfig config;
  config.population.seed = seed;
  config.population.target_active_hosts = 250;
  config.population.sim_start = util::ModelDate::from_ymd(2006, 1, 1);
  config.population.sim_end = util::ModelDate::from_ymd(2007, 6, 1);
  config.client.mean_contact_interval_days = 3.0;
  return config;
}

EngineConfig engine_config(const boinc::CollectionConfig& collection,
                           std::uint32_t shards, int threads = 1) {
  EngineConfig config;
  config.collection = collection;
  config.shards = shards;
  config.threads = threads;
  config.batch_size = 256;  // small batch => many conservation recounts
  return config;
}

/// The fault/availability scenarios the equivalence claim is pinned on.
std::vector<boinc::CollectionConfig> scenario_configs() {
  std::vector<boinc::CollectionConfig> configs;

  configs.push_back(base_collection(31));  // plain honest population

  boinc::CollectionConfig avail = base_collection(32);
  avail.client.model_availability = true;
  configs.push_back(avail);

  boinc::CollectionConfig crash = base_collection(33);
  crash.client.model_availability = true;  // crashes need sessions
  crash.fault_mix.crash_fraction = 0.3;
  configs.push_back(crash);

  boinc::CollectionConfig straggler = base_collection(34);
  straggler.fault_mix.straggler_fraction = 0.3;
  configs.push_back(straggler);

  boinc::CollectionConfig corrupter = base_collection(35);
  corrupter.fault_mix.corrupter_fraction = 0.3;
  configs.push_back(corrupter);

  boinc::CollectionConfig mixed = base_collection(36);
  mixed.client.model_availability = true;
  mixed.fault_mix.crash_fraction = 0.2;
  mixed.fault_mix.straggler_fraction = 0.2;
  mixed.fault_mix.corrupter_fraction = 0.2;
  mixed.server.report_deadline_days = 10.0;
  configs.push_back(mixed);

  return configs;
}

std::vector<trace::HostRecord> sorted_by_id(const trace::TraceStore& store) {
  std::vector<trace::HostRecord> hosts(store.hosts().begin(),
                                       store.hosts().end());
  std::sort(hosts.begin(), hosts.end(),
            [](const trace::HostRecord& a, const trace::HostRecord& b) {
              return a.id < b.id;
            });
  return hosts;
}

void expect_same_record(const trace::HostRecord& a,
                        const trace::HostRecord& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.created_day, b.created_day);
  EXPECT_EQ(a.last_contact_day, b.last_contact_day);
  EXPECT_EQ(a.n_cores, b.n_cores);
  EXPECT_EQ(a.memory_mb, b.memory_mb);
  EXPECT_EQ(a.dhrystone_mips, b.dhrystone_mips);
  EXPECT_EQ(a.whetstone_mips, b.whetstone_mips);
  EXPECT_EQ(a.disk_avail_gb, b.disk_avail_gb);
  EXPECT_EQ(a.disk_total_gb, b.disk_total_gb);
  EXPECT_EQ(a.cpu, b.cpu);
  EXPECT_EQ(a.os, b.os);
  EXPECT_EQ(a.gpu, b.gpu);
  EXPECT_EQ(a.gpu_memory_mb, b.gpu_memory_mb);
}

void expect_matches_oracle(const EngineResult& engine,
                           const boinc::CollectionResult& oracle) {
  EXPECT_EQ(engine.hosts_created, oracle.hosts_created);
  EXPECT_EQ(engine.total_contacts, oracle.total_contacts);
  EXPECT_EQ(engine.total_units_granted, oracle.total_units_granted);
  // Exact: every credit increment is an integer multiple of the (exactly
  // representable) credit_per_unit, so the fold order cannot matter.
  EXPECT_EQ(engine.total_credit_granted, oracle.total_credit_granted);
  EXPECT_EQ(engine.total_units_lost, oracle.total_units_lost);
  EXPECT_EQ(engine.total_units_expired, oracle.total_units_expired);
  EXPECT_EQ(engine.total_invalid_result_units,
            oracle.total_invalid_result_units);

  const std::vector<trace::HostRecord> a = sorted_by_id(engine.trace);
  const std::vector<trace::HostRecord> b = sorted_by_id(oracle.trace);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_record(a[i], b[i]);
}

TEST(ServiceEngine, MatchesOracleAcrossFaultScenarios) {
  for (const boinc::CollectionConfig& collection : scenario_configs()) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << collection.population.seed);
    const boinc::CollectionResult oracle = boinc::run_collection(collection);
    ASSERT_GT(oracle.hosts_created, 500u);  // ~1k-client scale
    const EngineResult engine =
        run_service_engine(engine_config(collection, 3));
    expect_matches_oracle(engine, oracle);
    EXPECT_TRUE(engine.conserves_units());
    EXPECT_GT(engine.batches_drained, 1u);
  }
}

TEST(ServiceEngine, PerClientAccountsMatchSoloOracle) {
  // Client independence is the engine's core argument: a client's account
  // against a private server equals its account inside the full run.
  boinc::CollectionConfig collection = base_collection(36);
  collection.client.model_availability = true;
  collection.fault_mix.crash_fraction = 0.2;
  collection.fault_mix.straggler_fraction = 0.2;
  collection.fault_mix.corrupter_fraction = 0.2;
  collection.server.report_deadline_days = 10.0;

  EngineConfig config = engine_config(collection, 4);
  config.record_per_client = true;
  const EngineResult engine = run_service_engine(config);

  const std::vector<boinc::ArrivedClient> arrivals =
      boinc::build_arrivals(collection);
  ASSERT_EQ(engine.per_client.size(), arrivals.size());
  const double end_day =
      static_cast<double>(collection.population.sim_end.day_index());

  const std::size_t stride = std::max<std::size_t>(arrivals.size() / 23, 1);
  for (std::size_t i = 0; i < arrivals.size(); i += stride) {
    SCOPED_TRACE(::testing::Message() << "client " << i);
    const boinc::ArrivedClient& arrival = arrivals[i];
    boinc::ClientConfig cc = collection.client;
    cc.fault = arrival.fault;
    cc.straggler_slowdown = arrival.straggler_slowdown;
    boinc::VirtualClient client(arrival.spec, cc, arrival.rng);
    boinc::ProjectServer server(collection.server);
    std::uint64_t contacts = 0;
    while (client.alive() && client.next_contact_day() <= end_day) {
      const boinc::SchedulerRequest request = client.make_request();
      client.handle_reply(server.handle_request(request));
      ++contacts;
    }

    const ClientAccount& account = engine.per_client[i];
    EXPECT_EQ(account.id, arrival.spec.id);
    EXPECT_EQ(account.contacts, contacts);
    EXPECT_EQ(account.units_granted, server.total_units_granted());
    EXPECT_EQ(account.credit, server.total_credit_granted());
    EXPECT_EQ(account.units_lost, server.total_units_lost());
    EXPECT_EQ(account.units_expired, server.total_units_expired());
    EXPECT_EQ(account.units_invalid, server.total_invalid_result_units());
    // The solo server exposes no queue accessor; pin the in-flight count
    // through the conservation identity instead.
    EXPECT_EQ(account.units_in_flight,
              account.units_granted - account.units_reported -
                  account.units_invalid - account.units_lost -
                  account.units_expired);
  }
}

TEST(ServiceEngine, BitIdenticalAcrossShardAndThreadCounts) {
  boinc::CollectionConfig collection = base_collection(40);
  collection.client.model_availability = true;
  collection.fault_mix.crash_fraction = 0.15;
  collection.fault_mix.corrupter_fraction = 0.15;
  collection.server.report_deadline_days = 8.0;

  const EngineResult reference =
      run_service_engine(engine_config(collection, 1));
  for (const auto& [shards, threads] :
       std::vector<std::pair<std::uint32_t, int>>{
           {3, 1}, {8, 1}, {8, 4}, {8, 0}}) {
    SCOPED_TRACE(::testing::Message()
                 << "shards " << shards << " threads " << threads);
    const EngineResult run =
        run_service_engine(engine_config(collection, shards, threads));
    EXPECT_EQ(run.total_contacts, reference.total_contacts);
    EXPECT_EQ(run.total_units_granted, reference.total_units_granted);
    EXPECT_EQ(run.total_units_reported, reference.total_units_reported);
    EXPECT_EQ(run.total_credit_granted, reference.total_credit_granted);
    EXPECT_EQ(run.total_units_lost, reference.total_units_lost);
    EXPECT_EQ(run.total_units_expired, reference.total_units_expired);
    EXPECT_EQ(run.total_invalid_result_units,
              reference.total_invalid_result_units);
    EXPECT_EQ(run.units_in_flight, reference.units_in_flight);
    // The engine's trace is emitted in global client order regardless of
    // sharding, so it must match element-wise, not just as a set.
    ASSERT_EQ(run.trace.size(), reference.trace.size());
    for (std::size_t i = 0; i < run.trace.size(); ++i) {
      expect_same_record(run.trace.host(i), reference.trace.host(i));
    }
  }
}

TEST(ServiceEngine, QuorumOutcomeConservesAndIsShardInvariant) {
  boinc::CollectionConfig collection = base_collection(50);
  collection.client.model_availability = true;
  collection.fault_mix.crash_fraction = 0.2;
  collection.fault_mix.corrupter_fraction = 0.2;

  EngineConfig config = engine_config(collection, 1);
  config.replication.enabled = true;
  config.replication.replicas = 3;
  config.replication.quorum = 2;
  // Tighter than the 3-day contact cadence, so deadline write-offs occur.
  config.replication.deadline_days = 2.0;

  const EngineResult a = run_service_engine(config);
  config.shards = 4;
  const EngineResult b = run_service_engine(config);

  for (const EngineResult* r : {&a, &b}) {
    EXPECT_TRUE(r->conserves_units());
    EXPECT_TRUE(r->quorum.conserves_tasks());
    EXPECT_TRUE(r->quorum.conserves_replicas());
    EXPECT_GT(r->quorum.tasks_issued, 0u);
    EXPECT_GT(r->quorum.tasks_validated, 0u);
    // The replication deadline overrides the server deadline, so expiries
    // must show up in both the substrate and the overlay.
    EXPECT_GT(r->total_units_expired, 0u);
    EXPECT_GT(r->quorum.replicas_missed_deadline, 0u);
    EXPECT_GT(r->quorum.replicas_corrupt, 0u);
    EXPECT_GT(r->quorum.replicas_crashed, 0u);
  }

  EXPECT_EQ(a.quorum.tasks_issued, b.quorum.tasks_issued);
  EXPECT_EQ(a.quorum.tasks_validated, b.quorum.tasks_validated);
  EXPECT_EQ(a.quorum.tasks_invalid, b.quorum.tasks_invalid);
  EXPECT_EQ(a.quorum.tasks_missed_deadline, b.quorum.tasks_missed_deadline);
  EXPECT_EQ(a.quorum.tasks_pending, b.quorum.tasks_pending);
  EXPECT_EQ(a.quorum.replicas_issued, b.quorum.replicas_issued);
  EXPECT_EQ(a.quorum.replicas_correct, b.quorum.replicas_correct);
  EXPECT_EQ(a.quorum.replicas_corrupt, b.quorum.replicas_corrupt);
  EXPECT_EQ(a.quorum.replicas_crashed, b.quorum.replicas_crashed);
  EXPECT_EQ(a.quorum.replicas_missed_deadline,
            b.quorum.replicas_missed_deadline);
  EXPECT_EQ(a.quorum.replicas_duplicate_host,
            b.quorum.replicas_duplicate_host);
  EXPECT_EQ(a.quorum.replicas_in_flight, b.quorum.replicas_in_flight);
  EXPECT_EQ(a.total_units_granted, b.total_units_granted);
  EXPECT_EQ(a.total_units_expired, b.total_units_expired);
}

TEST(ServiceEngine, CohortModeIsDeterministicAcrossShardsAndThreads) {
  EngineConfig config;
  config.collection.client.mean_contact_interval_days = 2.0;
  config.cohort_clients = 500;
  config.cohort_horizon_days = 7.0;
  config.collection.fault_mix.straggler_fraction = 0.2;
  config.shards = 1;

  const EngineResult a = run_service_engine(config);
  EXPECT_EQ(a.hosts_created, 500u);
  EXPECT_EQ(a.trace.size(), 500u);  // everyone contacts on day 0
  EXPECT_GE(a.total_contacts, 500u);
  EXPECT_TRUE(a.conserves_units());

  config.shards = 5;
  config.threads = 3;
  const EngineResult b = run_service_engine(config);
  EXPECT_EQ(b.total_contacts, a.total_contacts);
  EXPECT_EQ(b.total_units_granted, a.total_units_granted);
  EXPECT_EQ(b.total_credit_granted, a.total_credit_granted);
  EXPECT_EQ(b.units_in_flight, a.units_in_flight);
  ASSERT_EQ(b.trace.size(), a.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    expect_same_record(b.trace.host(i), a.trace.host(i));
  }
}

TEST(ServiceEngine, ValidatesConfig) {
  EngineConfig config;
  config.cohort_clients = 10;
  config.cohort_horizon_days = 1.0;

  EngineConfig bad = config;
  bad.shards = 0;
  EXPECT_THROW(run_service_engine(bad), std::invalid_argument);

  bad = config;
  bad.batch_size = 0;
  EXPECT_THROW(run_service_engine(bad), std::invalid_argument);

  bad = config;
  bad.cohort_horizon_days = 0.0;
  EXPECT_THROW(run_service_engine(bad), std::invalid_argument);

  bad = config;
  bad.replication.enabled = true;
  bad.replication.quorum = 4;
  bad.replication.replicas = 2;
  EXPECT_THROW(run_service_engine(bad), std::invalid_argument);

  bad = config;
  bad.collection.client.mean_contact_interval_days = -1.0;
  EXPECT_THROW(run_service_engine(bad), std::invalid_argument);

  // Crash faults need availability sessions to die at.
  bad = config;
  bad.collection.fault_mix.crash_fraction = 0.1;
  EXPECT_THROW(run_service_engine(bad), std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::engine
