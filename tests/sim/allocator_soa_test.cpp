// Golden equivalence of the columnar log-domain allocator against the
// retained pow-domain reference implementation, plus the determinism and
// thread-invariance guarantees of the SoA path.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/host_generator.h"
#include "core/model_params.h"
#include "sim/allocator.h"
#include "synth/population.h"
#include "util/rng.h"

namespace resmodel::sim {
namespace {

void expect_equivalent(const AllocationResult& reference,
                       const AllocationResult& soa) {
  ASSERT_EQ(reference.assignment.size(), soa.assignment.size());
  for (std::size_t h = 0; h < reference.assignment.size(); ++h) {
    ASSERT_EQ(reference.assignment[h], soa.assignment[h]) << "host " << h;
  }
  ASSERT_EQ(reference.hosts_assigned.size(), soa.hosts_assigned.size());
  for (std::size_t a = 0; a < reference.hosts_assigned.size(); ++a) {
    EXPECT_EQ(reference.hosts_assigned[a], soa.hosts_assigned[a]);
    const double expected = reference.total_utility[a];
    EXPECT_NEAR(soa.total_utility[a], expected,
                1e-9 * std::max(1.0, std::fabs(expected)));
  }
}

TEST(AllocatorSoA, MatchesReferenceOnGeneratedHosts) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(42);
  const core::GeneratedHostBatch batch = generator.generate_batch(
      util::ModelDate::from_ymd(2010, 6, 1), 3000, rng);
  const HostResourcesSoA soa = HostResourcesSoA::from_batch(batch);
  const std::vector<HostResources> aos = soa.to_hosts();

  const auto apps = paper_applications();
  expect_equivalent(allocate_round_robin_reference(apps, aos),
                    allocate_round_robin(apps, soa));
}

TEST(AllocatorSoA, MatchesReferenceOnTraceSnapshot) {
  synth::PopulationConfig config;
  config.seed = 7;
  config.target_active_hosts = 800;
  const trace::TraceStore store = synth::generate_population(config);
  const HostResourcesSoA soa = HostResourcesSoA::from_snapshot(
      store.snapshot_plausible(util::ModelDate::from_ymd(2009, 6, 1)));
  ASSERT_GT(soa.size(), 100u);
  const std::vector<HostResources> aos = soa.to_hosts();

  const auto apps = paper_applications();
  expect_equivalent(allocate_round_robin_reference(apps, aos),
                    allocate_round_robin(apps, soa));
}

TEST(AllocatorSoA, TiesBreakByHostIndex) {
  // All hosts identical: every preference list degenerates to pure ties,
  // so the deterministic order is by host index and the round-robin turn
  // order pins assignment[h] = h mod A — on every standard library.
  const auto apps = paper_applications();
  std::vector<HostResources> hosts(41, {2.0, 2048.0, 4000.0, 1800.0, 50.0});
  const HostResourcesSoA soa = HostResourcesSoA::from_hosts(hosts);

  const AllocationResult r = allocate_round_robin(apps, soa);
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    EXPECT_EQ(r.assignment[h], h % apps.size()) << "host " << h;
  }
  // The reference path applies the same tie-break.
  expect_equivalent(allocate_round_robin_reference(apps, hosts), r);
}

TEST(AllocatorSoA, DuplicateBlocksStayDeterministic) {
  // Blocks of duplicated hosts interleaved with distinct ones: repeated
  // runs must agree bit for bit.
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(11);
  HostResourcesSoA soa = HostResourcesSoA::from_batch(
      generator.generate_batch(util::ModelDate::from_ymd(2010, 1, 1), 64,
                               rng));
  std::vector<HostResources> hosts = soa.to_hosts();
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t i = 0; i < 64; ++i) hosts.push_back(hosts[i]);
  }
  const HostResourcesSoA dup = HostResourcesSoA::from_hosts(hosts);

  const auto apps = paper_applications();
  const AllocationResult first = allocate_round_robin(apps, dup);
  const AllocationResult second = allocate_round_robin(apps, dup);
  EXPECT_EQ(first.assignment, second.assignment);
  expect_equivalent(allocate_round_robin_reference(apps, hosts), first);
}

TEST(AllocatorSoA, RefinesScoresBelowFloatResolution) {
  // Hosts whose utilities differ by ~1e-10 relative: the 32-bit sort keys
  // collide (float resolution is ~1e-7), so the exact-score refinement
  // pass must reproduce the reference ordering. Descending disk order
  // makes the naive index tie-break the *wrong* answer.
  const ApplicationSpec disk_app{"disk", 0.0, 0.0, 0.0, 0.0, 1.0};
  const ApplicationSpec cpu_app{"cpu", 0.0, 0.0, 1.0, 0.0, 0.0};
  std::vector<HostResources> hosts;
  for (int i = 0; i < 40; ++i) {
    hosts.push_back({1.0, 1024.0, 2000.0 + 2000.0 * i * 1e-10, 1000.0,
                     100.0 - 100.0 * i * 1e-10});
  }
  const std::vector<ApplicationSpec> apps = {disk_app, cpu_app};
  expect_equivalent(allocate_round_robin_reference(apps, hosts),
                    allocate_round_robin(apps,
                                         HostResourcesSoA::from_hosts(hosts)));
}

TEST(AllocatorSoA, ThreadCountInvariant) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(21);
  const HostResourcesSoA soa = HostResourcesSoA::from_batch(
      generator.generate_batch(util::ModelDate::from_ymd(2010, 9, 1), 4000,
                               rng));

  const auto apps = paper_applications();
  const AllocationResult one = allocate_round_robin(apps, soa, 1);
  for (int threads : {2, 4, 7}) {
    const AllocationResult many = allocate_round_robin(apps, soa, threads);
    EXPECT_EQ(one.assignment, many.assignment);
    EXPECT_EQ(one.hosts_assigned, many.hosts_assigned);
    for (std::size_t a = 0; a < apps.size(); ++a) {
      EXPECT_DOUBLE_EQ(one.total_utility[a], many.total_utility[a]);
    }
  }
}

TEST(AllocatorSoA, LazyLogColumnsMatchPrecomputed) {
  // A hand-assembled SoA without precompute_logs() must allocate the same
  // way as one whose adapter filled the log columns.
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(5);
  const HostResourcesSoA ready = HostResourcesSoA::from_batch(
      generator.generate_batch(util::ModelDate::from_ymd(2007, 1, 1), 300,
                               rng));
  HostResourcesSoA bare;
  bare.cores = ready.cores;
  bare.memory_mb = ready.memory_mb;
  bare.dhrystone_mips = ready.dhrystone_mips;
  bare.whetstone_mips = ready.whetstone_mips;
  bare.disk_avail_gb = ready.disk_avail_gb;
  ASSERT_FALSE(bare.logs_ready());

  const auto apps = paper_applications();
  const AllocationResult a = allocate_round_robin(apps, ready);
  const AllocationResult b = allocate_round_robin(apps, bare);
  EXPECT_EQ(a.assignment, b.assignment);
}

}  // namespace
}  // namespace resmodel::sim
