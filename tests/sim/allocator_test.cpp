#include "sim/allocator.h"

#include <gtest/gtest.h>

namespace resmodel::sim {
namespace {

HostResources host(double cores, double mem, double dhry, double whet,
                   double disk) {
  return {cores, mem, dhry, whet, disk};
}

AllocationResult allocate(std::span<const ApplicationSpec> apps,
                          const std::vector<HostResources>& hosts) {
  return allocate_round_robin(apps, HostResourcesSoA::from_hosts(hosts));
}

TEST(Allocator, ThrowsWithoutApplications) {
  const std::vector<HostResources> hosts = {host(1, 1024, 2000, 1000, 10)};
  EXPECT_THROW(allocate({}, hosts), std::invalid_argument);
}

TEST(Allocator, EmptyHostsGiveZeroUtility) {
  const auto apps = paper_applications();
  const AllocationResult r = allocate(apps, {});
  ASSERT_EQ(r.total_utility.size(), apps.size());
  for (double u : r.total_utility) EXPECT_DOUBLE_EQ(u, 0.0);
}

TEST(Allocator, EveryHostAssignedExactlyOnce) {
  const auto apps = paper_applications();
  std::vector<HostResources> hosts;
  for (int i = 0; i < 103; ++i) {
    hosts.push_back(host(1 + i % 4, 512 * (1 + i % 8), 2000 + i, 1000 + i,
                         5 + i));
  }
  const AllocationResult r = allocate(apps, hosts);
  std::size_t assigned_total = 0;
  for (std::size_t n : r.hosts_assigned) assigned_total += n;
  EXPECT_EQ(assigned_total, hosts.size());
  for (std::size_t owner : r.assignment) {
    ASSERT_LT(owner, apps.size());
  }
}

TEST(Allocator, RoundRobinSharesEvenly) {
  const auto apps = paper_applications();
  std::vector<HostResources> hosts(40, host(2, 2048, 4000, 1800, 50));
  const AllocationResult r = allocate(apps, hosts);
  for (std::size_t n : r.hosts_assigned) {
    EXPECT_EQ(n, 10u);
  }
}

TEST(Allocator, FirstPickGoesToHighestUtility) {
  const ApplicationSpec cpu_app{"cpu", 0.0, 0.0, 1.0, 0.0, 0.0};
  std::vector<HostResources> hosts = {
      host(1, 1024, 1000, 1000, 10),
      host(1, 1024, 9000, 1000, 10),  // fastest integer host
      host(1, 1024, 3000, 1000, 10),
  };
  const AllocationResult r =
      allocate(std::vector<ApplicationSpec>{cpu_app}, hosts);
  EXPECT_EQ(r.assignment[1], 0u);
  EXPECT_DOUBLE_EQ(r.total_utility[0], 1000.0 + 9000.0 + 3000.0);
}

TEST(Allocator, SpecializedAppsGetTheirPreferredHosts) {
  // One disk monster and one CPU monster; P2P should take the disk host
  // and a CPU-bound app the fast host, regardless of turn order.
  const ApplicationSpec cpu_app{"cpu", 0.0, 0.0, 0.5, 0.5, 0.0};
  const ApplicationSpec disk_app{"disk", 0.0, 0.0, 0.0, 0.0, 1.0};
  std::vector<HostResources> hosts = {
      host(1, 1024, 9000, 4000, 1),    // CPU monster
      host(1, 1024, 1000, 500, 2000),  // disk monster
  };
  const AllocationResult r =
      allocate(std::vector<ApplicationSpec>{cpu_app, disk_app}, hosts);
  EXPECT_EQ(r.assignment[0], 0u);
  EXPECT_EQ(r.assignment[1], 1u);
}

TEST(Allocator, MoreAppsThanHosts) {
  const auto apps = paper_applications();
  std::vector<HostResources> hosts = {host(2, 2048, 4000, 1800, 50)};
  const AllocationResult r = allocate(apps, hosts);
  std::size_t assigned = 0;
  for (std::size_t n : r.hosts_assigned) assigned += n;
  EXPECT_EQ(assigned, 1u);
  EXPECT_EQ(r.hosts_assigned[0], 1u);  // first app in turn order wins
}

TEST(Allocator, UtilitySumsMatchAssignments) {
  const auto apps = paper_applications();
  std::vector<HostResources> hosts;
  for (int i = 0; i < 37; ++i) {
    hosts.push_back(host(1 + i % 8, 256 * (1 + i % 16), 1500 + 100 * i,
                         900 + 50 * i, 1 + i * 3));
  }
  const AllocationResult r = allocate(apps, hosts);
  std::vector<double> recomputed(apps.size(), 0.0);
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    recomputed[r.assignment[h]] +=
        cobb_douglas_utility(apps[r.assignment[h]], hosts[h]);
  }
  for (std::size_t a = 0; a < apps.size(); ++a) {
    EXPECT_NEAR(r.total_utility[a], recomputed[a], 1e-9);
  }
}

}  // namespace
}  // namespace resmodel::sim
