// Greedy round-robin resource allocation (§VII).
//
// "The simulation calculates the utility of each application running on
// each resource, then assigns resources to applications in a greedy
// round-robin fashion": applications take turns, each claiming the
// still-unassigned host with the highest utility for it, until every host
// is assigned.
//
// The hot path is columnar and log-domain: each application's preference
// score is the fused sweep
//   alpha*logC + beta*logM + gamma*logI + delta*logF + epsilon*logD
// over the precomputed log columns of a HostResourcesSoA — monotone in the
// Cobb-Douglas utility, so ordering needs no pow/exp per pair; exp is
// applied only to the hosts an application actually wins, when summing its
// total utility. Equal-score hosts are ordered by ascending host index,
// making assignments deterministic across standard libraries.
#pragma once

#include <span>
#include <vector>

#include "backend/backend.h"
#include "sim/host_soa.h"
#include "sim/utility.h"

namespace resmodel::sim {

/// Result of one allocation run.
struct AllocationResult {
  /// total_utility[a] = sum of utilities of hosts assigned to app a.
  std::vector<double> total_utility;
  /// hosts_assigned[a] = number of hosts app a received.
  std::vector<std::size_t> hosts_assigned;
  /// assignment[h] = application index owning host h.
  std::vector<std::size_t> assignment;
};

/// Runs the greedy round-robin allocation of every host to the given
/// applications over a columnar host set. The per-application score+sort
/// phase runs on `threads` workers (0 = hardware concurrency); the result
/// is identical for any thread count. Complexity O(A * N log N) via
/// per-application key-value sorted preference lists.
///
/// `backend` == kScalar transposes to AoS and delegates to
/// allocate_round_robin_reference (src/backend/README.md); every other arm
/// runs the one autovectorized score+pack loop. Allocations are identical
/// across arms.
AllocationResult allocate_round_robin(
    std::span<const ApplicationSpec> apps, const HostResourcesSoA& hosts,
    int threads = 0, backend::Backend backend = backend::Backend::kAuto);

/// The pre-SoA implementation — per-pair std::pow utilities and a
/// comparator index sort — retained as the benchmark baseline and as the
/// golden oracle for the SoA equivalence tests. Same deterministic
/// host-index tie-break as the SoA path.
AllocationResult allocate_round_robin_reference(
    std::span<const ApplicationSpec> apps,
    std::span<const HostResources> hosts);

}  // namespace resmodel::sim
