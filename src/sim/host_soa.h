// Structure-of-arrays host set for the allocation pipeline.
//
// core::GeneratedHostBatch carries the columnar layout through generation;
// HostResourcesSoA carries it the rest of the way into the §VII utility
// allocator. Besides the five raw resource columns it holds the five
// log-domain columns log(max(x, kUtilityFloor)) that the allocator's
// fused-multiply-add scoring sweep consumes: the Cobb-Douglas utility
//   Y_A(H) = C^alpha * M^beta * I^gamma * F^delta * D^epsilon
// becomes, in the log domain,
//   log Y_A(H) = alpha*logC + beta*logM + gamma*logI + delta*logF
//              + epsilon*logD,
// and exp is monotone, so preference *ordering* never needs exp at all.
// The logs are computed once per host set (by the adapters) and amortized
// across every application scored against it.
#pragma once

#include <span>
#include <vector>

#include "core/host_generator.h"
#include "sim/utility.h"
#include "trace/trace_store.h"

namespace resmodel::sim {

/// log(max(x, kUtilityFloor)) over one resource column — the shared
/// clamp+log used by HostResourcesSoA::precompute_logs() and by the
/// allocator's on-the-fly fallback for SoAs without log columns.
std::vector<double> log_utility_column(const std::vector<double>& column);

/// Columnar host set: index i across all columns is one host. Built via
/// the from_* adapters (which also fill the log columns); hand-assembled
/// instances should call precompute_logs() before allocation, though the
/// allocator recomputes locally if they do not.
struct HostResourcesSoA {
  std::vector<double> cores;
  std::vector<double> memory_mb;
  std::vector<double> dhrystone_mips;  // integer speed I
  std::vector<double> whetstone_mips;  // floating point speed F
  std::vector<double> disk_avail_gb;

  /// log(max(column, kUtilityFloor)), same order as the raw columns.
  std::vector<double> log_cores;
  std::vector<double> log_memory_mb;
  std::vector<double> log_dhrystone_mips;
  std::vector<double> log_whetstone_mips;
  std::vector<double> log_disk_avail_gb;

  std::size_t size() const noexcept { return cores.size(); }
  bool empty() const noexcept { return cores.empty(); }

  /// Resizes the five raw columns and clears the log columns (any
  /// previously computed logs are stale once the raw data changes).
  void resize(std::size_t n);

  /// Fills the five log columns from the raw columns.
  void precompute_logs();
  bool logs_ready() const noexcept {
    const std::size_t n = size();
    return log_cores.size() == n && log_memory_mb.size() == n &&
           log_dhrystone_mips.size() == n && log_whetstone_mips.size() == n &&
           log_disk_avail_gb.size() == n;
  }

  /// Row i as an AoS host.
  HostResources host(std::size_t i) const noexcept;

  /// AoS copy for the pow-based oracle (allocate_round_robin_reference).
  std::vector<HostResources> to_hosts() const;

  /// Column moves/copies from a generated SoA batch (cores widen to
  /// double; every other column is shared layout already).
  static HostResourcesSoA from_batch(const core::GeneratedHostBatch& batch);

  /// Column copies from a trace snapshot.
  static HostResourcesSoA from_snapshot(const trace::ResourceSnapshot& snap);

  /// Transposes a literal host list (tests and hand-built host sets).
  static HostResourcesSoA from_hosts(std::span<const HostResources> hosts);
};

}  // namespace resmodel::sim
