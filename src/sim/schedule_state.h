// Columnar scheduling state + the blocked kernels behind bag_of_tasks.
//
// The MCT-family heuristics the paper's introduction cites (Al-Azzoni &
// Down; Anglano & Canonico) all reduce to tight loops over per-host
// scheduling state. This header keeps that state as contiguous columns —
// `rates`, `inv_rates`, `free_at`, `busy_days` — exactly the way
// HostResourcesSoA carries the hardware columns into the allocator, so the
// policy hot loops are cache-friendly streaming sweeps instead of pointer
// chases:
//
//  - ect_schedule_blocked: the kDynamicEct (minimum-completion-time) scan
//    as a blocked min-reduction over free_at[h] + task * inv_rates[h] —
//    multiply instead of divide, block-local buffers the autovectorizer
//    likes, and a per-block lower bound that skips whole blocks that
//    cannot beat the current best completion time.
//  - ect_schedule_reference: the retained scalar loop, bit-identical to
//    the blocked kernel (the golden oracle for tests/sim/).
//  - pull_schedule_dary / pull_schedule_reference: kDynamicPull on the
//    flat 4-ary util::QuadHeap vs the std::priority_queue oracle;
//    identical pop order because (free_at, host) keys are totally
//    ordered.
//
// All kernels use task * inv_rates[h] for processing times (the reciprocal
// column is computed once per run), so every implementation pair agrees
// bit for bit. The library is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): otherwise the compiler may fuse a*b+c into an fma
// in one loop and not another, and "bit-identical across kernels" would be
// at the mercy of instruction selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "backend/backend.h"

namespace resmodel::sim {

/// Totals a dynamic scheduling kernel reports on top of the per-host
/// columns it updates in place.
struct DynamicScheduleTotals {
  double makespan_days = 0.0;
  double total_cpu_days = 0.0;
};

/// Per-host scheduling columns, index h across all columns is one host.
/// `rates` is the (derated) processing rate in MIPS; `inv_rates` its
/// reciprocal; `free_at` the day the host next goes idle; `busy_days` the
/// accumulated processing time.
///
/// The `ect_*` members are the blocked MCT kernel's static caches: hosts
/// re-ordered by ascending inv_rates (fastest first, stable so equal
/// rates keep ascending host index), so each kBlockSize-wide block is
/// rate-homogeneous and its minimum inv_rate — the first sorted entry —
/// is a sharp per-block lower bound ingredient. With random host order a
/// fast host lands in almost every block and the bound discriminates
/// poorly; sorted blocks concentrate the fast hosts into the leading
/// blocks and let the trailing ones prune wholesale.
struct ScheduleState {
  /// Hosts per pruning block: 64 doubles = one 512-byte column stripe,
  /// long enough to amortize the bound test, short enough that one slow
  /// host cannot hide a block of fast ones.
  static constexpr std::size_t kBlockSize = 64;

  /// Compute backend for the blocked kernels (src/backend/README.md):
  /// kAuto picks the widest SIMD arm the CPU offers, kScalar routes
  /// ect_schedule_blocked onto the reference oracle. Every setting
  /// returns the same schedule bit for bit.
  backend::Backend backend = backend::Backend::kAuto;

  std::vector<double> rates;
  std::vector<double> inv_rates;
  std::vector<double> free_at;
  std::vector<double> busy_days;

  /// Sorted position -> original host index (ascending inv_rates, ties by
  /// ascending host index). Built lazily by ensure_ect_caches() — only
  /// the ECT kernel reads the sorted layout, so the other policies never
  /// pay for the sort.
  std::vector<std::uint32_t> ect_order;
  /// Original host index -> sorted position (inverse of ect_order).
  std::vector<std::uint32_t> ect_pos;
  /// inv_rates permuted into sorted order.
  std::vector<double> ect_sorted_inv;
  /// Per sorted block, the minimum of ect_sorted_inv (its first entry).
  std::vector<double> ect_block_min_inv;

  /// Builds the idle state (free_at = busy_days = 0) for the given rates.
  /// Every rate must be > 0 (host_rates guarantees >= 0.01 MIPS). Host
  /// counts are capped at 2^32 entries by the permutation columns.
  static ScheduleState from_rates(std::vector<double> rates);

  /// Builds the ect_* columns if they are not present yet (rates are
  /// immutable after from_rates, so once built they stay valid).
  void ensure_ect_caches();

  std::size_t size() const noexcept { return rates.size(); }
  std::size_t block_count() const noexcept {
    return ect_block_min_inv.size();
  }
};

/// Minimum-completion-time scheduling of `tasks` (costs in MIPS-days, in
/// arrival order) over `state`: each task goes to the host minimizing
/// free_at[h] + task * inv_rates[h], lowest host index on exact ties.
/// Blocked kernel over the rate-sorted layout: per block, the candidate
/// completion times are materialized into a small buffer and min-reduced
/// (auto-vectorizable); a block is skipped outright when
///   block_min_free[b] + task * ect_block_min_inv[b] > best_so_far,
/// a true lower bound on every completion time inside it (monotone
/// rounding keeps it a lower bound in floating point too). The strict
/// `>` means a block that could still tie the incumbent is always
/// scanned, and the winner is the smallest *original* host index among
/// all hosts achieving the global minimum — exactly the scalar loop's
/// first-strict-improvement pick. Updates free_at / busy_days in place.
DynamicScheduleTotals ect_schedule_blocked(ScheduleState& state,
                                           std::span<const double> tasks);

/// The retained scalar ECT loop — same formula, same tie-break, scans
/// every host for every task. Golden oracle and benchmark baseline;
/// bit-identical to ect_schedule_blocked.
DynamicScheduleTotals ect_schedule_reference(ScheduleState& state,
                                             std::span<const double> tasks);

/// Dynamic pull (list scheduling): the earliest-available host takes the
/// next task. Runs on the library's flat 4-ary util::QuadHeap of
/// (free_at, host) entries, seeded from the state's current free_at (a
/// pre-advanced state continues where it left off); updates state in
/// place.
DynamicScheduleTotals pull_schedule_dary(ScheduleState& state,
                                         std::span<const double> tasks);

/// The std::priority_queue implementation retained as the pull oracle;
/// bit-identical to pull_schedule_dary.
DynamicScheduleTotals pull_schedule_reference(ScheduleState& state,
                                              std::span<const double> tasks);

}  // namespace resmodel::sim
