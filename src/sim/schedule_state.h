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
//  - EctSelector: the one blocked `key[h] + task * inv_rates[h]` argmin
//    (kDynamicEct batch and replicated over free_at, churn's kAbandon
//    over ready-at) — multiply instead of divide, and a per-block lower
//    bound that skips whole blocks that cannot beat the incumbent.
//  - ect_select_reference / ect_schedule_reference: the scalar scan and
//    the batch loop over it, bit-identical to the blocked kernel (the
//    golden oracle for tests/sim/).
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

namespace resmodel::backend {
struct KernelOps;
}  // namespace resmodel::backend

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
  /// kAuto picks the AVX2 arm when the CPU offers it, kScalar routes
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

/// One minimum-completion pick: the winning original host index and its
/// completion key[host] + task * inv_rates[host].
struct EctPick {
  std::uint32_t host = 0;
  double done = 0.0;
};

/// The blocked minimum-completion selection (src/sim/README.md): for a
/// task, the host minimizing key[h] + task * inv_rates[h], smallest
/// original index on exact ties. Keeps the key column in ect_order
/// layout plus per-block minima; per task, the block with the lowest
/// bound block_min_key[b] + task * ect_block_min_inv[b] is swept first
/// (warm start), then every block whose bound is not strictly above the
/// incumbent. Bit-identical to ect_select_reference.
class EctSelector {
 public:
  /// Builds `state`'s ect_* caches; `state` and `ops` must outlive the
  /// selector, and load() must run before select().
  EctSelector(ScheduleState& state, const backend::KernelOps& ops);

  /// Gathers a host-order key column (one entry per host) into ect_order
  /// layout and rebuilds every block minimum.
  void load(std::span<const double> key);

  /// Sets one host's key and re-derives its block's minimum.
  void set(std::size_t host, double key);

  /// The pick for `task`; requires at least one host.
  EctPick select(double task);

 private:
  const ScheduleState& state_;
  const backend::KernelOps& ops_;
  std::vector<double> skey_;    ///< key column in ect_order layout
  std::vector<double> bmin_;    ///< per-block minimum of skey_
  std::vector<double> bounds_;  ///< select()'s per-task block-bound row
};

/// EctSelector::select's scalar oracle over host-order columns: first
/// strict improvement wins. Requires at least one host.
EctPick ect_select_reference(std::span<const double> key,
                             std::span<const double> inv_rates, double task);

/// Minimum-completion-time scheduling of `tasks` (costs in MIPS-days, in
/// arrival order) over `state`: each task goes to the host minimizing
/// free_at[h] + task * inv_rates[h], lowest host index on exact ties (an
/// EctSelector keyed on free_at). Updates free_at / busy_days in place.
DynamicScheduleTotals ect_schedule_blocked(ScheduleState& state,
                                           std::span<const double> tasks);

/// The scalar ECT loop (ect_select_reference per task). Golden oracle
/// and benchmark baseline; bit-identical to ect_schedule_blocked.
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
