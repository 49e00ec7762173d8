// Per-block lower envelopes of the piecewise-affine completion functions
// — the churn ECT kernel's pruning gate.
//
// Under checkpoint semantics a host's completion time is piecewise affine
// in the task size t: writing w = t * inv for the work, the completion is
//
//   ready + w                        while w fits the current session,
//   (accr + phi_j) + w               while the accrual target accr + w
//                                    lands in lookahead session j
//                                    (phi_j = end_j - cum_j, non-
//                                    decreasing in j),
//
// i.e. slope inv with an intercept that steps UP at the session
// boundaries w = sess_rem and w = cum_j - accr. Restart is the same shape
// with two pieces (ready / next_start intercepts; the deep intercept is a
// sound lower bound because a restart completion can never precede the
// next session's start plus the work). Every per-host function therefore
// satisfies f(t) >= f(t_j) + inv * (t - t_j) for t >= t_j, so if v_j(b)
// is block b's minimum at a sample position t_j,
//
//   envelope_b(t) = v_j(b) + (t - t_j) * block_min_inv_b,
//                   t_j = last position <= t,
//
// is a sound lower bound on every completion in the block (rate-sorted
// blocks are near-homogeneous in inv, so the min-inv extension loses
// almost nothing).
//
// ONE TASK-SIZE GRID. The sample positions are global, not per block:
// t_0 = 0 plus the quantiles of the run's task sizes, at most kGridSize
// positions in all. Each quantile is rounded DOWN to a float, so the
// float32 sweep evaluates exactly at t_j and t_j never exceeds the task
// that anchors on it. The gate keeps the position-major table
// grid[j * blocks + b] = v_j(b) — one contiguous row per position — and
// the argmin lane of every entry.
//
// LAZY REPAIR. Only an assignment to a host inside a block changes that
// block's functions, and an assignment moves the host's cursor forward,
// so its completion function only moves UP — every stored entry remains
// a valid lower bound untouched. Per assignment the gate therefore
// (a) repacks the winner's lane columns and (b) marks DIRTY, in the
// block's 64-bit mask (one bit per position), the entries whose recorded
// argmin lane was the winner: the only ones that may now be stale-low.
// Nothing is re-evaluated yet. The scheduler calls refresh() on an entry
// just before it acts on it — the warm-start block, and each block the
// block test admits — so a decision is taken either on an exact entry or
// on a stale one that already prunes (a fresh entry is never lower, so
// it would prune too). Entries nobody consults are never re-evaluated.
//
// GROUP SUMMARY. Over each group of kGroup consecutive blocks the gate
// also keeps gmin[j * groups + g], the minimum of row j's entries over
// the group, and the static ginv[g], the minimum of block_min_inv over
// it. refresh() recomputes its group's gmin entry from the group's row
// entries, so gmin is always exactly the minimum of the STORED entries
// (stale-low ones included) and
//
//   gb_g = gmin_j(g) + over * ginv_g <= row_j[b] + over * bmin_inv_b
//
// bit for bit for every member b: all operands are non-negative, fl(+)
// and fl(*) are monotone, and the library compiles -ffp-contract=off. A
// task therefore reads the groups' bounds first and only the members of
// groups that can still matter: first_argmin_block() returns the exact
// first argmin of the full block row from the group row, and the
// scheduler's regular pass skips every group whose bound already prunes.
//
// FLOAT-PACKED COLUMNS. The swept bound columns are stored as float32:
// half the bytes per admitted block and twice the SIMD width. Bounds stay
// sound by construction rather than by exact rounding: all inputs are
// non-negative (no cancellation), so every float32 chain error is
// relative; the comparison columns (sess_rem and the level widths d_k =
// cum_k - accr) are PADDED by kPadF32 before conversion so a lane that
// exactly fits (or exactly routes to level j) still takes the fits (or
// level-j) arm after rounding — the arm whose value cannot exceed the
// true completion — and every consumer deflates gate values by
// kMarginF32, orders of magnitude above the accumulated float32 error,
// before comparing against an exact incumbent. Commit-time completions
// never touch these columns: survivors are resolved through the exact
// double cursor expressions, which is what keeps the blocked kernel
// bit-identical to the scalar reference (see churn_scheduler.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "backend/kernels.h"
#include "sim/schedule_state.h"

namespace resmodel::churn {

/// What happens to a task whose host goes OFF mid-computation. (Defined
/// here so the gate can select its per-policy bound expressions without a
/// circular include; churn_scheduler.h re-exports it.)
enum class InterruptionPolicy {
  kCheckpoint,
  kRestart,
  kAbandon,
};

/// Upper limit for the runtime-configurable session lookahead depth
/// (BagOfTasksConfig::churn_lookahead_levels / `sweep --churn-levels`).
inline constexpr std::size_t kMaxLookaheadLevels = 12;

/// Relative pad applied to float32 comparison columns and relative
/// deflation applied to float32-derived bounds. The bound chains are at
/// most ~(levels + 3) float32 operations over non-negative data, so every
/// error is relative and below (levels + 5) * 2^-24 < 1.1e-6; 1e-5 gives
/// an order of magnitude of headroom.
inline constexpr double kPadF32 = 1.0 + 1e-5;
inline constexpr double kMarginF32 = 1.0 - 1e-5;

/// Read-only view of the scheduler's per-host double cursor columns (the
/// exact state the gate packs and the breakpoints it samples). `levels`
/// holds `2 * levels_count` doubles per host: [cum_1..cum_L, phi_1..
/// phi_L], exactly ChurnScheduler's resident lookahead layout.
struct CursorView {
  std::span<const double> ready;
  std::span<const double> sess_rem;
  std::span<const double> next_start;
  std::span<const double> accr;
  std::span<const double> levels;
  std::size_t levels_count = 0;
};

/// The pruning gate for one ChurnScheduler run: packed float32 per-lane
/// bound columns in rate-sorted layout, the task-size grid of per-block
/// minima and its per-group summary the per-task scan reads. reset()
/// builds everything for the run's policy; on_assign() marks what an
/// assignment may have made stale and refresh() repairs it on demand.
/// All returned bounds are RAW — callers must deflate by margin() before
/// comparing against exact completions.
class BoundGate {
 public:
  /// Hosts per block — must match sim::ScheduleState::kBlockSize.
  static constexpr std::size_t kBlock = sim::ScheduleState::kBlockSize;
  /// Grid positions, 0 included: one dirty bit each in a block's mask.
  static constexpr std::size_t kGridSize = 64;
  /// Consecutive blocks per group of the grid summary.
  static constexpr std::size_t kGroup = 16;

  /// `simd` selects the kernel-ops arm the column sweeps run through
  /// (backend::resolve — kNone is the autovectorized blocked baseline).
  /// Every arm produces bit-identical bounds, so gate decisions and the
  /// kernel-shape counters never depend on it.
  explicit BoundGate(backend::SimdLevel simd) noexcept
      : ops_(&backend::kernel_ops(simd)) {}

  /// Deflation factor every consumer applies to gate-derived bounds.
  static constexpr double margin() noexcept { return kMarginF32; }

  /// The grid a workload gets: 0, then the quantiles of the positive
  /// task sizes at ranks k * n / (kGridSize - 1), each rounded down to
  /// a float, duplicates dropped (strictly ascending, <= kGridSize).
  static std::vector<double> grid_positions(std::span<const double> tasks);

  /// (Re)builds the packed columns, the grid and its group summary for
  /// a run: `state` supplies the rate-sorted layout and block_min_inv
  /// (ensure_ect_caches() must have run), `cursors` the per-host double
  /// columns, `tasks` the workload the grid positions are drawn from.
  /// kAbandon never gates; passing it is an error.
  void reset(const sim::ScheduleState& state, const CursorView& cursors,
             std::span<const double> tasks, InterruptionPolicy policy);

  /// Repacks host's lane after its cursor moved and marks dirty the
  /// grid entries of its block whose recorded argmin was that lane.
  void on_assign(std::size_t host, const sim::ScheduleState& state,
                 const CursorView& cursors);

  /// The grid positions, ascending; positions()[0] == 0.
  std::span<const double> positions() const noexcept { return positions_; }

  /// Last grid position <= task (position 0 is 0, so always valid).
  std::size_t position_of(double task) const noexcept;

  /// Row j of the grid, one entry per block. RAW; a dirty entry is
  /// stale-LOW (still sound).
  const double* row(std::size_t j) const noexcept {
    return grid_.data() + j * blocks_;
  }

  /// Block b's envelope for a task at over = task - positions()[j]:
  /// row(j)[b] + over * ect_block_min_inv[b], the bound every per-block
  /// test compares. RAW.
  double block_bound(std::size_t j, std::size_t b,
                     double over) const noexcept {
    return grid_[j * blocks_ + b] + over * bmin_inv_[b];
  }

  /// Groups of kGroup consecutive blocks (the last one may be partial).
  std::size_t group_count() const noexcept { return groups_; }

  /// Row j of the group summary: entry g is the minimum of row(j) over
  /// group g's blocks, stored entries as they stand (test hook).
  const double* group_row(std::size_t j) const noexcept {
    return gmin_.data() + j * groups_;
  }

  /// Per group, the minimum of block_min_inv over its blocks (static
  /// for the run; test hook).
  std::span<const double> group_min_inv() const noexcept { return ginv_; }

  /// The first block attaining the minimum of block_bound(j, b, over)
  /// over all blocks — what a full row pass would return — read through
  /// the group summary: the group row's argmin group is scanned first,
  /// then every other group whose bound does not exceed the incumbent.
  /// Writes the group bounds gmin + over * ginv into
  /// gb[0..group_count()) for the caller's group pass.
  std::size_t first_argmin_block(std::size_t j, double over,
                                 double* gb) const noexcept;

  /// Bit j set: entry (blk, j) may be stale-low (test hook).
  std::uint64_t dirty_mask(std::size_t blk) const noexcept {
    return dirty_[blk];
  }

  /// Lane of block `blk` that attained entry (blk, j) when it was last
  /// evaluated (test hook).
  std::uint8_t argmin_lane(std::size_t blk, std::size_t j) const noexcept {
    return argmin_[blk * kGridSize + j];
  }

  /// If entry (blk, j) is dirty, re-evaluates it to the block's current
  /// minimum lane bound at positions()[j], recomputes its group's summary
  /// entry, clears its bit and returns true; a clean entry is left alone
  /// (false).
  bool refresh(std::size_t blk, std::size_t j) noexcept;

  /// Streams block `blk`'s packed columns and writes 64 per-lane lower
  /// bounds (padded lanes get +inf). RAW — deflate by margin().
  void sweep_block(std::size_t blk, double task, double* lb) const noexcept;

  /// Single-lane bound at sorted position `pos` (test hook; same
  /// expressions as sweep_block).
  double lane_bound(std::size_t pos, double task) const noexcept;

 private:
  void pack_lane(std::size_t pos, std::size_t host,
                 const sim::ScheduleState& state, const CursorView& cursors);
  void eval_block(std::size_t blk, double task, float* lb) const noexcept;
  /// Evaluates entry (blk, j) and its argmin lane; leaves the mask alone.
  void eval_entry(std::size_t blk, std::size_t j) noexcept;
  /// Recomputes gmin entry (g, j) from the group's stored row entries.
  void eval_group(std::size_t g, std::size_t j) noexcept;

  const backend::KernelOps* ops_;
  InterruptionPolicy policy_ = InterruptionPolicy::kCheckpoint;
  std::size_t levels_ = 0;
  std::size_t blocks_ = 0;
  std::size_t groups_ = 0;
  std::size_t size_ = 0;  ///< real (unpadded) lane count
  // Flat rate-sorted float32 columns, padded to blocks * kBlock lanes
  // (padding: inv = 0, sess/ready/next = +inf — inert lanes that bound
  // to +inf). sess_ and the c_[k] = cum_k level columns are pad-inflated
  // at conversion (see pack_lane).
  std::vector<float> inv_, sess_, ready_, next_, accr_;
  std::vector<float> c_[kMaxLookaheadLevels];
  std::vector<float> phi_[kMaxLookaheadLevels];
  std::vector<double> positions_;        ///< ascending, [0] = 0
  std::vector<double> grid_;             ///< positions x blocks_, position-major
  std::vector<double> gmin_;             ///< positions x groups_, position-major
  std::vector<double> bmin_inv_;         ///< per block, state.ect_block_min_inv
  std::vector<double> ginv_;             ///< per group, min of bmin_inv_
  std::vector<std::uint8_t> argmin_;     ///< blocks_ x kGridSize, block-major
  std::vector<std::uint64_t> dirty_;     ///< per block, bit j = position j
};

}  // namespace resmodel::churn
