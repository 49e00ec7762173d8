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
// next session's start plus the work). A 64-host block's minimum over
// these functions is therefore queryable through a small set of KNOTS:
// sample positions t_0 = 0 < t_1 < ... taken from the union of the block
// members' breakpoints, each carrying the block-minimum bound v_k
// evaluated at t_k. Because every per-host function satisfies
// f(t) >= f(t_k) + inv * (t - t_k) for t >= t_k,
//
//   envelope(t) = v_k + (t - t_k) * block_min_inv,   t_k = last knot <= t
//
// is a sound lower bound on every completion in the block — one O(log)
// binary search instead of re-streaming the block's columns, and sharp
// wherever the knots track the true breakpoints (rate-sorted blocks are
// near-homogeneous in inv, so the min-inv extension loses almost
// nothing).
//
// INCREMENTAL MAINTENANCE. Only an assignment to a host inside a block
// changes that block's functions, and an assignment moves the host's
// cursor forward, so its completion function only moves UP — every stored
// knot value remains a valid lower bound untouched. Per assignment the
// gate therefore (a) refreshes the winner's packed lane columns, (b)
// re-evaluates only the knots whose recorded argmin lane was the winner
// (the only knots whose stored minimum can be stale-low), and (c) after
// kStaleLimit assignments re-derives the block's knot POSITIONS from the
// current breakpoints — a lazy full-rebuild epoch that restores sharpness
// the drifted positions lost. Soundness never depends on the epoch; only
// pruning power does.
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
#include <utility>
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
/// bound columns in rate-sorted layout, per-block knot envelopes, and
/// the bucket-major coarse row the per-task block scan reads.
/// reset() builds everything for the run's policy; on_assign() maintains
/// it incrementally. All returned bounds are RAW — callers must deflate
/// by margin() before comparing against exact completions.
class BoundGate {
 public:
  /// Hosts per block — must match sim::ScheduleState::kBlockSize.
  static constexpr std::size_t kBlock = sim::ScheduleState::kBlockSize;
  /// Knot capacity per block (including the mandatory t = 0 knot).
  static constexpr std::size_t kKnotCapacity = 48;
  /// Global coarse-row task-size edges (edge 0 is exactly 0, the rest
  /// log-spaced over the workload's range).
  static constexpr std::size_t kBuckets = 32;
  /// Assignments into a block between knot-position rebuild epochs.
  static constexpr std::size_t kStaleLimit = 16;

  /// `simd` selects the kernel-ops arm the column sweeps run through
  /// (backend::resolve — kNone is the autovectorized blocked baseline).
  /// Every arm produces bit-identical bounds, so gate decisions and the
  /// kernel-shape counters never depend on it.
  explicit BoundGate(backend::SimdLevel simd) noexcept
      : ops_(&backend::kernel_ops(simd)) {}

  /// Deflation factor every consumer applies to gate-derived bounds.
  static constexpr double margin() noexcept { return kMarginF32; }

  /// (Re)builds the packed columns, envelopes and coarse rows for a run:
  /// `state` supplies the rate-sorted layout (ensure_ect_caches() must
  /// have run), `cursors` the per-host double columns, `tasks` the
  /// workload (coarse edges span its size range). kAbandon never gates;
  /// passing it is an error.
  void reset(const sim::ScheduleState& state, const CursorView& cursors,
             std::span<const double> tasks, InterruptionPolicy policy);

  /// Refreshes host's lane after its cursor moved: packed columns, owned
  /// knots, the block's coarse row — and a full knot rebuild every
  /// kStaleLimit-th assignment into the block.
  void on_assign(std::size_t host, const sim::ScheduleState& state,
                 const CursorView& cursors);

  /// Largest coarse edge <= task (edge 0 is 0, so always valid) and the
  /// bucket-major row for it; the caller's per-task block scan computes
  /// row[b] + (task - edge) * ect_block_min_inv[b].
  std::size_t bucket_of(double task) const noexcept;
  double bucket_edge(std::size_t bucket) const noexcept {
    return bucket_edges_[bucket];
  }
  const double* coarse_row(std::size_t bucket) const noexcept {
    return coarse_.data() + bucket * blocks_;
  }

  /// Envelope query: sound lower bound on every completion in block
  /// `blk` for task size `task`. RAW — deflate by margin().
  double block_bound(std::size_t blk, double task) const noexcept;

  /// Streams block `blk`'s packed columns and writes 64 per-lane lower
  /// bounds (padded lanes get +inf). RAW — deflate by margin().
  void sweep_block(std::size_t blk, double task, double* lb) const noexcept;

  /// Single-lane bound at sorted position `pos` (test hook; same
  /// expressions as sweep_block).
  double lane_bound(std::size_t pos, double task) const noexcept;

  /// Knot count of block `blk` (test hook).
  std::size_t knot_count(std::size_t blk) const noexcept {
    return knot_count_[blk];
  }

 private:
  void pack_lane(std::size_t pos, std::size_t host,
                 const sim::ScheduleState& state, const CursorView& cursors);
  void eval_block(std::size_t blk, double task, float* lb) const noexcept;
  /// Block-min bound at `task` plus its argmin lane.
  std::pair<double, std::uint8_t> eval_block_min(std::size_t blk,
                                                 double task) const noexcept;
  void rebuild_knots(std::size_t blk, const sim::ScheduleState& state,
                     const CursorView& cursors);
  void repair_knots(std::size_t blk, std::uint8_t lane);
  void rebuild_coarse_row(std::size_t blk);

  const backend::KernelOps* ops_;
  InterruptionPolicy policy_ = InterruptionPolicy::kCheckpoint;
  std::size_t levels_ = 0;
  std::size_t blocks_ = 0;
  std::size_t size_ = 0;  ///< real (unpadded) lane count
  const double* bmin_inv_ = nullptr;  ///< state.ect_block_min_inv
  // Flat rate-sorted float32 columns, padded to blocks * kBlock lanes
  // (padding: inv = 0, sess/ready/next = +inf — inert lanes that bound
  // to +inf). sess_ and the c_[k] = cum_k level columns are pad-inflated
  // at conversion (see pack_lane).
  std::vector<float> inv_, sess_, ready_, next_, accr_;
  std::vector<float> c_[kMaxLookaheadLevels];
  std::vector<float> phi_[kMaxLookaheadLevels];
  // Per-block knot arrays: positions ascending, stride kKnotCapacity,
  // values = block-min bound evaluated AT the stored (rounded) position
  // so rounding never breaks the anchor.
  std::vector<float> knot_t_, knot_v_;
  std::vector<std::uint8_t> knot_argmin_;   ///< stride kKnotCapacity
  std::vector<std::uint16_t> knot_count_;   ///< per block
  std::vector<std::uint16_t> stale_;        ///< assignments since epoch
  std::vector<double> bucket_edges_;        ///< kBuckets ascending, [0] = 0
  std::vector<double> coarse_;              ///< kBuckets x blocks_, bucket-major
  std::vector<double> knot_scratch_;        ///< candidate breakpoints
};

}  // namespace resmodel::churn
