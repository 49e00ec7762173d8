// Interval-aware ECT scheduling over an IntervalTimeline — the churn
// engine's answer to the scalar availability derate in kDynamicEct.
//
// The derate multiplies each host's rate by its long-run ON fraction and
// schedules as if the host were continuously, fractionally available.
// That erases exactly the structure that makes volunteer churn hard: the
// ON sessions are heavy-tailed Weibull (shape < 1 — many short sessions,
// a few very long ones), so a long task on a typical session is far more
// exposed than the average fraction suggests. This scheduler computes
// TRUE completion times by walking the host's ON intervals from its
// cursor, under three interruption semantics:
//
//  - kCheckpoint: work accrues across OFF gaps (the client checkpoints;
//    an outage only delays). Completion = the instant cumulative ON time
//    since the start equals the task's work.
//  - kRestart: an interrupted task restarts from scratch on the SAME
//    host; every failed attempt burns the remainder of its ON session.
//    Completion = end of the first session long enough to hold the work.
//  - kAbandon: an interrupted task is abandoned by the host and
//    re-enqueued at the back of the global queue — any host may pick it
//    up. Burned attempt time is wasted; the host frees at the
//    interruption instant.
//
// Selection is minimum-completion-time over the rate-sorted blocks of
// sim::ScheduleState. kAbandon selects on the optimistic single-attempt
// key `ready + task*inv`, so it runs the derate kernel's sim::EctSelector
// keyed on the ready-at column. For checkpoint and restart that plain
// bound is hopeless (the winner's completion carries OFF-gap stretch, so
// in the leveled steady state that bound admits the whole mid-band), and
// any per-block scalar over 64 heavy-tailed gaps washes out to the
// gap-free bound. What prunes (full derivation in churn/README.md):
//
//   - per-host SESSION CURSORS (ready_at, sess_rem, accrued-ON, and a
//     configurable number of lookahead sessions of (cum, phi)): a
//     checkpoint completion inside session j is exactly `target + phi_j`
//     with phi_j non-decreasing in j, so completions within the
//     lookahead are O(1) formulas over resident columns and anything
//     deeper is bounded by the deepest phi (resolved by one lower_bound
//     over the timeline's cum column);
//   - a churn::BoundGate (block_envelope.h): per-block lower ENVELOPES
//     of the piecewise-affine completion-vs-task-size functions, sampled
//     on one global grid of task-size quantiles (one row per position,
//     read whole by the per-task block scan) over float32-packed bound
//     columns; an assignment only marks the winner's grid entries dirty,
//     and the scan repairs a dirty entry just before acting on it;
//   - every cross-expression skip test deflates its bound by a relative
//     margin orders of magnitude above the bound chain's rounding noise,
//     so pruning stays sound by construction in floating point.
//
// Survivor lanes are resolved through the EXACT double cursor
// expressions (the same code path the scalar reference runs), which is
// what keeps the blocked kernel bit-identical to the retained full-
// evaluation oracle regardless of the float32 gate's rounding. This file
// is compiled with -fno-trapping-math (see src/CMakeLists.txt; the
// library-wide -ffp-contract=off applies too).
//
// Beyond the timeline's horizon hosts count as permanently ON (see
// interval_timeline.h); schedules that outrun the generated window stay
// finite and optimistic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "churn/block_envelope.h"
#include "churn/interval_timeline.h"
#include "sim/schedule_state.h"

namespace resmodel::churn {

std::string to_string(InterruptionPolicy policy);

/// Totals on top of the per-host columns the scheduler updates in place.
/// The trailing counters are deterministic kernel-shape telemetry
/// (identical across runs of the same inputs — bench/perf_microbench
/// exports them so tools/compare_bench.py can flag pruning regressions
/// machine-independently); they are not part of the scheduling result.
struct ChurnScheduleTotals {
  double makespan_days = 0.0;
  double total_cpu_days = 0.0;   ///< useful processing time
  double wasted_cpu_days = 0.0;  ///< ON time burned by interrupted attempts
  std::uint64_t interruptions = 0;
  std::uint64_t swept_blocks = 0;    ///< blocks whose columns were streamed
  std::uint64_t resolved_lanes = 0;  ///< lanes resolved through exact doubles
};

/// Tuning knobs for the blocked kernel. Every setting returns the same
/// schedule bit for bit as run_reference() at that setting — they trade
/// pruning power and swept bytes, not results (the lookahead depth can
/// shift completions by ulps ACROSS depths, because deep spills resolve
/// through a different exact expression, but blocked and reference agree
/// exactly at equal depth).
struct ChurnSchedulerConfig {
  /// Resident (cum, phi) lookahead sessions per host, in [1,
  /// kMaxLookaheadLevels]. More levels resolve deeper checkpoint spills
  /// from columns instead of binary searches and sharpen the deep-spill
  /// bound; fewer levels shrink the swept columns. 8 is the measured
  /// sweet spot at 10k-100k hosts (4 leaves the deep-spill bound so
  /// loose that ~200 blocks and ~350 lanes per task survive the gates;
  /// 8 cuts that to ~25 / ~20; 12 buys no further shape and streams
  /// wider columns).
  std::size_t lookahead_levels = 8;
  /// Compute backend for the column sweeps (src/backend/README.md):
  /// kAuto picks the AVX2 arm when the CPU offers it; kScalar routes
  /// run() onto run_reference(). Like every other knob here, the
  /// schedule is bit-identical across settings.
  backend::Backend backend = backend::Backend::kAuto;
};

/// Walks host `host`'s ON intervals from the ON instant `start_on`
/// (typically timeline.next_on(host, free_at)) until `work` days of ON
/// time have accrued; returns the completion instant. kCheckpoint's
/// completion primitive — exposed for the golden tests.
double checkpoint_completion(const IntervalTimeline& timeline,
                             std::size_t host, double start_on,
                             double work) noexcept;

/// Outcome of placing work on a host under kRestart (and, per attempt,
/// kAbandon): when it completes, how much ON time it consumed (worked ==
/// work + burned failed attempts), and how many sessions died under it.
struct RestartOutcome {
  double completion = 0.0;
  double worked_days = 0.0;
  std::uint64_t interruptions = 0;
};

/// First ON session at or after `start_on` with room for `work`
/// contiguous days; every shorter session before it is burned whole.
RestartOutcome restart_completion(const IntervalTimeline& timeline,
                                  std::size_t host, double start_on,
                                  double work) noexcept;

/// Interval-aware ECT over a sim::ScheduleState and an IntervalTimeline.
/// Borrows the state's columns (rates/inv_rates/free_at/busy_days and the
/// rate-sorted ect_* caches) and maintains its own ready-at cursor column
/// (earliest ON instant >= free_at). run() and run_reference() are
/// begin_stepping() plus step() per task, and update the state in place,
/// exactly like the sim/ scheduling kernels.
class ChurnScheduler {
 public:
  /// `state` and `timeline` must describe the same hosts (equal counts —
  /// throws std::invalid_argument otherwise, as does an out-of-range
  /// config.lookahead_levels) and outlive the scheduler.
  ChurnScheduler(sim::ScheduleState& state, const IntervalTimeline& timeline,
                 const ChurnSchedulerConfig& config = {});

  /// Warm-start constructor: rebinds `seed`'s timeline and config to a
  /// fresh `state` and COPIES the seed's cursor columns instead of
  /// re-deriving them host by host (one binary search each). `state`
  /// must have the same host count and the same free_at column as the
  /// state `seed` was constructed over; its rates may differ, since the
  /// cursors read only free_at and the timeline. sim::run_policy_sweep
  /// uses this to share one cursor derivation across every cell, of any
  /// population, on one availability realization.
  ChurnScheduler(sim::ScheduleState& state, const ChurnScheduler& seed);

  /// Blocked, pruned fast path (kAbandon re-queues interrupted attempts
  /// at the back). Ends any stepping session in progress.
  ChurnScheduleTotals run(std::span<const double> tasks,
                          InterruptionPolicy policy);

  /// Scalar full-scan oracle; bit-identical to run().
  ChurnScheduleTotals run_reference(std::span<const double> tasks,
                                    InterruptionPolicy policy);

  /// One stepped assignment (the begin_stepping/step driving mode behind
  /// run() and sim/replication.cpp): which host won the selection, when
  /// its work began accruing, when the host freed, how much ON time it
  /// burned, and the two facts the fault layer needs — whether the
  /// attempt completed (false only under kAbandon when the session died
  /// first) and whether the execution crossed at least one ON-session
  /// boundary (the crash model's trigger).
  struct StepOutcome {
    std::uint32_t host = 0;
    double start = 0.0;
    double completion = 0.0;
    double worked_days = 0.0;
    bool completed = true;
    bool session_crossed = false;
  };

  /// Arms the stepped driving mode: step() hands out one assignment at a
  /// time (blocked when the resolved backend is non-scalar and
  /// `force_reference` is off, the full-scan oracle otherwise — the two
  /// are bit-identical); run() and run_reference() are this mode driven
  /// over every task. `tasks` is the task population the gate's
  /// grid positions are drawn from (it is retained for gate re-resets on
  /// advance_time); individual step() calls may pass any task drawn from
  /// it, in any order and multiplicity. `slowdown`, when non-empty, is a
  /// per-host execution derate column (>= 1, copied): the straggler
  /// model's "benchmarks fast, runs slow" — selection always uses the
  /// NOMINAL rates, commit charges work * slowdown[winner].
  void begin_stepping(std::span<const double> tasks,
                      InterruptionPolicy policy,
                      std::span<const double> slowdown = {},
                      bool force_reference = false);

  /// Selects the minimum-completion host for `task` (nominal rates),
  /// then commits the actual execution at work * slowdown[winner].
  /// Accounting accrues into step_totals().
  StepOutcome step(double task);

  /// Clamps every host's free_at up to `now` (hosts idle before a
  /// re-issue round's start are free AT its start, not before) and
  /// refreshes the cursors and blocked structures. Sound for the
  /// replication engine's use because all work stepped after this call
  /// starts at or after `now`.
  void advance_time(double now);

  /// Host-side accounting accrued by step() since begin_stepping.
  const ChurnScheduleTotals& step_totals() const noexcept {
    return step_totals_;
  }

  const ChurnSchedulerConfig& config() const noexcept { return config_; }

  /// The ready-at cursor column (exposed for tests).
  const std::vector<double>& ready_at() const noexcept { return ready_; }

  /// Test hooks: the exact completion the selection compares (same
  /// expressions commit uses), and gate priming + access so soundness
  /// properties (every gate bound, deflated by gate().margin(), is <=
  /// the exact completion) can be asserted directly — including after
  /// run() left grid entries dirty.
  double completion_for_test(std::size_t host, double task,
                             InterruptionPolicy policy) const noexcept {
    return completion_for(host, task * state_.inv_rates[host], policy);
  }
  void prime_gate_for_test(std::span<const double> tasks,
                           InterruptionPolicy policy);
  const BoundGate& gate() const noexcept { return gate_; }

 private:
  /// True completion of `work` on `host` starting from its current
  /// cursor, under `policy` (selection only — no accounting). Fits-case
  /// completions are the literal `ready + work` expression; checkpoint
  /// spills resolve through the resident levels or one lower_bound over
  /// the timeline's cum_ends column, restart spills through the session
  /// walk. Shared verbatim by the blocked survivors, the reference scan
  /// and commit — the bit-identity anchor.
  double completion_for(std::size_t host, double work,
                        InterruptionPolicy policy) const noexcept;

  /// Completion instant at which host's cumulative ON time reaches
  /// `target`, searching strictly after the current session (checkpoint
  /// spill resolution).
  double checkpoint_spill(std::size_t host, double target) const noexcept;

  /// The driving loop behind run() and run_reference().
  ChurnScheduleTotals run_stepped(std::span<const double> tasks,
                                  InterruptionPolicy policy,
                                  bool force_reference);

  /// Checkpoint / restart's per-task minimum-completion selection under
  /// step_policy_: the winning host, not yet committed.
  template <bool kBlocked>
  std::uint32_t select_ect(double task);

  /// Re-derives ready_/sess_rem_/next_start_ for `host` from its
  /// free_at (one binary search; the session neighbours are adjacent
  /// columns entries).
  void update_cursor(std::size_t host) noexcept;

  /// The gate's view of the cursor columns.
  CursorView cursor_view() const noexcept {
    return {ready_, sess_rem_, next_start_, accr_ready_, levels_,
            config_.lookahead_levels};
  }

  /// (Re)builds / maintains the ECT paths' sorted-layout RESOLUTION
  /// columns: exact double copies of the cursor columns in ect_order
  /// layout, so a surviving lane resolves from the lines the block sweep
  /// just touched instead of a per-host random gather. The levels ride
  /// along interleaved (stride 2 * lookahead_levels per position) so one
  /// survivor's whole route is one or two cache lines.
  void rebuild_sorted_cursors();
  void update_sorted_cursor(std::size_t host);

  sim::ScheduleState& state_;
  const IntervalTimeline& timeline_;
  ChurnSchedulerConfig config_;
  /// config_.backend resolved once against the CPU (declared before
  /// gate_ so the gate can be constructed on the resolved SIMD level).
  backend::ResolvedBackend resolved_;
  const backend::KernelOps* ops_ = nullptr;
  /// Per-host cursor columns (original host index): earliest ON instant
  /// >= free_at; ON time remaining in that session (+inf once the host is
  /// past the horizon and permanently ON); the next session's start (the
  /// horizon when no generated session remains); cumulative ON days
  /// accrued at the ready instant; the current session's index; and the
  /// lookahead levels (2 * lookahead_levels doubles per host:
  /// [cum_1..cum_L, phi_1..phi_L]).
  std::vector<double> ready_;
  std::vector<double> sess_rem_;
  std::vector<double> next_start_;
  std::vector<double> accr_ready_;
  std::vector<std::uint32_t> sess_idx_;
  std::vector<double> levels_;

  /// The pruning gate (packed columns + task-size grid), reset by
  /// begin_stepping and advance_time; see block_envelope.h.
  BoundGate gate_;

  /// kAbandon's blocked selection: its key is the optimistic ready +
  /// work even for spills, so the ready column is all it needs.
  std::optional<sim::EctSelector> ready_select_;

  // ECT survivor-resolution columns (see rebuild_sorted_cursors).
  std::vector<double> sres_ready_;
  std::vector<double> sres_sess_;
  std::vector<double> sres_accr_;
  std::vector<double> sres_levels_;

  // Stepped driving mode (begin_stepping/step/advance_time).
  InterruptionPolicy step_policy_ = InterruptionPolicy::kCheckpoint;
  bool step_blocked_ = false;
  std::vector<double> step_tasks_;     ///< retained for advance_time resets
  std::vector<double> step_slowdown_;  ///< per-host derate; empty = all 1
  std::vector<double> step_bounds_;    ///< group-bound scratch for select_ect
  ChurnScheduleTotals step_totals_;
};

}  // namespace resmodel::churn
