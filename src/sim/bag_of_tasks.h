// Bag-of-tasks scheduling on modeled hosts.
//
// The paper's introduction motivates the model with scheduling research
// for desktop grids ([1] Al-Azzoni & Down, [2] Anglano & Canonico, [3]
// WaveGrid): "the performance of such algorithms are arguably tied to the
// assumed distributions". This module makes that argument executable — a
// bag of independent tasks is scheduled onto a host population under
// different policies, and the resulting makespan depends visibly on which
// host model produced the population (see bench/ablation_makespan).
//
// Hosts process tasks sequentially at cores x Whetstone MIPS; an optional
// availability overlay derates each host by its sampled long-run ON
// fraction (volunteer hosts are not always up).
//
// The policy hot loops run on the columnar ScheduleState of
// sim/schedule_state.h (blocked+pruned MCT scan, flat 4-ary pull heap);
// BagOfTasksConfig::backend = kScalar runs the retained scalar /
// priority_queue / full-walk kernels instead, the golden oracles,
// bit-identical to the fast path. run_policy_sweep executes a whole
// policy x population x task-count grid in parallel with per-cell
// deterministic seeding; run_bag_of_tasks is the grid of one cell, so
// both derive what a cell reads in one place.
//
// The churn policy family (kChurnEct*) replaces the scalar derate with
// the event-driven src/churn/ subsystem: completion times come from
// walking each host's actual ON/OFF intervals (churn::ChurnScheduler over
// a churn::IntervalTimeline), under checkpoint / restart / abandon
// interruption semantics. Derate and churn cells of one sweep draw THE
// SAME per-host interval realizations (identical rng fork order), so a
// derate-vs-interval comparison isolates the modelling choice, not the
// noise.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "churn/coupled_availability.h"
#include "churn/interval_timeline.h"
#include "sim/fault_model.h"
#include "sim/host_soa.h"
#include "sim/utility.h"
#include "synth/availability.h"
#include "util/rng.h"

namespace resmodel::sim {

/// Workload description: task costs are log-normal in MIPS-days (cost /
/// (cores x whetstone MIPS) = days of computation on a given host).
struct BagOfTasksConfig {
  std::size_t task_count = 2000;
  double task_cost_mips_days_mean = 4000.0;
  double task_cost_cv = 0.5;  ///< coefficient of variation of task cost

  /// When true, each host's rate is derated by an availability fraction
  /// sampled from the alternating-renewal model over a 100-day horizon.
  /// The churn policies ignore this flag: they always model availability
  /// through the interval timeline itself.
  bool model_availability = false;
  synth::AvailabilityParams availability;

  /// When true, each host's availability parameters are rank-coupled to
  /// its speed through an extra copula dimension (see
  /// churn/coupled_availability.h) before intervals are drawn — negative
  /// `availability_coupling.speed_rho` produces the fast-but-flaky
  /// population. Applies to the scalar derate, the churn timeline and a
  /// replicated run's crash model alike, so all see the same coupled
  /// realizations; run_bag_of_tasks and run_policy_sweep refuse it when
  /// no cell draws one (PolicySweepConfig::draws_availability).
  bool availability_coupled = false;
  churn::AvailabilityCoupling availability_coupling;

  /// Resident session-lookahead depth of the churn ECT kernel, in
  /// [1, churn::kMaxLookaheadLevels] (validated up front like the other
  /// knobs; default = churn::ChurnSchedulerConfig's measured sweet
  /// spot). A pure performance knob: blocked and reference kernels stay
  /// bit-identical at any depth; results can differ by ulps ACROSS
  /// depths because deeper spills resolve through a different exact
  /// expression. CLI: `sweep --churn-levels=N`.
  std::size_t churn_lookahead_levels = 8;

  /// Kernel-dispatch arm for the dynamic hot loops (src/backend/): kAuto
  /// picks the AVX2 arm when the CPU (and RESMODEL_SIMD) allows it,
  /// kScalar routes the dynamic policies onto the retained reference
  /// kernels. Pure performance knob — every arm is bit-identical, so
  /// results never depend on it. CLI: `sweep --backend=...`.
  backend::Backend backend = backend::Backend::kAuto;

  /// Fault-tolerant work distribution (sim/replication.h): k-of-n quorum
  /// replication with deadline re-issue, and the per-host fault mix the
  /// population is injected with. A replicated run activates when either
  /// is armed (replication.enabled or any fault fraction > 0) and is
  /// restricted to the ECT-family policies (kDynamicEct + kChurnEct*) —
  /// the static and pull policies have no completion-time model to
  /// validate deadlines against, and throw. Fault profiles are sampled
  /// from one rng fork per host AFTER the task costs (and only when the
  /// mix is non-trivial), so a replication-only run schedules the
  /// identical workload a plain run does — for the churn policies, and
  /// for kDynamicEct with model_availability. kDynamicEct without it is
  /// the exception: its replicated run draws the availability
  /// realization (for the crash model) before the task costs, and the
  /// plain run draws none, so their task costs differ. CLI: `sweep
  /// --replication=k/n --deadline-days=D
  /// --fault-mix=crash:p,straggler:p,corrupt:p`.
  ReplicationConfig replication;
  FaultMixConfig fault_mix;

  bool replicated_run() const noexcept {
    return replication.enabled || fault_mix.any();
  }
};

/// Scheduling policies compared in the study.
enum class SchedulingPolicy {
  /// Knowledge-free static striping: task i goes to host i mod H, decided
  /// up front with no speed information.
  kStaticRoundRobin,
  /// Static allocation proportional to each host's (derated) speed.
  kStaticSpeedWeighted,
  /// Dynamic pull: an idle host takes the next task from the queue (list
  /// scheduling on the earliest-available host). Faithful to how BOINC
  /// hands out work — and therefore exposed to stragglers: a pathologically
  /// slow host pulling a large task near the end dominates the makespan.
  kDynamicPull,
  /// Dynamic earliest-completion-time (the MCT heuristic): each task goes
  /// to the host that would finish it soonest. Needs speed knowledge but
  /// is straggler-safe. With model_availability the host rates are
  /// scalar-derated by the long-run ON fraction.
  kDynamicEct,
  /// Interval-aware ECT on the churn timeline: completion times walk the
  /// host's actual ON/OFF intervals; work accrues across OFF gaps
  /// (checkpointing client). See churn/churn_scheduler.h.
  kChurnEctCheckpoint,
  /// As above, but an interrupted task restarts from scratch on the same
  /// host — heavy-tailed ON sessions make long tasks expensive.
  kChurnEctRestart,
  /// As above, but an interrupted task is re-enqueued for any host; the
  /// interrupting host frees immediately.
  kChurnEctAbandon,
};

std::string to_string(SchedulingPolicy policy);

/// True for the kChurnEct* family (interval-walking policies).
bool is_churn_policy(SchedulingPolicy policy) noexcept;

/// Result of one scheduling run.
struct BagOfTasksResult {
  double makespan_days = 0.0;      ///< completion time of the last task
  double total_cpu_days = 0.0;     ///< sum of per-task processing times
  double mean_host_busy_days = 0.0;
  double max_host_busy_days = 0.0; ///< equals makespan for static policies
  std::size_t hosts_used = 0;      ///< hosts that processed >= 1 task
  /// Churn policies only: ON time burned by interrupted attempts
  /// (restart/abandon) and how many interruptions occurred.
  double wasted_cpu_days = 0.0;
  std::uint64_t interruptions = 0;
  /// Replicated runs only (config.replicated_run()): the quorum /
  /// deadline / fault outcome counters. For those runs total_cpu_days
  /// counts every replica's committed work and makespan_days is the
  /// host-side makespan; the validation clock (last_validation_day,
  /// re-issue latency percentiles) lives here.
  ReplicationOutcome replication;
};

/// One availability draw for a host population: the per-host ON/OFF
/// timeline and the long-run fractions measured from the SAME intervals.
/// Derate consumers multiply rates by the fractions; churn consumers walk
/// the timeline — both see one realization, so comparing them isolates
/// the modelling choice.
struct AvailabilityRealization {
  std::shared_ptr<const churn::IntervalTimeline> timeline;
  std::vector<double> fractions;  ///< ON fraction of the horizon, per host
};

/// Draws the availability realization for `speed` (the base rate column,
/// which also feeds the optional copula coupling). Rng consumption: one
/// dimension-2 copula draw per host iff config.availability_coupled, then
/// one fork per host in host order — a superset of the historical derate
/// stream, identical to it when coupling is off. Throws
/// std::invalid_argument on invalid availability/coupling parameters.
AvailabilityRealization realize_availability(std::span<const double> speed,
                                             const BagOfTasksConfig& config,
                                             util::Rng& rng);

/// The base speed column — max(1, cores x whetstone) per host in one
/// multiply sweep over the columns, no availability treatment, no rng
/// consumption. This is BOTH the rate column the schedulers start from
/// and the speed column realize_availability couples against; callers
/// that draw a realization themselves (the shared-realization overload
/// below) must use this helper so their draw matches the internal one.
std::vector<double> base_host_rates(const HostResourcesSoA& hosts);

/// Per-host processing rates in MIPS (base_host_rates), derated by
/// max(0.01, fraction) from realize_availability when model_availability
/// is set — the rate column a derate cell schedules on. Consumes `rng`
/// only then, exactly as realize_availability does.
std::vector<double> compute_host_rates(const HostResourcesSoA& hosts,
                                       const BagOfTasksConfig& config,
                                       util::Rng& rng);

/// Runs the bag of tasks over `hosts` with the given policy: the one-cell
/// run_policy_sweep grid, seeded by `rng` instead of Rng(workload_seed),
/// with `rng` left where the cell's stream ends. It draws availability
/// first when the run consumes a draw (a churn policy, a replicated run or
/// model_availability), then samples the tasks, so two policies can be
/// compared on identical workloads by passing equally seeded generators.
/// Throws std::invalid_argument if `hosts` is empty or the config is one
/// run_policy_sweep refuses.
BagOfTasksResult run_bag_of_tasks(const HostResourcesSoA& hosts,
                                  const BagOfTasksConfig& config,
                                  SchedulingPolicy policy, util::Rng& rng);

/// Shared-realization overload: schedules against a caller-supplied
/// availability draw instead of drawing one, so variants of a pure
/// performance knob (e.g. churn_lookahead_levels) — or any set of runs
/// that must stay draw-comparable — consume ONE realization by
/// construction. `rng` only samples the workload. The realization must
/// carry `fractions` under model_availability (derate policies multiply
/// the base rates by them) and a `timeline` for churn policies and
/// replicated runs, which walk it. Throws std::invalid_argument when a
/// piece the run needs is missing or does not cover the hosts.
BagOfTasksResult run_bag_of_tasks(const HostResourcesSoA& hosts,
                                  const AvailabilityRealization& availability,
                                  const BagOfTasksConfig& config,
                                  SchedulingPolicy policy, util::Rng& rng);

/// One named host population in a policy sweep.
struct SweepPopulation {
  std::string name;
  HostResourcesSoA hosts;
};

/// A policy x population x task-count grid specification.
struct PolicySweepConfig {
  std::vector<SchedulingPolicy> policies;
  std::vector<std::size_t> task_counts;
  /// Shared workload/availability parameters; `base.task_count` is
  /// overridden by each grid cell.
  BagOfTasksConfig base;
  /// Every cell reseeds its own util::Rng(workload_seed), exactly like
  /// the serial loops this runner replaces: cells with the same task
  /// count schedule the identical sampled workload, and no cell's stream
  /// depends on execution order — the grid is thread-count invariant.
  std::uint64_t workload_seed = 999;
  int threads = 0;  ///< workers for the cell grid; 0 = hardware concurrency

  /// True when some cell consumes an availability draw: the scalar
  /// derate (base.model_availability), a churn policy's interval
  /// timeline, or a replicated run's crash model. The one home of the
  /// coupling rule: run_policy_sweep (and run_bag_of_tasks, its one-cell
  /// grid) refuses base.availability_coupled when this is false, since
  /// nothing would read the coupling.
  bool draws_availability() const noexcept;
};

/// One completed grid cell: indices into the populations span and the
/// config's policies / task_counts vectors, plus the scheduling result.
struct PolicySweepCell {
  std::size_t population = 0;
  std::size_t policy = 0;
  std::size_t task_count = 0;
  BagOfTasksResult result;
};

/// All cells of one sweep, population-major then policy then task count,
/// with an indexed accessor.
struct PolicySweepResult {
  std::size_t policy_count = 0;
  std::size_t task_count_count = 0;
  std::vector<PolicySweepCell> cells;
  /// Availability realizations the sweep drew (see run_policy_sweep):
  /// the distinct host counts when uncoupled, one per population when
  /// coupled, 0 when no cell consumes one. Deterministic.
  std::size_t availability_draws = 0;

  const PolicySweepCell& at(std::size_t population, std::size_t policy,
                            std::size_t task_count) const {
    return cells[(population * policy_count + policy) * task_count_count +
                 task_count];
  }
};

/// Runs every (population, policy, task count) cell of the grid through
/// util::parallel_for (the calling thread is worker zero; a throwing cell
/// rethrows on the caller). Cells are independent
/// and deterministically seeded, so the result is identical for any
/// thread count, and each cell equals its standalone
/// run_bag_of_tasks(hosts, base with the cell's task count, policy,
/// Rng(workload_seed)) bit for bit: the standalone run is the grid of
/// that one cell.
///
/// Warm state is derived once per distinct input before any cell runs,
/// and cells copy it. An uncoupled availability draw reads only the host
/// count and the seed stream, so populations of equal size share one
/// realization (timeline, fractions, post-draw stream) and one churn
/// cursor seed; coupled draws rank parameters by host speed and stay per
/// population. Each population keeps one ScheduleState, plus an underated
/// one for its churn cells when model_availability derates the first.
/// Throws std::invalid_argument on an empty grid axis, an empty
/// population, a degenerate base config, or a coupled availability that
/// no cell draws (see PolicySweepConfig::draws_availability).
PolicySweepResult run_policy_sweep(std::span<const SweepPopulation> populations,
                                   const PolicySweepConfig& config);

}  // namespace resmodel::sim
