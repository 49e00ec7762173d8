#include "sim/bag_of_tasks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "churn/churn_scheduler.h"
#include "sim/replication.h"
#include "sim/schedule_state.h"
#include "stats/distributions.h"
#include "util/parallel.h"

namespace resmodel::sim {

bool is_churn_policy(SchedulingPolicy policy) noexcept {
  switch (policy) {
    case SchedulingPolicy::kChurnEctCheckpoint:
    case SchedulingPolicy::kChurnEctRestart:
    case SchedulingPolicy::kChurnEctAbandon:
      return true;
    default:
      return false;
  }
}

// Every availability draw covers the same window: the derate fractions
// are measured over it and the churn timeline is generated over it.
constexpr double kAvailabilityHorizonDays = 100.0;

bool PolicySweepConfig::draws_availability() const noexcept {
  return base.model_availability || base.replicated_run() ||
         std::ranges::any_of(policies, is_churn_policy);
}

// Deliberately one code path for both consumers: deriving the fractions
// FROM the compiled timeline is what guarantees derate and churn runs
// consume identical realizations (and the CSR batch generation is what
// parallelizes the interval draws). A derate-only caller therefore pays
// for a timeline it discards and a churn caller for a fraction sweep it
// ignores — both O(total intervals), accepted for the stream-identity
// guarantee.
AvailabilityRealization realize_availability(std::span<const double> speed,
                                             const BagOfTasksConfig& config,
                                             util::Rng& rng) {
  AvailabilityRealization real;
  churn::IntervalTimeline timeline;
  if (config.availability_coupled) {
    // Copula draws first (one dimension-2 sample per host, in host
    // order), then the interval forks — a fixed consumption order shared
    // by every entry point.
    const std::vector<synth::AvailabilityParams> params =
        churn::couple_availability_to_speed(
            speed, config.availability, config.availability_coupling, rng);
    timeline = churn::IntervalTimeline::generate(
        params, 0.0, kAvailabilityHorizonDays, rng);
  } else {
    const synth::AvailabilityModel model(config.availability);
    timeline = churn::IntervalTimeline::generate(model, speed.size(), 0.0,
                                                 kAvailabilityHorizonDays,
                                                 rng);
  }
  real.fractions.resize(speed.size());
  for (std::size_t h = 0; h < speed.size(); ++h) {
    real.fractions[h] = timeline.fraction(h, 0.0, kAvailabilityHorizonDays);
  }
  real.timeline =
      std::make_shared<const churn::IntervalTimeline>(std::move(timeline));
  return real;
}

std::vector<double> base_host_rates(const HostResourcesSoA& hosts) {
  const std::size_t n = hosts.size();
  std::vector<double> rates(n);
  const double* cores = hosts.cores.data();
  const double* whet = hosts.whetstone_mips.data();
  // Straight from the columns: one vectorizable multiply+max sweep, no
  // per-host struct loads.
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = std::max(1.0, cores[i] * whet[i]);
  }
  return rates;
}

namespace {

// Derates `rates` in place by each host's long-run ON fraction, floored
// at 1% so no host's rate reaches zero.
void derate(std::vector<double>& rates, std::span<const double> fractions) {
  for (std::size_t h = 0; h < rates.size(); ++h) {
    rates[h] *= std::max(0.01, fractions[h]);
  }
}

std::vector<double> sample_tasks(const BagOfTasksConfig& config,
                                 util::Rng& rng) {
  const double mean = config.task_cost_mips_days_mean;
  const double sd = mean * config.task_cost_cv;
  const auto dist = stats::LogNormalDist::from_moments(mean, sd * sd);
  std::vector<double> tasks(config.task_count);
  for (double& t : tasks) t = dist.sample(rng);
  return tasks;
}

// Folds the per-host aggregates out of busy_days in one pass; the static
// policies' makespan IS the max busy time, so no separate max_element
// sweep is needed.
BagOfTasksResult finish(const std::vector<double>& busy_days,
                        double total_cpu_days) {
  BagOfTasksResult result;
  result.total_cpu_days = total_cpu_days;
  double sum = 0.0;
  for (double b : busy_days) {
    sum += b;
    result.max_host_busy_days = std::max(result.max_host_busy_days, b);
    if (b > 0.0) ++result.hosts_used;
  }
  result.mean_host_busy_days =
      busy_days.empty() ? 0.0 : sum / static_cast<double>(busy_days.size());
  result.makespan_days = result.max_host_busy_days;
  return result;
}

BagOfTasksResult finish(const std::vector<double>& busy_days,
                        double total_cpu_days, double makespan) {
  BagOfTasksResult result = finish(busy_days, total_cpu_days);
  result.makespan_days = makespan;
  return result;
}

}  // namespace

std::string to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kStaticRoundRobin: return "static round-robin";
    case SchedulingPolicy::kStaticSpeedWeighted:
      return "static speed-weighted";
    case SchedulingPolicy::kDynamicPull: return "dynamic pull";
    case SchedulingPolicy::kDynamicEct: return "dynamic ECT";
    case SchedulingPolicy::kChurnEctCheckpoint:
      return "churn ECT (checkpoint)";
    case SchedulingPolicy::kChurnEctRestart: return "churn ECT (restart)";
    case SchedulingPolicy::kChurnEctAbandon: return "churn ECT (abandon)";
  }
  return "unknown";
}

std::vector<double> compute_host_rates(const HostResourcesSoA& hosts,
                                       const BagOfTasksConfig& config,
                                       util::Rng& rng) {
  std::vector<double> rates = base_host_rates(hosts);
  if (config.model_availability) {
    derate(rates, realize_availability(rates, config, rng).fractions);
  }
  return rates;
}

namespace {

// Refuses, on the calling thread, every input a cell of `grid` would
// reject: a throw from inside a spawned worker would land in
// std::terminate. `who` names the entry point in the message.
void validate_grid(const PolicySweepConfig& grid, const std::string& who) {
  if (grid.policies.empty() || grid.task_counts.empty()) {
    throw std::invalid_argument(who + ": empty grid axis");
  }
  const BagOfTasksConfig& base = grid.base;
  if (std::ranges::find(grid.task_counts, std::size_t{0}) !=
          grid.task_counts.end() ||
      !(base.task_cost_mips_days_mean > 0.0) || !(base.task_cost_cv > 0.0)) {
    throw std::invalid_argument(who + ": degenerate config");
  }
  if (base.churn_lookahead_levels == 0 ||
      base.churn_lookahead_levels > churn::kMaxLookaheadLevels) {
    throw std::invalid_argument(
        who + ": churn_lookahead_levels must be in [1, " +
        std::to_string(churn::kMaxLookaheadLevels) + "]");
  }
  const bool replicated = base.replicated_run();
  if (replicated) {
    base.replication.validate();
    base.fault_mix.validate();
  }
  for (const SchedulingPolicy policy : grid.policies) {
    switch (policy) {
      case SchedulingPolicy::kStaticRoundRobin:
      case SchedulingPolicy::kStaticSpeedWeighted:
      case SchedulingPolicy::kDynamicPull:
        // The replicated engine only composes with the ECT-family
        // policies: static striping and pull have no per-replica
        // completion estimate to validate deadlines against, and a
        // graceful refusal beats a silently meaningless quorum.
        if (replicated) {
          throw std::invalid_argument(
              who + ": replication/fault injection requires ECT-family "
                    "policies (dynamic ECT or churn ECT)");
        }
        break;
      case SchedulingPolicy::kDynamicEct:
      case SchedulingPolicy::kChurnEctCheckpoint:
      case SchedulingPolicy::kChurnEctRestart:
      case SchedulingPolicy::kChurnEctAbandon:
        break;
      default:
        throw std::invalid_argument(who + ": unknown policy");
    }
  }
  if (base.availability_coupled && !grid.draws_availability()) {
    throw std::invalid_argument(
        who + ": availability_coupled needs model_availability, a churn "
              "policy or a replicated run (no cell draws availability)");
  }
}

// A grid's warm state: every input of a cell but its task count, derived
// once per distinct input before any cell runs. Cells COPY it (column
// memcpy instead of a re-draw, re-sort or re-search); a copied piece
// holds exactly the values a fresh derivation produces, so a sweep cell
// is bit-identical to its standalone run, the grid of that one cell:
//  - An availability draw (timeline, fractions, and the stream after
//    it) reads the seed stream and, uncoupled, nothing of the hosts
//    but their count (realize_availability passes only speed.size() to
//    the timeline). Uncoupled populations of equal size therefore
//    share one draw; coupled ones rank parameters by speed and draw
//    their own.
//  - The churn cursor columns read only the timeline and a fresh
//    state's all-zero free_at, so one cursor seed per draw serves every
//    population on it.
//  - The ScheduleState (rates plus rate-sorted ect_* caches) is per
//    population. Derate cells read rates derated iff
//    model_availability; churn cells read the full rates, which need a
//    second state only when model_availability derates the first.
// Cells resume their task sampling from the post-draw stream when they
// consume the draw (churn and replicated cells, or derate cells under
// model_availability) and from the seed stream otherwise.
struct Draw {
  std::size_t host_count = 0;
  /// Held only when a churn or replicated cell walks it.
  std::shared_ptr<const churn::IntervalTimeline> timeline;
  std::vector<double> fractions;  ///< model_availability only
  util::Rng rng_after;
  std::optional<churn::ChurnScheduler> cursor_seed;  ///< churn cells only
};

struct PopulationState {
  ScheduleState state;  ///< rates derated iff model_availability
  std::optional<ScheduleState> full;  ///< underated; derate && churn cells
  std::size_t draw = 0;               ///< index into WarmState::draws
};

struct WarmState {
  util::Rng seed;  ///< where every cell's stream starts
  std::vector<PopulationState> populations;
  std::vector<Draw> draws;
};

/// The state a `policy` cell of `pop` starts from (Pop is PopulationState
/// or const PopulationState).
template <typename Pop>
auto& state_for(Pop& pop, SchedulingPolicy policy) {
  return is_churn_policy(policy) && pop.full ? *pop.full : pop.state;
}

// Derives the warm state of the validated `grid` over `hosts` (one entry
// per population). Draws start from `seed`; `given`, when set, stands in
// for the draw and leaves the seed stream untouched.
WarmState derive_warm_state(std::span<const HostResourcesSoA* const> hosts,
                            const PolicySweepConfig& grid,
                            const util::Rng& seed,
                            const AvailabilityRealization* given) {
  const BagOfTasksConfig& base = grid.base;
  const bool any_churn = std::ranges::any_of(grid.policies, is_churn_policy);
  const bool any_ect =
      any_churn || std::ranges::find(grid.policies,
                                     SchedulingPolicy::kDynamicEct) !=
                       grid.policies.end();
  const bool walks_timeline = any_churn || base.replicated_run();
  const bool derated = base.model_availability;
  // Sized up front: a cursor seed keeps a reference to the population
  // state it was derived over, and a draw is never moved once seeded.
  WarmState warm{seed, std::vector<PopulationState>(hosts.size()), {}};
  warm.draws.reserve(hosts.size());
  for (std::size_t p = 0; p < hosts.size(); ++p) {
    PopulationState& pop = warm.populations[p];
    std::vector<double> rates = base_host_rates(*hosts[p]);
    Draw* draw = nullptr;
    if (grid.draws_availability()) {
      const auto reusable =
          base.availability_coupled
              ? warm.draws.end()
              : std::ranges::find(warm.draws, rates.size(), &Draw::host_count);
      pop.draw = static_cast<std::size_t>(reusable - warm.draws.begin());
      if (reusable == warm.draws.end()) {
        Draw& fresh = warm.draws.emplace_back();
        fresh.host_count = rates.size();
        fresh.rng_after = seed;
        AvailabilityRealization real =
            given != nullptr ? *given
                             : realize_availability(rates, base,
                                                    fresh.rng_after);
        if (walks_timeline) {
          if (!real.timeline || real.timeline->host_count() != rates.size()) {
            throw std::invalid_argument(
                "run_bag_of_tasks: availability timeline does not cover the "
                "hosts");
          }
          fresh.timeline = std::move(real.timeline);
        }
        if (derated) {
          if (real.fractions.size() != rates.size()) {
            throw std::invalid_argument(
                "run_bag_of_tasks: availability fractions do not cover the "
                "hosts");
          }
          fresh.fractions = std::move(real.fractions);
        }
      }
      draw = &warm.draws[pop.draw];
    }
    if (derated) {
      if (any_churn) {
        pop.full = ScheduleState::from_rates(rates);
        pop.full->ensure_ect_caches();
      }
      derate(rates, draw->fractions);
    }
    pop.state = ScheduleState::from_rates(std::move(rates));
    if (any_ect) pop.state.ensure_ect_caches();
    if (any_churn && !draw->cursor_seed) {
      churn::ChurnSchedulerConfig seed_config;
      seed_config.lookahead_levels = base.churn_lookahead_levels;
      seed_config.backend = base.backend;
      draw->cursor_seed.emplace(
          state_for(pop, SchedulingPolicy::kChurnEctCheckpoint),
          *draw->timeline, seed_config);
    }
  }
  return warm;
}

// The cell body: `state` is state_for(population, policy) of `warm`
// (copied by a sweep cell, moved by a standalone run, its only use).
// `rng` returns holding where the cell's stream ends.
BagOfTasksResult run_cell(ScheduleState state, const WarmState& warm,
                          std::size_t population,
                          const BagOfTasksConfig& config,
                          SchedulingPolicy policy, util::Rng& rng) {
  const bool churn_cell = is_churn_policy(policy);
  const bool replicated = config.replicated_run();
  const Draw* draw =
      churn_cell || replicated || config.model_availability
          ? &warm.draws[warm.populations[population].draw]
          : nullptr;
  rng = draw != nullptr ? draw->rng_after : warm.seed;
  const std::vector<double> tasks = sample_tasks(config, rng);
  const std::size_t host_count = state.size();
  state.backend = config.backend;

  // Fault profiles are drawn AFTER the task costs, and only when the mix
  // actually injects faults — a replication-only run (or an all-honest
  // mix) therefore schedules the identical sampled workload a plain run
  // does, which is what the 1-of-1-no-fault == plain equivalence tests
  // pin down.
  FaultProfiles faults;
  if (replicated) {
    if (config.fault_mix.any()) {
      faults = sample_fault_profiles(host_count, config.fault_mix, rng);
    } else {
      faults.type.assign(host_count, FaultType::kHonest);
      faults.slowdown.assign(host_count, 1.0);
    }
  }

  if (churn_cell) {
    churn::InterruptionPolicy interruption =
        churn::InterruptionPolicy::kCheckpoint;
    if (policy == SchedulingPolicy::kChurnEctRestart) {
      interruption = churn::InterruptionPolicy::kRestart;
    } else if (policy == SchedulingPolicy::kChurnEctAbandon) {
      interruption = churn::InterruptionPolicy::kAbandon;
    }
    churn::ChurnScheduler scheduler(state, *draw->cursor_seed);
    if (replicated) {
      return run_replicated_churn(scheduler, state, tasks, faults,
                                  config.replication, interruption,
                                  /*reference_dynamics=*/false);
    }
    const churn::ChurnScheduleTotals totals =
        scheduler.run(tasks, interruption);
    BagOfTasksResult result =
        finish(state.busy_days, totals.total_cpu_days, totals.makespan_days);
    result.wasted_cpu_days = totals.wasted_cpu_days;
    result.interruptions = totals.interruptions;
    return result;
  }

  if (replicated) {
    // validate_grid let only kDynamicEct through to here.
    return run_replicated_ect(state, *draw->timeline, tasks, faults,
                              config.replication, config.backend,
                              /*reference_dynamics=*/false);
  }

  switch (policy) {
    case SchedulingPolicy::kStaticRoundRobin: {
      double total_cpu_days = 0.0;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::size_t h = i % host_count;
        const double days = tasks[i] * state.inv_rates[h];
        state.busy_days[h] += days;
        total_cpu_days += days;
      }
      return finish(state.busy_days, total_cpu_days);
    }

    case SchedulingPolicy::kStaticSpeedWeighted: {
      // Deal tasks in rate-proportional quotas: host h receives the next
      // task whenever its accumulated *work share* is furthest below its
      // rate share. Equivalent to largest-remaining-quota dealing. The
      // shares are loop-invariant, so the rates[h] / total_rate divide is
      // hoisted into a precomputed column.
      const double total_rate =
          std::accumulate(state.rates.begin(), state.rates.end(), 0.0);
      std::vector<double> share(host_count);
      for (std::size_t h = 0; h < host_count; ++h) {
        share[h] = state.rates[h] / total_rate;
      }
      // Value-initialized, not built with the (count, 0.0) fill
      // constructor: GCC 12 misreads that one's pointer as offset here
      // and raises a -Wfree-nonheap-object false positive at its delete.
      std::vector<double> assigned_work(host_count);
      double total_cpu_days = 0.0;
      double total_assigned = 0.0;
      for (const double task : tasks) {
        // Deficit in cost units: how far below its rate-proportional share
        // of the work assigned so far this host currently is. Looking one
        // task ahead keeps the first |H| picks spread across hosts.
        std::size_t best = 0;
        double best_deficit = -std::numeric_limits<double>::infinity();
        const double next_total = total_assigned + task;
        for (std::size_t h = 0; h < host_count; ++h) {
          const double deficit = share[h] * next_total - assigned_work[h];
          if (deficit > best_deficit) {
            best_deficit = deficit;
            best = h;
          }
        }
        const double days = task * state.inv_rates[best];
        state.busy_days[best] += days;
        total_cpu_days += days;
        assigned_work[best] += task;
        total_assigned = next_total;
      }
      return finish(state.busy_days, total_cpu_days);
    }

    case SchedulingPolicy::kDynamicPull: {
      // The scalar arm means "the retained reference oracles" across the
      // board, so it selects the priority_queue pull kernel too (the ECT
      // and churn paths route themselves via state.backend / the
      // scheduler config).
      const DynamicScheduleTotals totals =
          config.backend == backend::Backend::kScalar
              ? pull_schedule_reference(state, tasks)
              : pull_schedule_dary(state, tasks);
      return finish(state.busy_days, totals.total_cpu_days,
                    totals.makespan_days);
    }

    case SchedulingPolicy::kDynamicEct: {
      const DynamicScheduleTotals totals = ect_schedule_blocked(state, tasks);
      return finish(state.busy_days, totals.total_cpu_days,
                    totals.makespan_days);
    }

    case SchedulingPolicy::kChurnEctCheckpoint:
    case SchedulingPolicy::kChurnEctRestart:
    case SchedulingPolicy::kChurnEctAbandon:
      break;  // handled above; unreachable
  }
  throw std::invalid_argument("run_bag_of_tasks: unknown policy");
}

// A standalone run: the grid of one population, one policy and one task
// count, seeded by the caller's stream, which it leaves where the cell's
// stream ends.
BagOfTasksResult run_one(const HostResourcesSoA& hosts,
                         const BagOfTasksConfig& config,
                         SchedulingPolicy policy, util::Rng& rng,
                         const AvailabilityRealization* given) {
  if (hosts.empty()) {
    throw std::invalid_argument("run_bag_of_tasks: no hosts");
  }
  PolicySweepConfig grid;
  grid.policies = {policy};
  grid.task_counts = {config.task_count};
  grid.base = config;
  validate_grid(grid, "run_bag_of_tasks");
  const HostResourcesSoA* const population[] = {&hosts};
  WarmState warm = derive_warm_state(population, grid, rng, given);
  return run_cell(std::move(state_for(warm.populations[0], policy)), warm, 0,
                  config, policy, rng);
}

}  // namespace

BagOfTasksResult run_bag_of_tasks(const HostResourcesSoA& hosts,
                                  const BagOfTasksConfig& config,
                                  SchedulingPolicy policy, util::Rng& rng) {
  return run_one(hosts, config, policy, rng, /*given=*/nullptr);
}

BagOfTasksResult run_bag_of_tasks(const HostResourcesSoA& hosts,
                                  const AvailabilityRealization& availability,
                                  const BagOfTasksConfig& config,
                                  SchedulingPolicy policy, util::Rng& rng) {
  return run_one(hosts, config, policy, rng, &availability);
}

PolicySweepResult run_policy_sweep(std::span<const SweepPopulation> populations,
                                   const PolicySweepConfig& config) {
  if (populations.empty()) {
    throw std::invalid_argument("run_policy_sweep: empty grid axis");
  }
  std::vector<const HostResourcesSoA*> hosts;
  for (const SweepPopulation& pop : populations) {
    if (pop.hosts.empty()) {
      throw std::invalid_argument("run_policy_sweep: empty population '" +
                                  pop.name + "'");
    }
    hosts.push_back(&pop.hosts);
  }
  validate_grid(config, "run_policy_sweep");
  const WarmState warm = derive_warm_state(
      hosts, config, util::Rng(config.workload_seed), /*given=*/nullptr);

  PolicySweepResult result;
  result.policy_count = config.policies.size();
  result.task_count_count = config.task_counts.size();
  result.availability_draws = warm.draws.size();
  const std::size_t cell_count =
      populations.size() * result.policy_count * result.task_count_count;
  result.cells.resize(cell_count);

  // Independent, deterministically seeded cells claimed off the shared
  // worker pool. Any thread may run any cell; none of them shares mutable
  // state (the warm state is read-only here), so the grid is thread-count
  // invariant.
  util::parallel_for(cell_count, config.threads, [&](std::size_t c) {
    PolicySweepCell& cell = result.cells[c];
    cell.task_count = c % result.task_count_count;
    cell.policy = (c / result.task_count_count) % result.policy_count;
    cell.population = c / (result.task_count_count * result.policy_count);
    BagOfTasksConfig cell_config = config.base;
    cell_config.task_count = config.task_counts[cell.task_count];
    const SchedulingPolicy policy = config.policies[cell.policy];
    util::Rng rng;  // set by run_cell
    cell.result = run_cell(
        ScheduleState(state_for(warm.populations[cell.population], policy)),
        warm, cell.population, cell_config, policy, rng);
  });
  return result;
}

}  // namespace resmodel::sim
