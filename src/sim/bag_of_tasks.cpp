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
  if (!(config.availability_horizon_days > 0.0)) {
    throw std::invalid_argument(
        "realize_availability: non-positive availability horizon");
  }
  const double horizon = config.availability_horizon_days;
  const synth::StartMode mode = config.availability_stationary_start
                                    ? synth::StartMode::kStationary
                                    : synth::StartMode::kOnAtStart;
  AvailabilityRealization real;
  churn::IntervalTimeline timeline;
  if (config.availability_coupled) {
    // Copula draws first (one dimension-2 sample per host, in host
    // order), then the interval forks — a fixed consumption order shared
    // by every entry point.
    const std::vector<synth::AvailabilityParams> params =
        churn::couple_availability_to_speed(
            speed, config.availability, config.availability_coupling, rng);
    timeline = churn::IntervalTimeline::generate(params, 0.0, horizon, rng,
                                                 mode);
  } else {
    const synth::AvailabilityModel model(config.availability);
    timeline = churn::IntervalTimeline::generate(model, speed.size(), 0.0,
                                                 horizon, rng, mode);
  }
  real.fractions.resize(speed.size());
  for (std::size_t h = 0; h < speed.size(); ++h) {
    real.fractions[h] = timeline.fraction(h, 0.0, horizon);
  }
  real.timeline =
      std::make_shared<const churn::IntervalTimeline>(std::move(timeline));
  return real;
}

namespace {

// Base rates without any availability treatment (no rng consumption) —
// the shared first step of both rate paths and the speed column the
// copula coupling ranks against.
std::vector<double> base_host_rates(std::span<const HostResources> hosts) {
  std::vector<double> rates(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    rates[i] = std::max(1.0, hosts[i].cores * hosts[i].whetstone_mips);
  }
  return rates;
}

}  // namespace

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

// Derates `rates` in place by each host's sampled long-run ON fraction.
// The realization forks the rng once per host, in host order — the single
// consumption order every entry point shares, so AoS and SoA runs stay
// bit-identical.
void derate_by_availability(std::vector<double>& rates,
                            const BagOfTasksConfig& config, util::Rng& rng) {
  const AvailabilityRealization real = realize_availability(rates, config, rng);
  for (std::size_t h = 0; h < rates.size(); ++h) {
    rates[h] *= std::max(0.01, real.fractions[h]);
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

std::vector<double> compute_host_rates(std::span<const HostResources> hosts,
                                       const BagOfTasksConfig& config,
                                       util::Rng& rng) {
  std::vector<double> rates = base_host_rates(hosts);
  if (config.model_availability) derate_by_availability(rates, config, rng);
  return rates;
}

std::vector<double> compute_host_rates(const HostResourcesSoA& hosts,
                                       const BagOfTasksConfig& config,
                                       util::Rng& rng) {
  std::vector<double> rates = base_host_rates(hosts);
  if (config.model_availability) derate_by_availability(rates, config, rng);
  return rates;
}

namespace {

// The policy dispatch shared by every entry point: everything below only
// needs a built ScheduleState (plus, for the churn family, the interval
// timeline). `reference_dynamics` selects the retained scalar /
// priority_queue / full-walk kernels for the dynamic policies.
// `cursor_seed`, when given, is a ChurnScheduler over an identically
// fresh state whose cursor columns are copied instead of re-derived —
// run_policy_sweep's per-population warm start.
BagOfTasksResult run_with_state(ScheduleState state,
                                const churn::IntervalTimeline* timeline,
                                const BagOfTasksConfig& config,
                                SchedulingPolicy policy, util::Rng& rng,
                                bool reference_dynamics,
                                const churn::ChurnScheduler* cursor_seed) {
  const std::vector<double> tasks = sample_tasks(config, rng);
  const std::size_t host_count = state.size();
  state.backend = config.backend;

  // Fault profiles are drawn AFTER the task costs, and only when the mix
  // actually injects faults — a replication-only run (or an all-honest
  // mix) therefore schedules the identical sampled workload a plain run
  // does, which is what the 1-of-1-no-fault == plain equivalence tests
  // pin down.
  FaultProfiles faults;
  if (config.replicated_run()) {
    config.replication.validate();
    if (config.fault_mix.any()) {
      faults = sample_fault_profiles(host_count, config.fault_mix, rng);
    } else {
      faults.type.assign(host_count, FaultType::kHonest);
      faults.slowdown.assign(host_count, 1.0);
    }
    if (timeline == nullptr) {
      throw std::invalid_argument(
          "run_bag_of_tasks: replicated run needs an interval timeline");
    }
  }

  if (is_churn_policy(policy)) {
    churn::InterruptionPolicy interruption =
        churn::InterruptionPolicy::kCheckpoint;
    if (policy == SchedulingPolicy::kChurnEctRestart) {
      interruption = churn::InterruptionPolicy::kRestart;
    } else if (policy == SchedulingPolicy::kChurnEctAbandon) {
      interruption = churn::InterruptionPolicy::kAbandon;
    }
    churn::ChurnSchedulerConfig sched_config;
    sched_config.lookahead_levels = config.churn_lookahead_levels;
    sched_config.backend = config.backend;
    std::optional<churn::ChurnScheduler> scheduler;
    // The seed carries its own config; it may only stand in for a fresh
    // derivation when the depth and backend agree, or the cell would
    // silently run at the seed's settings and break the cell ==
    // standalone contract.
    if (cursor_seed != nullptr &&
        cursor_seed->config().lookahead_levels ==
            config.churn_lookahead_levels &&
        cursor_seed->config().backend == config.backend) {
      scheduler.emplace(state, *cursor_seed);
    } else {
      scheduler.emplace(state, *timeline, sched_config);
    }
    if (config.replicated_run()) {
      return run_replicated_churn(*scheduler, state, tasks, faults,
                                  config.replication, interruption,
                                  reference_dynamics);
    }
    const churn::ChurnScheduleTotals totals =
        reference_dynamics ? scheduler->run_reference(tasks, interruption)
                           : scheduler->run(tasks, interruption);
    BagOfTasksResult result =
        finish(state.busy_days, totals.total_cpu_days, totals.makespan_days);
    result.wasted_cpu_days = totals.wasted_cpu_days;
    result.interruptions = totals.interruptions;
    return result;
  }

  if (config.replicated_run()) {
    // The non-churn replicated arm: only kDynamicEct has a completion-
    // time model to validate deadlines against. Static striping and pull
    // have no per-replica completion estimate — graceful refusal beats a
    // silently meaningless quorum.
    if (policy != SchedulingPolicy::kDynamicEct) {
      throw std::invalid_argument(
          "run_bag_of_tasks: replication/fault injection requires an "
          "ECT-family policy (dynamic ECT or churn ECT)");
    }
    return run_replicated_ect(state, *timeline, tasks, faults,
                              config.replication, config.backend,
                              reference_dynamics);
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
          reference_dynamics || config.backend == backend::Backend::kScalar
              ? pull_schedule_reference(state, tasks)
              : pull_schedule_dary(state, tasks);
      return finish(state.busy_days, totals.total_cpu_days,
                    totals.makespan_days);
    }

    case SchedulingPolicy::kDynamicEct: {
      const DynamicScheduleTotals totals =
          reference_dynamics ? ect_schedule_reference(state, tasks)
                             : ect_schedule_blocked(state, tasks);
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

void validate_config(const BagOfTasksConfig& config) {
  if (config.task_count == 0 || !(config.task_cost_mips_days_mean > 0.0) ||
      !(config.task_cost_cv > 0.0)) {
    throw std::invalid_argument("run_bag_of_tasks: degenerate config");
  }
  if (config.churn_lookahead_levels == 0 ||
      config.churn_lookahead_levels > churn::kMaxLookaheadLevels) {
    throw std::invalid_argument(
        "run_bag_of_tasks: churn_lookahead_levels must be in [1, " +
        std::to_string(churn::kMaxLookaheadLevels) + "]");
  }
  if (config.replicated_run()) {
    config.replication.validate();
    config.fault_mix.validate();
  }
}

BagOfTasksResult run_with_rates(std::vector<double> rates,
                                const churn::IntervalTimeline* timeline,
                                const BagOfTasksConfig& config,
                                SchedulingPolicy policy, util::Rng& rng,
                                bool reference_dynamics) {
  return run_with_state(ScheduleState::from_rates(std::move(rates)), timeline,
                        config, policy, rng, reference_dynamics,
                        /*cursor_seed=*/nullptr);
}

template <typename Hosts>
BagOfTasksResult run_any(const Hosts& hosts, const BagOfTasksConfig& config,
                         SchedulingPolicy policy, util::Rng& rng,
                         bool reference_dynamics) {
  if (hosts.empty()) {
    throw std::invalid_argument("run_bag_of_tasks: no hosts");
  }
  validate_config(config);
  if (is_churn_policy(policy)) {
    // Churn policies schedule against the interval structure itself: full
    // (underated) rates plus the timeline, drawn with the same stream the
    // derate path would consume — a derate run and a churn run with equal
    // seeds walk the same realizations.
    std::vector<double> rates = base_host_rates(hosts);
    const AvailabilityRealization real =
        realize_availability(rates, config, rng);
    return run_with_rates(std::move(rates), real.timeline.get(), config,
                          policy, rng, reference_dynamics);
  }
  if (config.replicated_run()) {
    // kDynamicEct under replication: the rates derate exactly as the
    // plain path (iff model_availability), but the SAME realization's
    // timeline rides along for the crash model — one draw, consumed
    // identically to the churn branch above.
    std::vector<double> rates = base_host_rates(hosts);
    const AvailabilityRealization real =
        realize_availability(rates, config, rng);
    if (config.model_availability) {
      for (std::size_t h = 0; h < rates.size(); ++h) {
        rates[h] *= std::max(0.01, real.fractions[h]);
      }
    }
    return run_with_rates(std::move(rates), real.timeline.get(), config,
                          policy, rng, reference_dynamics);
  }
  return run_with_rates(compute_host_rates(hosts, config, rng), nullptr,
                        config, policy, rng, reference_dynamics);
}

}  // namespace

BagOfTasksResult run_bag_of_tasks(std::span<const HostResources> hosts,
                                  const BagOfTasksConfig& config,
                                  SchedulingPolicy policy, util::Rng& rng) {
  return run_any(hosts, config, policy, rng, /*reference_dynamics=*/false);
}

BagOfTasksResult run_bag_of_tasks(const HostResourcesSoA& hosts,
                                  const BagOfTasksConfig& config,
                                  SchedulingPolicy policy, util::Rng& rng) {
  return run_any(hosts, config, policy, rng, /*reference_dynamics=*/false);
}

BagOfTasksResult run_bag_of_tasks(const HostResourcesSoA& hosts,
                                  const AvailabilityRealization& availability,
                                  const BagOfTasksConfig& config,
                                  SchedulingPolicy policy, util::Rng& rng) {
  if (hosts.empty()) {
    throw std::invalid_argument("run_bag_of_tasks: no hosts");
  }
  validate_config(config);
  std::vector<double> rates = base_host_rates(hosts);
  if (is_churn_policy(policy)) {
    if (!availability.timeline ||
        availability.timeline->host_count() != rates.size()) {
      throw std::invalid_argument(
          "run_bag_of_tasks: availability timeline does not cover the hosts");
    }
    return run_with_rates(std::move(rates), availability.timeline.get(),
                          config, policy, rng, /*reference_dynamics=*/false);
  }
  if (config.model_availability) {
    if (availability.fractions.size() != rates.size()) {
      throw std::invalid_argument(
          "run_bag_of_tasks: availability fractions do not cover the hosts");
    }
    for (std::size_t h = 0; h < rates.size(); ++h) {
      rates[h] *= std::max(0.01, availability.fractions[h]);
    }
  }
  const churn::IntervalTimeline* timeline = nullptr;
  if (config.replicated_run()) {
    // Replicated kDynamicEct needs the realization's timeline for the
    // crash model even when the rates are not derated.
    if (!availability.timeline ||
        availability.timeline->host_count() != rates.size()) {
      throw std::invalid_argument(
          "run_bag_of_tasks: availability timeline does not cover the hosts");
    }
    timeline = availability.timeline.get();
  }
  return run_with_rates(std::move(rates), timeline, config, policy, rng,
                        /*reference_dynamics=*/false);
}

BagOfTasksResult run_bag_of_tasks_reference(
    std::span<const HostResources> hosts, const BagOfTasksConfig& config,
    SchedulingPolicy policy, util::Rng& rng) {
  return run_any(hosts, config, policy, rng, /*reference_dynamics=*/true);
}

BagOfTasksResult run_bag_of_tasks_reference(const HostResourcesSoA& hosts,
                                            const BagOfTasksConfig& config,
                                            SchedulingPolicy policy,
                                            util::Rng& rng) {
  return run_any(hosts, config, policy, rng, /*reference_dynamics=*/true);
}

PolicySweepResult run_policy_sweep(std::span<const SweepPopulation> populations,
                                   const PolicySweepConfig& config) {
  if (populations.empty() || config.policies.empty() ||
      config.task_counts.empty()) {
    throw std::invalid_argument("run_policy_sweep: empty grid axis");
  }
  for (const SweepPopulation& pop : populations) {
    if (pop.hosts.empty()) {
      throw std::invalid_argument("run_policy_sweep: empty population '" +
                                  pop.name + "'");
    }
  }
  // Validate every cell's inputs up front: a throw from inside a spawned
  // worker would land in std::terminate.
  for (const std::size_t task_count : config.task_counts) {
    BagOfTasksConfig probe = config.base;
    probe.task_count = task_count;
    validate_config(probe);
  }
  const bool replicated = config.base.replicated_run();
  bool any_churn = false;
  for (const SchedulingPolicy policy : config.policies) {
    switch (policy) {
      case SchedulingPolicy::kStaticRoundRobin:
      case SchedulingPolicy::kStaticSpeedWeighted:
      case SchedulingPolicy::kDynamicPull:
        // Up-front refusal (a throw inside a spawned worker would land in
        // std::terminate): the replicated engine only composes with the
        // ECT-family policies.
        if (replicated) {
          throw std::invalid_argument(
              "run_policy_sweep: replication/fault injection requires "
              "ECT-family policies (dynamic ECT or churn ECT)");
        }
        break;
      case SchedulingPolicy::kDynamicEct:
        break;
      case SchedulingPolicy::kChurnEctCheckpoint:
      case SchedulingPolicy::kChurnEctRestart:
      case SchedulingPolicy::kChurnEctAbandon:
        any_churn = true;
        break;
      default:
        throw std::invalid_argument("run_policy_sweep: unknown policy");
    }
  }
  if (config.base.availability_coupled && !config.draws_availability()) {
    throw std::invalid_argument(
        "run_policy_sweep: availability_coupled needs model_availability, "
        "a churn policy or a replicated run (no cell draws availability)");
  }

  PolicySweepResult result;
  result.policy_count = config.policies.size();
  result.task_count_count = config.task_counts.size();
  const std::size_t cell_count =
      populations.size() * result.policy_count * result.task_count_count;
  result.cells.resize(cell_count);

  // Every cell reseeds Rng(workload_seed) and would re-derive identical
  // warm state, so each distinct piece is derived once here and cells
  // COPY it (column memcpy instead of a re-draw, re-sort or re-search).
  // A copied piece holds exactly the values a fresh derivation produces,
  // so a cell stays bit-identical to a standalone
  // run_bag_of_tasks(hosts, config, policy, Rng(workload_seed)):
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
  // consumed the draw (churn and replicated cells, or derate cells under
  // model_availability) and from the untouched seed stream otherwise.
  bool any_ect = any_churn;
  for (const SchedulingPolicy policy : config.policies) {
    if (policy == SchedulingPolicy::kDynamicEct) any_ect = true;
  }
  const bool any_draw = config.draws_availability();
  const bool coupled = config.base.availability_coupled;
  const bool derate = config.base.model_availability;
  struct Draw {
    std::size_t host_count = 0;
    /// Held only when a churn or replicated cell walks it.
    std::shared_ptr<const churn::IntervalTimeline> timeline;
    std::vector<double> fractions;  ///< model_availability only
    util::Rng rng_after;
    std::optional<churn::ChurnScheduler> cursor_seed;  ///< any_churn only
  };
  struct PopulationState {
    ScheduleState state;  ///< rates derated iff model_availability
    std::optional<ScheduleState> full;  ///< underated; derate && any_churn
    std::size_t draw = 0;               ///< index into `realized`
    const ScheduleState& churn_state() const { return full ? *full : state; }
  };
  // Sized up front: a cursor seed keeps a reference to the population
  // state it was derived over, and a draw is never moved once seeded.
  std::vector<PopulationState> shared(populations.size());
  std::vector<Draw> realized;
  realized.reserve(populations.size());
  for (std::size_t p = 0; p < populations.size(); ++p) {
    PopulationState& pop = shared[p];
    std::vector<double> rates = base_host_rates(populations[p].hosts);
    Draw* draw = nullptr;
    if (any_draw) {
      const auto reusable =
          coupled ? realized.end()
                  : std::ranges::find(realized, rates.size(),
                                      &Draw::host_count);
      pop.draw = static_cast<std::size_t>(reusable - realized.begin());
      if (reusable == realized.end()) {
        Draw& fresh = realized.emplace_back();
        fresh.host_count = rates.size();
        fresh.rng_after = util::Rng(config.workload_seed);
        AvailabilityRealization real =
            realize_availability(rates, config.base, fresh.rng_after);
        if (any_churn || replicated) fresh.timeline = std::move(real.timeline);
        if (derate) fresh.fractions = std::move(real.fractions);
      }
      draw = &realized[pop.draw];
    }
    if (derate) {
      if (any_churn) {
        pop.full = ScheduleState::from_rates(rates);
        pop.full->ensure_ect_caches();
      }
      for (std::size_t h = 0; h < rates.size(); ++h) {
        rates[h] *= std::max(0.01, draw->fractions[h]);
      }
    }
    pop.state = ScheduleState::from_rates(std::move(rates));
    if (any_ect) pop.state.ensure_ect_caches();
    if (any_churn && !draw->cursor_seed) {
      churn::ChurnSchedulerConfig seed_config;
      seed_config.lookahead_levels = config.base.churn_lookahead_levels;
      seed_config.backend = config.base.backend;
      draw->cursor_seed.emplace(pop.full ? *pop.full : pop.state,
                                *draw->timeline, seed_config);
    }
  }
  result.availability_draws = realized.size();

  // Independent, deterministically seeded cells claimed off the shared
  // worker pool. Any thread may run any cell; none of them shares mutable
  // state (the states, draws and cursor seeds are read-only after the
  // loop above), so the grid is thread-count invariant.
  util::parallel_for(cell_count, config.threads, [&](std::size_t c) {
    PolicySweepCell& cell = result.cells[c];
    cell.task_count = c % result.task_count_count;
    cell.policy = (c / result.task_count_count) % result.policy_count;
    cell.population = c / (result.task_count_count * result.policy_count);
    BagOfTasksConfig cell_config = config.base;
    cell_config.task_count = config.task_counts[cell.task_count];
    const SchedulingPolicy policy = config.policies[cell.policy];
    const PopulationState& pop = shared[cell.population];
    const bool churn_cell = is_churn_policy(policy);
    // Replicated cells (churn or not) walk the timeline for the crash
    // model, exactly like a standalone replicated run.
    const bool timeline_cell = churn_cell || replicated;
    const Draw* draw =
        timeline_cell || derate ? &realized[pop.draw] : nullptr;
    util::Rng cell_rng =
        draw != nullptr ? draw->rng_after : util::Rng(config.workload_seed);
    cell.result = run_with_state(
        ScheduleState(churn_cell ? pop.churn_state() : pop.state),
        timeline_cell ? draw->timeline.get() : nullptr, cell_config, policy,
        cell_rng, /*reference_dynamics=*/false,
        churn_cell ? &*draw->cursor_seed : nullptr);
  });
  return result;
}

}  // namespace resmodel::sim
