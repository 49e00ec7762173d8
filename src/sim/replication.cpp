// Compiled with the same FP discipline as the scheduling kernels
// (src/CMakeLists.txt): every completion the round clock compares
// against a deadline is produced by shared exact expressions.
#include "sim/replication.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "backend/kernels.h"

namespace resmodel::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Stepped kDynamicEct selection: the classic free_at + task*inv minimum,
// one replica at a time, through the same sim::EctSelector (key = free_at)
// that ect_schedule_blocked and churn's kAbandon selection use —
// reloaded whenever advance_time moves the clock, updated per commit —
// or, without `ops`, through the scalar ect_select_reference oracle.
class DerateEctStepper {
 public:
  DerateEctStepper(ScheduleState& state,
                   const churn::IntervalTimeline& timeline,
                   std::span<const double> slowdown,
                   const backend::KernelOps* ops)
      : state_(state),
        timeline_(timeline),
        slowdown_(slowdown.begin(), slowdown.end()) {
    if (ops != nullptr) {
      selector_.emplace(state, *ops);
      selector_->load(state_.free_at);
    }
  }

  churn::ChurnScheduler::StepOutcome step(double task) {
    const std::uint32_t best =
        selector_ ? selector_->select(task).host
                  : ect_select_reference(state_.free_at, state_.inv_rates,
                                         task)
                        .host;
    const double slowdown = slowdown_.empty() ? 1.0 : slowdown_[best];
    const double start = state_.free_at[best];
    const double worked = task * state_.inv_rates[best] * slowdown;
    const double completion = start + worked;

    churn::ChurnScheduler::StepOutcome out;
    out.host = best;
    out.start = start;
    out.completion = completion;
    out.worked_days = worked;
    out.completed = true;
    // The crash model's trigger under the derate abstraction: the
    // execution window crosses the end of the host's current/next ON
    // session. Past the timeline horizon the host counts as permanently
    // ON (no sessions left to die).
    out.session_crossed = false;
    if (start < timeline_.end_day()) {
      const std::size_t i = timeline_.advance(best, start);
      const std::span<const double> ends = timeline_.ends(best);
      out.session_crossed = i < ends.size() && completion > ends[i];
    }

    state_.busy_days[best] += worked;
    state_.free_at[best] = completion;
    totals_.total_cpu_days += worked;
    totals_.makespan_days = std::max(totals_.makespan_days, completion);
    if (selector_) selector_->set(best, completion);
    return out;
  }

  void advance_time(double now) {
    const std::size_t n = state_.size();
    for (std::size_t h = 0; h < n; ++h) {
      if (state_.free_at[h] < now) state_.free_at[h] = now;
    }
    if (selector_) selector_->load(state_.free_at);
  }

  const churn::ChurnScheduleTotals& step_totals() const noexcept {
    return totals_;
  }

 private:
  ScheduleState& state_;
  const churn::IntervalTimeline& timeline_;
  std::vector<double> slowdown_;
  std::optional<EctSelector> selector_;  ///< empty = scalar oracle
  churn::ChurnScheduleTotals totals_;
};

// ---------------------------------------------------------------------------
// The round engine, templated over the stepper (churn::ChurnScheduler in
// stepping mode, or the derate stepper above — both expose
// step(task) -> StepOutcome and advance_time(now)).

// Per-task quorum bookkeeping across rounds.
struct TaskQuorum {
  std::vector<std::pair<double, double>> correct;  ///< (completion, worked)
  std::uint32_t corrupt = 0;
  std::vector<std::uint32_t> counted_hosts;
  bool reissued = false;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      std::floor(static_cast<double>(sorted.size() - 1) * q));
  return sorted[idx];
}

template <typename Stepper>
ReplicationOutcome run_rounds(Stepper& stepper, std::span<const double> tasks,
                              const FaultProfiles& faults,
                              const ReplicationConfig& rep,
                              double& wasted_replica_cpu_days) {
  ReplicationOutcome outcome;
  outcome.tasks_issued = tasks.size();

  std::vector<TaskQuorum> quorums(tasks.size());
  std::vector<std::uint32_t> pending(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    pending[t] = static_cast<std::uint32_t>(t);
  }

  double total_worked = 0.0;
  double useful_sum = 0.0;
  std::vector<double> reissue_latencies;
  std::vector<std::uint32_t> still_pending;
  std::vector<double> completions;  // scratch for the k-th order statistic

  double round_start = 0.0;
  double window = rep.deadline_days;  // grows by `backoff` per round
  for (std::uint32_t round = 0; !pending.empty(); ++round) {
    if (round > 0) stepper.advance_time(round_start);
    const double deadline = rep.has_deadline() ? round_start + window : kInf;

    // Issue this round's replicas in task order; kAbandon's incomplete
    // attempts re-enter at the back, exactly like ChurnScheduler::run's
    // queue.
    std::deque<std::uint32_t> queue;
    for (const std::uint32_t t : pending) {
      for (std::uint32_t j = 0; j < rep.replicas; ++j) queue.push_back(t);
    }
    outcome.replicas_issued += queue.size();

    while (!queue.empty()) {
      const std::uint32_t t = queue.front();
      queue.pop_front();
      const auto s = stepper.step(tasks[t]);
      total_worked += s.worked_days;
      const FaultType fault = faults.type[s.host];

      if (!s.completed) {
        // kAbandon only: the session died under the attempt. On a crash
        // host the client is gone with it — the replica is lost; any
        // other host hands the task back and the replica retries.
        if (fault == FaultType::kCrash) {
          ++outcome.replicas_crashed;
        } else {
          queue.push_back(t);
        }
        continue;
      }
      if (fault == FaultType::kCrash && s.session_crossed) {
        // The session died mid-execution: the result never reports. The
        // host still burned the time — the server only sees a timeout.
        ++outcome.replicas_crashed;
        continue;
      }
      if (s.completion > deadline) {
        ++outcome.replicas_missed_deadline;
        continue;
      }
      TaskQuorum& q = quorums[t];
      if (std::find(q.counted_hosts.begin(), q.counted_hosts.end(),
                    s.host) != q.counted_hosts.end()) {
        ++outcome.replicas_duplicate_host;
        continue;
      }
      q.counted_hosts.push_back(s.host);
      if (fault == FaultType::kCorrupter) {
        ++outcome.replicas_corrupt;
        ++q.corrupt;
      } else {
        ++outcome.replicas_correct;
        q.correct.emplace_back(s.completion, s.worked_days);
      }
    }

    // Resolve every pending task: validate, re-issue, or fail terminally.
    const bool rounds_remain = rep.has_deadline() && round < rep.max_retries;
    still_pending.clear();
    for (const std::uint32_t t : pending) {
      TaskQuorum& q = quorums[t];
      if (q.correct.size() >= rep.quorum) {
        ++outcome.tasks_validated;
        completions.clear();
        for (const auto& cw : q.correct) completions.push_back(cw.first);
        std::sort(completions.begin(), completions.end());
        const double validated_at = completions[rep.quorum - 1];
        outcome.last_validation_day =
            std::max(outcome.last_validation_day, validated_at);
        if (q.reissued) reissue_latencies.push_back(validated_at);
        // One copy of the work was useful: the earliest counted correct
        // replica's processing time. Everything else is redundancy/fault
        // overhead.
        double useful = q.correct.front().second;
        double earliest = q.correct.front().first;
        for (const auto& [done, worked] : q.correct) {
          if (done < earliest) {
            earliest = done;
            useful = worked;
          }
        }
        useful_sum += useful;
      } else if (rounds_remain) {
        q.reissued = true;
        ++outcome.reissues;
        still_pending.push_back(t);
      } else if (q.correct.size() + q.corrupt >= rep.quorum) {
        // Enough results arrived in time, but corruption kept the
        // matching-digest count below quorum: TaskFailReason::
        // kQuorumConflict.
        ++outcome.tasks_invalid;
      } else {
        // Too few results survived their deadlines (crashes /
        // stragglers): TaskFailReason::kDeadlineExhausted.
        ++outcome.tasks_missed_deadline;
      }
    }
    pending.swap(still_pending);
    round_start = deadline;
    window *= rep.backoff;
  }

  wasted_replica_cpu_days = total_worked - useful_sum;
  std::sort(reissue_latencies.begin(), reissue_latencies.end());
  outcome.reissue_latency_p50_days = percentile(reissue_latencies, 0.50);
  outcome.reissue_latency_p90_days = percentile(reissue_latencies, 0.90);
  outcome.reissue_latency_p99_days = percentile(reissue_latencies, 0.99);

  // The zero-silently-lost-tasks invariant, structurally true by the
  // resolve loop above; assert it anyway — the whole point of the layer.
  assert(outcome.conserves_tasks());
  return outcome;
}

BagOfTasksResult fold_result(const ScheduleState& state,
                             const churn::ChurnScheduleTotals& totals,
                             ReplicationOutcome outcome,
                             double wasted_replica_cpu_days) {
  BagOfTasksResult result;
  result.makespan_days = totals.makespan_days;
  result.total_cpu_days = totals.total_cpu_days;
  result.wasted_cpu_days = totals.wasted_cpu_days;
  result.interruptions = totals.interruptions;
  double sum = 0.0;
  for (const double b : state.busy_days) {
    sum += b;
    result.max_host_busy_days = std::max(result.max_host_busy_days, b);
    if (b > 0.0) ++result.hosts_used;
  }
  result.mean_host_busy_days =
      state.busy_days.empty()
          ? 0.0
          : sum / static_cast<double>(state.busy_days.size());
  outcome.wasted_replica_cpu_days = wasted_replica_cpu_days;
  result.replication = outcome;
  return result;
}

void check_inputs(std::size_t hosts, std::span<const double> slowdown,
                  const FaultProfiles& faults,
                  const ReplicationConfig& replication) {
  replication.validate();
  if (faults.type.size() != hosts || slowdown.size() != hosts) {
    throw std::invalid_argument(
        "replicated run: fault profiles do not cover the hosts");
  }
}

}  // namespace

BagOfTasksResult run_replicated_churn(churn::ChurnScheduler& scheduler,
                                      ScheduleState& state,
                                      std::span<const double> tasks,
                                      const FaultProfiles& faults,
                                      const ReplicationConfig& replication,
                                      churn::InterruptionPolicy interruption,
                                      bool reference_dynamics) {
  check_inputs(state.size(), faults.slowdown, faults, replication);
  scheduler.begin_stepping(tasks, interruption, faults.slowdown,
                           reference_dynamics);
  double wasted_replica = 0.0;
  ReplicationOutcome outcome =
      run_rounds(scheduler, tasks, faults, replication, wasted_replica);
  return fold_result(state, scheduler.step_totals(), std::move(outcome),
                     wasted_replica);
}

BagOfTasksResult run_replicated_ect(ScheduleState& state,
                                    const churn::IntervalTimeline& timeline,
                                    std::span<const double> tasks,
                                    const FaultProfiles& faults,
                                    const ReplicationConfig& replication,
                                    backend::Backend backend_arm,
                                    bool reference_dynamics) {
  check_inputs(state.size(), faults.slowdown, faults, replication);
  if (timeline.host_count() != state.size()) {
    throw std::invalid_argument(
        "replicated run: timeline does not cover the hosts");
  }
  const backend::ResolvedBackend resolved = backend::resolve(backend_arm);
  const bool blocked =
      !reference_dynamics && resolved.arm != backend::Backend::kScalar;
  DerateEctStepper stepper(
      state, timeline, faults.slowdown,
      blocked ? &backend::kernel_ops(resolved.simd) : nullptr);
  double wasted_replica = 0.0;
  ReplicationOutcome outcome =
      run_rounds(stepper, tasks, faults, replication, wasted_replica);
  return fold_result(state, stepper.step_totals(), std::move(outcome),
                     wasted_replica);
}

}  // namespace resmodel::sim
