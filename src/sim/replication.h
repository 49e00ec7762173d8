// Round-based fault-tolerant work distribution: per-task n-way
// replication with k-of-n quorum validation, deadline re-issue under
// exponential backoff, and graceful degradation — the server-side
// robustness layer over the ECT-family schedulers.
//
// Timing model. Every task issues its first n replicas at T = 0; round
// r's report window is deadline_days * backoff^r, and round r+1 issues
// the instant round r's window closes — one globally synchronized round
// clock (BOINC's per-WU deadlines staggered per workunit would make the
// selection order depend on evaluation order; the shared clock keeps the
// whole run a deterministic function of the inputs). Replica placement
// and timing come from the underlying scheduler, stepped one replica at
// a time:
//
//  - churn policies (kChurnEct*): churn::ChurnScheduler in its
//    begin_stepping/step driving mode — completion times walk the real
//    ON/OFF intervals under checkpoint / restart / abandon semantics
//    (kRestart burns sessions per REPLICA, so quorum and interruption
//    policy interact exactly as the study intends);
//  - kDynamicEct: a stepped version of the blocked free_at + task*inv
//    selection (scalar-derated rates), with the interval timeline
//    consulted only by the crash model.
//
// Fault semantics per replica (host behaviours from sim/fault_model.h):
//   crash     — the replica is LOST iff its execution crossed an
//               ON-session boundary of the host's timeline realization
//               (the session died under it); the host still burns the
//               time — the server only ever sees a timeout.
//   straggler — the scheduler selects on the host's nominal rate but the
//               execution is charged work * slowdown (benchmarks fast,
//               runs slow): results tend to miss their deadlines.
//   corrupter — completes on time, returns a wrong digest
//               (fault_model.h's corrupted_digest): counted, never
//               matches the canonical quorum.
// A host that already returned a counted result for a task counts once;
// later replicas landing there are ignored as duplicates.
//
// After each round's replicas resolve, every pending task either
// validates (>= quorum counted correct results; validation time = the
// quorum-completing result's completion), re-issues (rounds remain and a
// finite deadline exists), or fails TERMINALLY with a
// fault_model.h::TaskFailReason — never silently dropped or
// infinite-looped: the engine asserts
// ReplicationOutcome::conserves_tasks() before returning.
//
// Determinism: both entry points are pure functions of (state, timeline,
// tasks, faults, config) — no rng, no time-dependence — and the
// reference_dynamics flag selects the scalar full-scan oracle selection,
// bit-identical to the blocked fast path by the same contract as
// run()/run_reference().
#pragma once

#include <span>

#include "churn/churn_scheduler.h"
#include "churn/interval_timeline.h"
#include "sim/bag_of_tasks.h"
#include "sim/fault_model.h"
#include "sim/schedule_state.h"

namespace resmodel::sim {

/// Replicated run over a churn scheduler (the kChurnEct* policies).
/// `scheduler` must be freshly constructed over `state` (as a bag-of-tasks
/// cell builds it, from the warm cursor seed); `faults` must cover
/// the hosts and `tasks` carries the nominal task costs. Host-side
/// accounting (makespan, busy columns, churn interruptions) lands in the
/// usual BagOfTasksResult fields; the replication counters in
/// result.replication.
BagOfTasksResult run_replicated_churn(churn::ChurnScheduler& scheduler,
                                      ScheduleState& state,
                                      std::span<const double> tasks,
                                      const FaultProfiles& faults,
                                      const ReplicationConfig& replication,
                                      churn::InterruptionPolicy interruption,
                                      bool reference_dynamics);

/// Replicated run under kDynamicEct: selection is the classic blocked
/// free_at + task*inv minimum over `state`'s (derated) rates, stepped one
/// replica at a time; `timeline` drives only the crash model.
/// `backend_arm` routes the selection like every other dynamic kernel
/// (kScalar or reference_dynamics = the scalar oracle).
BagOfTasksResult run_replicated_ect(ScheduleState& state,
                                    const churn::IntervalTimeline& timeline,
                                    std::span<const double> tasks,
                                    const FaultProfiles& faults,
                                    const ReplicationConfig& replication,
                                    backend::Backend backend_arm,
                                    bool reference_dynamics);

}  // namespace resmodel::sim
