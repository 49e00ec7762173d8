// The sharded, event-driven virtual-time service engine: the scale path
// of the BOINC-style measurement substrate (boinc/).
//
// run_service_engine partitions the client population into contiguous
// shards (engine/client_shard.h), drains their virtual-time event heaps
// on a worker pool, and folds the shards' columns back into one result
// in global client order. Per-host server state is independent across
// hosts, so the outcome is bit-identical to the single-queue oracle
// boinc::run_collection and invariant in the shard and thread counts —
// the equivalence the engine tests pin down.
//
// Two population modes:
//  - arrival mode (default): the full §IV arrival process via
//    boinc::build_arrivals — the oracle-comparable configuration;
//  - cohort mode (cohort_clients > 0): a fixed-size cohort synthesized
//    at one hardware date, all born on day 0 and alive for
//    cohort_horizon_days — the O(clients)-controlled scale/bench shape
//    ("N clients x D virtual days").
//
// With replication enabled the engine adds the quorum overlay
// (engine/quorum.h): shards drain one virtual day at a time and the
// coordinator replays every shard's day records at the barrier. The
// replication deadline then overrides the server's report deadline, so
// expiries land exactly when the quorum policy says replicas die.
//
// Checkpointing (engine/checkpoint.h) rides the same day barriers: with
// a checkpoint path set the engine day-steps too, atomically publishing
// the complete resumable state every checkpoint_every_days, and a
// resume_path reconstructs the shards (and coordinator) from the
// snapshot and continues the drain bit-identically to a run that was
// never interrupted.
#pragma once

#include <cstdint>
#include <vector>

#include <string>

#include "boinc/simulation.h"
#include "engine/client_shard.h"
#include "engine/quorum.h"
#include "sim/fault_model.h"
#include "store/fault_injection.h"
#include "trace/trace_store.h"

namespace resmodel::engine {

struct EngineConfig {
  /// Client/server templates, fault mix, and (arrival mode) the
  /// population window — shared verbatim with the oracle.
  boinc::CollectionConfig collection;

  /// > 0 switches to cohort mode: this many clients, hardware drawn from
  /// collection.population's model at its sim_end date, all created on
  /// day 0 with death day cohort_horizon_days.
  std::uint64_t cohort_clients = 0;
  double cohort_horizon_days = 0.0;

  /// Contiguous client partitions drained independently. Results are
  /// invariant in this (and in threads); it only sets the parallel grain.
  std::uint32_t shards = 1;
  /// Worker threads; <= 0 uses the hardware concurrency.
  int threads = 1;
  /// Contacts per conservation recount inside a shard.
  std::uint32_t batch_size = 4096;

  /// k-of-n quorum overlay; disabled => the barrier-free fast path.
  sim::ReplicationConfig replication;

  /// Record per-client closing accounts in EngineResult::per_client
  /// (O(clients) memory — meant for tests, not the 1M bench).
  bool record_per_client = false;

  // --- Checkpoint/resume (engine/checkpoint.h). ---

  /// Non-empty enables epoch snapshots: the complete engine state is
  /// written here (atomically) every checkpoint_every_days virtual days,
  /// at the day barrier. Forces the day-stepped drain.
  std::string checkpoint_path;
  std::uint32_t checkpoint_every_days = 1;

  /// Non-empty resumes a run from a checkpoint instead of building a
  /// population: cohort/arrival/replication config comes from the
  /// checkpoint's run header (the corresponding fields here are
  /// ignored). Throws StoreError if the checkpoint is damaged.
  std::string resume_path;

  /// >= 0: stop cleanly after this virtual day's barrier (a forced
  /// checkpoint is written first when checkpoint_path is set) and return
  /// with EngineResult::halted — the deterministic stand-in for a
  /// mid-run kill in tests and the CI kill-and-resume leg.
  std::int32_t stop_after_day = -1;

  /// Fault injected into the checkpoint_fault_epoch'th checkpoint write
  /// (1-based) via store::FaultyFileSystem — the write throws a typed
  /// StoreError and the run dies, with the previously published
  /// checkpoint guaranteed untouched. kNone = no injection.
  store::FaultPlan checkpoint_fault;
  std::uint64_t checkpoint_fault_epoch = 1;

  /// Throws std::invalid_argument on shards/batch_size of 0, a cohort
  /// without a positive horizon, an invalid replication config, a finite
  /// replication.deadline_days with replication disabled,
  /// checkpoint_every_days of 0, or a checkpoint fault without a
  /// checkpoint path.
  void validate() const;
};

struct EngineResult {
  /// The server's public dump, in global client order (the oracle's dump
  /// iterates a hash map — compare sorted by host id).
  trace::TraceStore trace;
  std::size_t hosts_created = 0;

  std::uint64_t total_contacts = 0;
  std::uint64_t total_units_granted = 0;
  std::uint64_t total_units_reported = 0;
  double total_credit_granted = 0.0;
  std::uint64_t total_units_lost = 0;
  std::uint64_t total_units_expired = 0;
  std::uint64_t total_invalid_result_units = 0;
  /// Units still queued server-side when the window closed.
  std::uint64_t units_in_flight = 0;

  std::uint64_t batches_drained = 0;

  /// Quorum overlay outcome; all-zero when replication is disabled.
  QuorumOutcome quorum;

  /// Checkpoints published by this process (resume epochs excluded).
  std::uint64_t checkpoints_written = 0;
  /// True when the run stopped at EngineConfig::stop_after_day — the
  /// counters above are the partial books of the simulated prefix.
  bool halted = false;
  /// First virtual day simulated after a resume; -1 for a fresh run.
  std::int32_t resumed_from_day = -1;

  /// Wall time of the drain phase (population build excluded) and the
  /// scheduler-request throughput it implies.
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;

  /// Per-client closing accounts in global client order
  /// (EngineConfig::record_per_client only).
  std::vector<ClientAccount> per_client;

  /// granted == reported + invalid + lost + expired + in-flight.
  bool conserves_units() const noexcept {
    return units_unaccounted() == 0;
  }
  /// Absolute conservation gap, 0 when the books balance — exported as a
  /// zero-gated bench counter.
  std::uint64_t units_unaccounted() const noexcept {
    const std::uint64_t accounted = total_units_reported +
                                    total_invalid_result_units +
                                    total_units_lost + total_units_expired +
                                    units_in_flight;
    return total_units_granted > accounted ? total_units_granted - accounted
                                           : accounted - total_units_granted;
  }
};

/// Runs the engine end to end: build population, shard, drain, fold.
/// Deterministic for a fixed config; bit-identical across shard and
/// thread counts. Throws std::invalid_argument on bad config and
/// std::logic_error if a drain invariant is violated.
EngineResult run_service_engine(const EngineConfig& config);

}  // namespace resmodel::engine
