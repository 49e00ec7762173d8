// Discrete-event simulation of the data-collection method (Section IV):
// hosts arrive, periodically contact the project server with fresh
// self-measurements, receive work, and eventually disappear. The output is
// the server's public trace dump — the same schema the synthetic ground
// truth and the fitting pipeline use, so the entire
// collect -> dump -> fit -> generate loop can run end to end.
#pragma once

#include <vector>

#include "boinc/client.h"
#include "boinc/server.h"
#include "sim/allocator.h"
#include "synth/population_config.h"
#include "trace/trace_store.h"

namespace resmodel::boinc {

struct CollectionConfig {
  /// Hardware population, arrivals and lifetimes (shared with synth so the
  /// collected trace matches the ground-truth statistics).
  synth::PopulationConfig population;
  ClientConfig client;
  ServerConfig server;

  /// Per-host fault mix (sim/fault_model.h). Each arriving host draws a
  /// fault type from a dedicated rng fork, overriding the client
  /// template's `fault`/`straggler_slowdown`. When the mix is all-zero
  /// no fork is consumed and the client template is used verbatim, so
  /// fault-free runs reproduce the pre-fault event stream exactly.
  sim::FaultMixConfig fault_mix;

  /// When true, the run ends with the §VII utility step: the collected
  /// trace's plausible snapshot at the latest populated day of the window
  /// is allocated across the Table-IX applications through the columnar
  /// round-robin allocator and reported in
  /// CollectionResult::final_allocation.
  bool allocate_final_utility = false;

  /// Validates the fault mix and the client template, and rejects crash
  /// faults without client.model_availability (a crash loses work only
  /// when an ON session ends). Throws std::invalid_argument.
  void validate() const;
};

struct CollectionResult {
  trace::TraceStore trace;  ///< the server's public dump at the end
  std::size_t hosts_created = 0;
  std::uint64_t total_contacts = 0;
  std::uint64_t total_units_granted = 0;
  double total_credit_granted = 0.0;
  /// Robustness counters (nonzero only with faults/deadlines enabled).
  std::uint64_t total_units_lost = 0;      ///< crash write-offs
  std::uint64_t total_units_expired = 0;   ///< deadline write-offs
  std::uint64_t total_invalid_result_units = 0;  ///< digest mismatches

  /// Filled when CollectionConfig::allocate_final_utility is set: the
  /// round-robin allocation of the end-of-window snapshot to
  /// sim::paper_applications() (empty vectors otherwise).
  sim::AllocationResult final_allocation;
  std::size_t final_allocation_hosts = 0;
};

/// One client of the arrival process: the host spec (created_day /
/// last_contact_day are the birth/death days), the behaviour drawn from
/// the fault mix, and the client's private rng stream. The shared
/// ClientConfig template plus (fault, straggler_slowdown) reconstructs the
/// per-client config.
struct ArrivedClient {
  trace::HostRecord spec;
  sim::FaultType fault = sim::FaultType::kHonest;
  double straggler_slowdown = 1.0;
  util::Rng rng;
};

/// The wrap-up both population builders give each client after drawing
/// its spec from `stream`: the fault draw from a dedicated fork when `mix`
/// injects faults, then the client's own fork.
void finish_arrival(ArrivedClient& client, const sim::FaultMixConfig& mix,
                    util::Rng& stream);

/// Materializes the arrival process of the configured window: the
/// day-batched Poisson arrivals, hardware draws, fault draws and
/// per-client rng forks, consuming the master stream exactly as
/// run_collection does. The returned clients (in creation order) are
/// bit-identical to the ones run_collection constructs — the engine
/// (src/engine/) and the oracle share this path, so their populations
/// cannot drift apart. Runs CollectionConfig::validate.
std::vector<ArrivedClient> build_arrivals(const CollectionConfig& config);

/// Runs the full collection window. Deterministic for a fixed config.
/// Retained as the driver oracle for engine::run_service_engine (see
/// src/engine/README.md): single-threaded, one global event queue, one
/// VirtualClient and one ProjectServer exchange per event — the same
/// contact kernel the engine runs, under trivially auditable event
/// order, without shards, folds or checkpoints.
CollectionResult run_collection(const CollectionConfig& config);

}  // namespace resmodel::boinc
