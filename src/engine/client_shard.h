// One shard of the service engine: a contiguous slice of the client
// population, with a virtual-time event heap over the clients' next
// scheduler contacts.
//
// A shard runs every contact through the same kernel (boinc/contact.h) as
// the boinc::VirtualClient / boinc::ProjectServer pair, but batched: the
// client hosts and states live in flat vectors and the per-host server
// books in columns, all indexed by the shard-local client index. The
// per-host server state is independent across hosts, so draining shards
// concurrently produces bit-identical per-client outcomes to the driver
// oracle's single event queue — the engine's core determinism argument
// (see src/engine/README.md).
//
// Invariants checked while draining (std::logic_error on violation):
//  - virtual-time monotonicity: popped events strictly increase in
//    (day, client index);
//  - unit conservation, re-counted after every drained batch:
//    units_granted == reported + invalid + lost + expired + queued.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "boinc/client.h"
#include "boinc/contact.h"
#include "boinc/server.h"
#include "boinc/simulation.h"
#include "engine/event_heap.h"
#include "engine/quorum.h"
#include "trace/trace_store.h"

namespace resmodel::engine {

/// Shard-wide behaviour shared by every client of the shard.
struct ShardParams {
  /// Client template; per-client fault/straggler_slowdown override it.
  boinc::ClientConfig client;
  /// Effective server policy (the engine applies the replication deadline
  /// override before constructing shards).
  boinc::ServerConfig server;
  /// Last virtual day of the window: events after it are dropped.
  double limit_day = 0.0;
  /// Contacts per conservation recount.
  std::uint32_t batch_size = 4096;
  /// Emit per-contact DayRecords for the quorum coordinator.
  bool emit_day_records = false;
};

/// Monotone unit/credit counters of one shard.
struct ShardTotals : boinc::ContactTotals {
  std::uint64_t batches_drained = 0;
};

/// One client's closing account, read back by the engine for the
/// per-client oracle-equivalence contract.
struct ClientAccount {
  std::uint64_t id = 0;
  std::uint32_t contacts = 0;
  std::uint32_t units_granted = 0;
  std::uint32_t units_reported = 0;
  std::uint32_t units_invalid = 0;
  std::uint32_t units_lost = 0;
  std::uint32_t units_expired = 0;
  std::uint32_t units_in_flight = 0;  ///< still queued server-side
  double credit = 0.0;
};

class ClientShard {
 public:
  /// Adopts `clients` (a contiguous slice of the global population, whose
  /// first element has global index `global_base`) and seeds the event
  /// heap with their birth contacts. Each client state makes the same
  /// construction draws as a VirtualClient's. Validates the templates.
  ClientShard(const ShardParams& params,
              std::span<const boinc::ArrivedClient> clients,
              std::uint32_t global_base);

  /// Reconstructs a shard from a serialize_state() blob (engine
  /// checkpoint resume). No construction draws are replayed — every
  /// column, rng stream, heap membership bit and counter is restored
  /// verbatim, so the rebuilt shard drains bit-identically to the one
  /// that was serialized. Throws std::runtime_error on a structurally
  /// inconsistent blob (the checkpoint loader wraps it into a typed
  /// StoreError).
  ClientShard(const ShardParams& params, std::span<const std::byte> state);

  /// Appends the shard's complete resumable state to `out` (see
  /// src/engine/README.md for the checkpoint protocol). Only legal at a
  /// day barrier with no untaken day records (std::logic_error
  /// otherwise — a checkpoint between take_day_records() calls would
  /// drop quorum records on resume).
  void serialize_state(std::vector<std::byte>& out) const;

  std::size_t size() const noexcept { return hosts_.size(); }
  bool drained() const noexcept { return heap_.empty(); }

  /// Pops and processes every event with virtual time < day_end (pass
  /// +infinity to drain the whole horizon). Events past the window or the
  /// client's death are dropped without processing, exactly like the
  /// oracle's liveness check. Throws std::logic_error if monotonicity or
  /// conservation is violated.
  void drain(double day_end);

  const ShardTotals& totals() const noexcept { return totals_; }

  /// Units currently queued server-side across the shard's clients.
  std::uint64_t queued_units() const noexcept;

  /// Day records accumulated since the last take (emit_day_records only);
  /// client indices are global. Leaves the buffer empty.
  std::vector<DayRecord> take_day_records();

  /// Appends one HostRecord per contacted client, in client order.
  void append_trace(trace::TraceStore& store) const;

  ClientAccount account(std::size_t i) const;

 private:
  /// One scheduler contact of client `i` at its next_contact_day: the
  /// boinc/contact.h client and server halves, then the trace-column
  /// upsert, the counters and the day-record emission.
  void contact_step(std::uint32_t i);

  /// Full recount of the conservation invariant (std::logic_error).
  void check_conservation() const;

  /// The serialize_state wire format, walked by the writer and by the
  /// restoring constructor. `in_heap` is the per-client heap membership:
  /// derived from the heap on write, read back for the rebuild on restore.
  template <typename Shard, typename Io>
  static void state_fields(Shard& shard, Io& io,
                           std::vector<std::uint8_t>& in_heap);

  ShardParams params_;
  std::uint32_t global_base_ = 0;

  // Per-client protocol state (boinc/contact.h): fixed host facts and
  // lifetime, then the mutable client state.
  std::vector<boinc::ClientHost> hosts_;
  std::vector<std::int32_t> created_day_;
  std::vector<double> death_day_;
  std::vector<boinc::ClientState> clients_;

  // Server-side per-host state columns (ProjectServer::HostState). They
  // stay columnar: the conservation recount sums server_queued_ after
  // every drained batch.
  std::vector<std::uint8_t> contacted_;
  std::vector<std::int32_t> rec_first_day_;
  std::vector<std::int32_t> rec_last_day_;
  std::vector<double> meas_dhrystone_;
  std::vector<double> meas_whetstone_;
  std::vector<double> meas_disk_;
  std::vector<std::uint32_t> server_queued_;
  std::vector<boinc::GrantFifo> grants_;

  // Per-client unit and credit counters (the oracle-equivalence accounts).
  std::vector<boinc::ContactTally<std::uint32_t>> accounts_;

  // Quorum-overlay emission (emit_day_records only).
  std::vector<std::uint32_t> record_seq_;
  std::vector<DayRecord> day_records_;

  EventHeap heap_;
  Event prev_event_{};
  bool have_prev_event_ = false;
  ShardTotals totals_;
};

}  // namespace resmodel::engine
