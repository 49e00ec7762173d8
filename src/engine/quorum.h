// The k-of-n quorum overlay of the service engine: a day-barrier
// accounting layer that interprets the measurement substrate's granted
// work units as replica assignments of striped tasks and validates them
// with sim::ReplicationConfig's quorum policy.
//
// Shards emit one DayRecord per non-empty side effect of a contact
// (report / loss / expiry / grant); at each day barrier the coordinator
// merges every shard's records, sorts them by (client, seq) — a total
// order independent of shard count and drain interleaving — and replays
// them against flat per-task columns. Unit u of a day's grant stream is
// striped to task `base + u % T` with `T = ceil(U / replicas)`, so each
// of the day's T fresh tasks receives at most `replicas` replicas and
// consecutive grants to one host spread across distinct tasks.
//
// A replica resolves when its unit leaves the server's per-host FIFO:
// reported-valid (correct), reported-invalid (corrupt), lost (crashed)
// or expired (missed deadline) — the same front-first order the server
// consumes grants in. Validation (>= quorum DISTINCT correct hosts)
// fires the moment the quorum completes; failure classification waits
// until every assigned replica of the task has resolved, and because a
// later grant in the same day can still add replicas to a task, that
// resolution runs as a final pass over the day's touched tasks.
//
// Unlike sim/replication.h's scheduler, the overlay observes the
// substrate rather than steering it: there is no re-issue, so there are
// no reissue/backoff counters — tasks whose replicas all die simply
// resolve invalid or missed, and tasks with replicas still in flight at
// the end of the window stay pending.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/fault_model.h"
#include "util/head_fifo.h"

namespace resmodel::engine {

/// What a contact did to a client's in-flight units.
enum class DayRecordKind : std::uint8_t {
  kReport,  ///< completed units left the FIFO (valid => credited)
  kLoss,    ///< crash write-off
  kExpiry,  ///< deadline write-off
  kGrant,   ///< new units entered the FIFO
};

/// One non-empty side effect of one contact. `client` is the GLOBAL
/// client index; `seq` is the client's emission counter — (client, seq)
/// totally orders the records of a day.
struct DayRecord {
  std::uint32_t client = 0;
  std::uint32_t seq = 0;
  std::uint32_t units = 0;
  DayRecordKind kind = DayRecordKind::kGrant;
  bool valid = false;  ///< kReport only: digest matched
};

/// Outcome accounting of the quorum overlay. Tasks partition exactly:
///   tasks_issued == validated + invalid + missed_deadline + pending
/// and replicas likewise:
///   replicas_issued == correct + corrupt + crashed + missed_deadline +
///                      duplicate_host + in_flight.
struct QuorumOutcome {
  std::uint64_t tasks_issued = 0;
  std::uint64_t tasks_validated = 0;
  /// Every replica resolved, >= quorum results returned in time, but no
  /// quorum of distinct correct hosts (corruption dominated).
  std::uint64_t tasks_invalid = 0;
  /// Every replica resolved with fewer than quorum in-time results
  /// (crashes / expiries dominated).
  std::uint64_t tasks_missed_deadline = 0;
  /// Replicas still unresolved when the window closed.
  std::uint64_t tasks_pending = 0;

  std::uint64_t replicas_issued = 0;
  std::uint64_t replicas_correct = 0;
  std::uint64_t replicas_corrupt = 0;
  std::uint64_t replicas_crashed = 0;
  std::uint64_t replicas_missed_deadline = 0;
  /// Correct results from a host already counted for the task: counted
  /// once toward the quorum, the duplicate ignored.
  std::uint64_t replicas_duplicate_host = 0;
  std::uint64_t replicas_in_flight = 0;

  bool conserves_tasks() const noexcept {
    return tasks_issued == tasks_validated + tasks_invalid +
                               tasks_missed_deadline + tasks_pending;
  }
  bool conserves_replicas() const noexcept {
    return replicas_issued ==
           replicas_correct + replicas_corrupt + replicas_crashed +
               replicas_missed_deadline + replicas_duplicate_host +
               replicas_in_flight;
  }
};

/// Replays day-record batches into task outcomes. Single-threaded by
/// design: a serial replay over a totally ordered record stream is what
/// makes the outcome independent of shard count. The replay is linear in
/// the day's records (a radix sort on (client, seq), the replay, one
/// classification pass over the tasks a resolution touched), but it is
/// not free: on perfbench's serve-durable run (250k clients, 2-of-3,
/// 1.3M records over eight day barriers, 4 threads on a 4-vCPU Xeon VM)
/// it takes about 0.17 s, a third of the 0.5 s parallel drain it waits
/// behind.
class QuorumCoordinator {
 public:
  /// `clients` is the global population size (bounds the client index).
  /// Validates `config` (throws std::invalid_argument).
  QuorumCoordinator(const sim::ReplicationConfig& config,
                    std::size_t clients);

  /// Reconstructs a coordinator from a serialize_state() blob (engine
  /// checkpoint resume). Throws std::runtime_error on a structurally
  /// inconsistent blob, and on one whose task counts, task states or FIFO
  /// entries break the invariants apply_day keeps (it indexes with them).
  QuorumCoordinator(const sim::ReplicationConfig& config, std::size_t clients,
                    std::span<const std::byte> state);

  /// Appends the coordinator's complete in-flight round state — task
  /// columns, per-client unit FIFOs, outcome counters — to `out`. Legal
  /// at any day barrier (apply_day leaves no intra-day state behind).
  void serialize_state(std::vector<std::byte>& out) const;

  /// Merges and replays one day's records from every shard (any order;
  /// replay sorts by (client, seq)). `records` is consumed.
  void apply_day(std::vector<DayRecord> records);

  /// Closes the books: classifies still-open tasks as pending and
  /// unresolved replicas as in flight. Call once, after the last day.
  QuorumOutcome finish() const;

 private:
  enum class TaskState : std::uint8_t {
    kOpen,
    kValidated,
    kInvalid,
    kMissedDeadline,
  };

  sim::ReplicationConfig config_;

  // Flat per-task columns; a day with U granted units appends
  // T = ceil(U / replicas) tasks. Counts are bounded by replicas <= 32.
  std::vector<std::uint8_t> assigned_;
  std::vector<std::uint8_t> accounted_;
  std::vector<std::uint8_t> returned_;       ///< in-time results, any digest
  std::vector<std::uint8_t> correct_count_;  ///< distinct correct hosts
  std::vector<TaskState> state_;
  /// Hosts (global client index) of the counted correct results:
  /// task t's slots are [t * replicas, t * replicas + correct_count_[t]).
  std::vector<std::uint32_t> correct_hosts_;

  /// Task id of each of a client's in-flight units, oldest first — the
  /// overlay's mirror of the server's per-host grant FIFO.
  std::vector<util::HeadFifo<std::uint32_t>> fifos_;

  /// apply_day's first-touch marks, one per task; all zero between days,
  /// so they are not part of the serialized state.
  std::vector<std::uint8_t> touched_;

  QuorumOutcome outcome_;

  std::uint32_t pop_unit(std::uint32_t client);
  void resolve(std::uint32_t task);
  /// Throws std::runtime_error unless the restored columns and FIFOs keep
  /// apply_day's invariants.
  void check_restored() const;

  /// The serialize_state wire format, walked by the writer and by the
  /// restoring constructor, which checks the blob against `clients`.
  template <typename Coordinator, typename Io>
  static void state_fields(Coordinator& q, Io& io, std::uint64_t clients);
};

}  // namespace resmodel::engine
