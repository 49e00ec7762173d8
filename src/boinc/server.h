// The master side of the measurement substrate: records every host's
// latest measurement, grants work sized to the host's measured speed, and
// periodically "writes host data to publicly available files" — here, a
// TraceStore snapshot identical in schema to the synthetic ground truth.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "boinc/contact.h"
#include "boinc/messages.h"
#include "trace/trace_store.h"

namespace resmodel::boinc {

/// Work-unit sizing policy.
struct ServerConfig {
  /// One work unit's floating point cost, in Whetstone-MIPS-days: a host
  /// with W MIPS per core and C cores completes C*W/work_unit_cost units
  /// per day of computation.
  double work_unit_cost_mips_days = 4000.0;
  /// Maximum work units in flight per host.
  std::uint32_t max_queued_units = 16;
  /// Credit per completed work unit.
  double credit_per_unit = 10.0;
  /// Suggested contact cadence (days).
  double contact_interval_days = 2.0;
  /// Report deadline for granted units, in days after the grant. Units a
  /// host still holds past the deadline are written off server-side
  /// (freeing queue room for a re-grant) and earn no credit if reported
  /// later. 0 disables deadlines — grants never expire.
  double report_deadline_days = 0.0;
};

class ProjectServer {
 public:
  explicit ProjectServer(ServerConfig config = {}) : config_(config) {}

  /// Handles one scheduler request: upserts the host's trace record, then
  /// runs the server half of boinc/contact.h over the host's books.
  SchedulerReply handle_request(const SchedulerRequest& request);

  /// Number of distinct hosts that ever contacted the server.
  std::size_t host_count() const noexcept { return records_.size(); }

  std::uint64_t total_contacts() const noexcept { return totals_.contacts; }
  std::uint64_t total_units_granted() const noexcept {
    return totals_.units_granted;
  }
  double total_credit_granted() const noexcept {
    return totals_.credit_granted;
  }
  /// Units written off because a host reported them lost (crash faults).
  std::uint64_t total_units_lost() const noexcept { return totals_.units_lost; }
  /// Units written off because their report deadline passed.
  std::uint64_t total_units_expired() const noexcept {
    return totals_.units_expired;
  }
  /// Completed units rejected for a digest mismatch (corrupter faults).
  std::uint64_t total_invalid_result_units() const noexcept {
    return totals_.units_invalid;
  }

  /// The periodic public dump: one record per host with its most recent
  /// measurements and first/last contact days.
  trace::TraceStore dump_trace() const;

 private:
  struct HostState {
    trace::HostRecord record;
    std::uint32_t queued_units = 0;
    GrantFifo grants;
  };

  ServerConfig config_;
  std::unordered_map<std::uint64_t, HostState> records_;
  ContactTotals totals_;
};

}  // namespace resmodel::boinc
