// The scheduler-contact protocol, written once: boinc::run_collection
// (VirtualClient + ProjectServer) and the sharded service engine
// (engine::ClientShard) both run every contact through client_contact and
// server_contact. A client's draws all come from its own stream, in a
// fixed order, so its outcome depends only on that stream and its host's
// books — which is what lets the engine shard the population and still
// match run_collection bit for bit.
#pragma once

#include <cstdint>

#include "boinc/messages.h"
#include "sim/fault_model.h"
#include "trace/host_record.h"
#include "util/head_fifo.h"
#include "util/rng.h"

namespace resmodel::boinc {

struct ClientConfig;
struct ServerConfig;

/// The fixed per-client facts the client half reads: the true hardware
/// (every measurement re-reports it, with jittered benchmarks) and the
/// injected behaviour.
struct ClientHost {
  ClientHost() = default;
  ClientHost(const trace::HostRecord& spec, sim::FaultType fault,
             double straggler_slowdown);

  std::uint64_t id = 0;
  double memory_mb = 0.0;
  double dhrystone_mips = 0.0;
  double whetstone_mips = 0.0;
  double disk_total_gb = 0.0;
  double gpu_memory_mb = 0.0;
  double straggler_slowdown = 1.0;  ///< >= 1; only read for kStraggler
  std::int32_t n_cores = 1;
  trace::CpuFamily cpu = trace::CpuFamily::kOther;
  trace::OsFamily os = trace::OsFamily::kOther;
  trace::GpuType gpu = trace::GpuType::kNone;
  sim::FaultType fault = sim::FaultType::kHonest;
};

/// A client's mutable protocol state.
struct ClientState {
  ClientState() = default;
  /// A client born at spec.created_day drawing from `stream`. Under the
  /// availability model this makes the construction draws: the first ON
  /// interval (the first contact happens while the host is up), then the
  /// birth session's benchmark pair. `config` must be valid.
  ClientState(const trace::HostRecord& spec, util::Rng stream,
              const ClientConfig& config);

  util::Rng rng;
  double next_contact_day = 0.0;
  double last_contact_day_done = 0.0;
  double on_interval_end = 0.0;  ///< end of the current ON interval
  double disk_avail_gb = 0.0;    ///< the drifting available disk
  /// The current ON session's benchmark scores (availability model only):
  /// redrawn whenever a deferral crosses a session boundary.
  double session_dhrystone_mips = 0.0;
  double session_whetstone_mips = 0.0;
  std::uint32_t queued_units = 0;  ///< granted work held by the client
  /// Set when a deferral crosses an ON-session boundary; a kCrash client
  /// applies the loss at the START of its next contact (the grant from
  /// the previous contact has landed by then).
  bool session_died = false;
};

/// The client half of one scheduler contact at state.next_contact_day:
/// builds the request and schedules the next contact.
SchedulerRequest client_contact(ClientState& state, const ClientHost& host,
                                const ClientConfig& config);

/// One outstanding grant: units due by expiry_day.
struct Grant {
  double expiry_day = 0.0;
  std::uint32_t units = 0;
};

/// One host's outstanding grants, oldest first. Completions, loss
/// write-offs and expiries all consume from the front — the oldest grant
/// is always the first to finish or die. Every entry holds >= 1 unit.
using GrantFifo = util::HeadFifo<Grant>;

/// Removes min(units, queued) units from the front of `grants`, splitting
/// an entry when the count ends inside it, and keeps `queued` in sync.
/// Returns the number removed.
std::uint32_t consume_grants(std::uint32_t& queued, GrantFifo& grants,
                             std::uint32_t units) noexcept;

/// What the server half did to one host's books.
struct Settlement {
  /// The reported batch's digest matched (true when nothing was reported).
  bool result_valid = true;
  std::uint32_t reported = 0;  ///< completed units that left the queue
  double credit = 0.0;         ///< credit granted (valid batches only)
  std::uint32_t lost = 0;      ///< units written off for a session death
  std::uint32_t expired = 0;   ///< units written off past their deadline
  std::uint32_t granted = 0;   ///< new units, appended to `grants`
};

/// Running totals over settled contacts — a server's or a shard's
/// (ContactTotals), or one host's (counted in 32 bits).
template <typename Count>
struct ContactTally {
  Count contacts = 0;
  Count units_granted = 0;
  Count units_reported = 0;  ///< completed, validated, credited
  Count units_invalid = 0;   ///< completed but digest-rejected
  Count units_lost = 0;      ///< crash write-offs
  Count units_expired = 0;   ///< deadline write-offs
  double credit_granted = 0.0;

  void add(const Settlement& s) noexcept {
    ++contacts;
    units_granted += s.granted;
    if (s.result_valid) {
      units_reported += s.reported;
      credit_granted += s.credit;
    } else {
      units_invalid += s.reported;
    }
    units_lost += s.lost;
    units_expired += s.expired;
  }
};
using ContactTotals = ContactTally<std::uint64_t>;

/// The server half of one contact over one host's books (its queued count
/// and grant FIFO): validates the reported batch, prices its credit,
/// writes off lost units, expires grants past their deadline (the freed
/// room lets this same contact re-grant), and grants work sized to the
/// measured speed, capped by the queue limit.
Settlement server_contact(std::uint32_t& queued, GrantFifo& grants,
                          const ServerConfig& config,
                          const SchedulerRequest& request);

}  // namespace resmodel::boinc
