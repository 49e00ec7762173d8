// The worker side: a virtual host with fixed hardware that periodically
// contacts the server, re-measuring itself each time. Benchmarks jitter
// with background load and available disk performs a slow random walk, so
// the server's record reflects the *latest* measurement, exactly as in the
// real system. Under the availability model the benchmark pair is drawn
// once per ON session (BOINC re-runs benchmarks at client restart, not per
// scheduler RPC): every contact inside one session reports the same
// scores, and a session crossing redraws them. Without the availability
// model there are no sessions and the jitter stays per-contact.
#pragma once

#include "boinc/contact.h"
#include "boinc/messages.h"
#include "sim/fault_model.h"
#include "synth/availability.h"
#include "trace/host_record.h"
#include "util/rng.h"

namespace resmodel::boinc {

/// Per-client behaviour parameters.
struct ClientConfig {
  /// Mean days between scheduler contacts (exponential).
  double mean_contact_interval_days = 2.0;
  /// Log-sigma of the benchmark jitter: per ON session under the
  /// availability model, per contact without it.
  double benchmark_jitter_sigma = 0.03;
  /// Log-sigma of the per-contact available-disk random walk.
  double disk_drift_sigma = 0.02;
  /// Seconds of work requested per contact.
  double work_request_seconds = 86400.0;
  /// When true, contacts only happen while the host is available
  /// according to the alternating ON/OFF availability model (§VIII future
  /// work; see synth/availability.h). A contact scheduled during an OFF
  /// interval is deferred to the start of the next ON interval.
  bool model_availability = false;
  synth::AvailabilityParams availability;

  /// Injected behaviour (sim/fault_model.h). kCrash loses the whole
  /// queued batch whenever an ON session ends before the next contact
  /// (requires model_availability — without the session structure there
  /// is nothing to die); kStraggler completes work `straggler_slowdown`
  /// times slower than its benchmarks advertise; kCorrupter reports a
  /// wrong result digest for every non-empty batch.
  sim::FaultType fault = sim::FaultType::kHonest;
  double straggler_slowdown = 1.0;  ///< >= 1; only read for kStraggler

  /// Throws std::invalid_argument on negative jitter/drift sigmas, a
  /// non-positive contact interval, negative requested seconds, a
  /// straggler slowdown below 1, a crash fault without
  /// model_availability, or (with it) invalid availability parameters.
  void validate() const;
};

class VirtualClient {
 public:
  /// `spec` carries the host's true hardware and its lifetime window
  /// (created_day / last_contact_day are interpreted as birth/death days).
  /// Validates `config` (throws std::invalid_argument).
  VirtualClient(trace::HostRecord spec, ClientConfig config, util::Rng rng);

  std::uint64_t id() const noexcept { return spec_.id; }

  /// Day of the next scheduled contact (past the death day once the host
  /// has died).
  double next_contact_day() const noexcept { return state_.next_contact_day; }
  bool alive() const noexcept {
    return state_.next_contact_day <= spec_.last_contact_day;
  }

  /// Produces the request for the current contact and schedules the next
  /// one (the client half of boinc/contact.h). Call only while alive().
  SchedulerRequest make_request();

  /// Delivers the server's reply (queues granted work).
  void handle_reply(const SchedulerReply& reply) noexcept;

  const trace::HostRecord& spec() const noexcept { return spec_; }

 private:
  trace::HostRecord spec_;
  ClientConfig config_;
  ClientHost host_;
  ClientState state_;
};

}  // namespace resmodel::boinc
