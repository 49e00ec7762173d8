#include "boinc/contact.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "boinc/client.h"
#include "boinc/server.h"
#include "stats/distributions.h"

namespace resmodel::boinc {

namespace {

/// One benchmark measurement: the true score times exp(N(0, sigma)).
double jittered(double mips, util::Rng& rng, double sigma) {
  return mips * std::exp(rng.normal(0.0, sigma));
}

/// Draws the session benchmark pair (dhrystone then whetstone) for the ON
/// session just entered.
void draw_session_benchmarks(ClientState& s, double dhrystone_mips,
                             double whetstone_mips, double sigma) {
  s.session_dhrystone_mips = jittered(dhrystone_mips, s.rng, sigma);
  s.session_whetstone_mips = jittered(whetstone_mips, s.rng, sigma);
}

/// Advances the ON/OFF state machine so next_contact_day lands inside an
/// ON interval (availability model only).
void defer_to_available(ClientState& s, const ClientHost& host,
                        const ClientConfig& config) {
  const stats::WeibullDist on_dist(config.availability.on_weibull_k,
                                   config.availability.on_weibull_lambda);
  const stats::LogNormalDist off_dist(config.availability.off_lognormal_mu,
                                      config.availability.off_lognormal_sigma);
  bool crossed = false;
  while (s.next_contact_day > s.on_interval_end) {
    // Crossing an ON-session boundary kills whatever a crash-faulty
    // client had in flight; the loss is applied at the next contact.
    s.session_died = true;
    crossed = true;
    const double off_len = std::max(1e-6, off_dist.sample(s.rng));
    const double on_start = s.on_interval_end + off_len;
    const double on_len = std::max(1e-6, on_dist.sample(s.rng));
    if (s.next_contact_day < on_start) s.next_contact_day = on_start;
    s.on_interval_end = on_start + on_len;
  }
  // The next contact runs in a fresh session: the restarted client
  // re-benchmarks once, and every contact of that session reuses the pair.
  if (crossed) {
    draw_session_benchmarks(s, host.dhrystone_mips, host.whetstone_mips,
                            config.benchmark_jitter_sigma);
  }
}

}  // namespace

ClientHost::ClientHost(const trace::HostRecord& spec, sim::FaultType fault,
                       double straggler_slowdown)
    : id(spec.id),
      memory_mb(spec.memory_mb),
      dhrystone_mips(spec.dhrystone_mips),
      whetstone_mips(spec.whetstone_mips),
      disk_total_gb(spec.disk_total_gb),
      gpu_memory_mb(spec.gpu_memory_mb),
      straggler_slowdown(straggler_slowdown),
      n_cores(spec.n_cores),
      cpu(spec.cpu),
      os(spec.os),
      gpu(spec.gpu),
      fault(fault) {}

ClientState::ClientState(const trace::HostRecord& spec, util::Rng stream,
                         const ClientConfig& config)
    : rng(stream),
      next_contact_day(static_cast<double>(spec.created_day)),
      last_contact_day_done(static_cast<double>(spec.created_day)),
      on_interval_end(static_cast<double>(spec.created_day)),
      disk_avail_gb(spec.disk_avail_gb) {
  if (!config.model_availability) return;
  const stats::WeibullDist on_dist(config.availability.on_weibull_k,
                                   config.availability.on_weibull_lambda);
  on_interval_end = next_contact_day + std::max(1e-6, on_dist.sample(rng));
  draw_session_benchmarks(*this, spec.dhrystone_mips, spec.whetstone_mips,
                          config.benchmark_jitter_sigma);
}

SchedulerRequest client_contact(ClientState& s, const ClientHost& host,
                                const ClientConfig& config) {
  SchedulerRequest request;
  request.host_id = host.id;
  request.day = static_cast<std::int32_t>(std::floor(s.next_contact_day));

  // A crash-faulty client that died since the last contact lost its whole
  // queue: nothing completes, and the server is told how much to write
  // off. Honest/straggler/corrupter clients survive session boundaries
  // (BOINC checkpoints across restarts; crash clients model hosts that
  // don't).
  if (host.fault == sim::FaultType::kCrash && s.session_died) {
    request.lost_work_units = s.queued_units;
    s.queued_units = 0;
  }
  s.session_died = false;

  // Re-measure: fixed hardware, jittered benchmarks, drifting disk. With
  // the availability model the benchmark pair is the current session's
  // cached measurement; without it (no session structure) the jitter is
  // drawn per contact.
  HostMeasurement& m = request.measurement;
  m.n_cores = host.n_cores;
  m.memory_mb = host.memory_mb;
  if (config.model_availability) {
    m.dhrystone_mips = s.session_dhrystone_mips;
    m.whetstone_mips = s.session_whetstone_mips;
  } else {
    m.dhrystone_mips =
        jittered(host.dhrystone_mips, s.rng, config.benchmark_jitter_sigma);
    m.whetstone_mips =
        jittered(host.whetstone_mips, s.rng, config.benchmark_jitter_sigma);
  }
  s.disk_avail_gb *= std::exp(s.rng.normal(0.0, config.disk_drift_sigma));
  s.disk_avail_gb = std::clamp(s.disk_avail_gb, 0.01, host.disk_total_gb);
  m.disk_avail_gb = s.disk_avail_gb;
  m.disk_total_gb = host.disk_total_gb;
  m.cpu = host.cpu;
  m.os = host.os;
  m.gpu = host.gpu;
  m.gpu_memory_mb = host.gpu_memory_mb;

  // Work completed since the last contact: everything that fit in the
  // elapsed wall time at the host's speed (bounded by the local queue).
  // Stragglers benchmark fast but run slow: the measurement above keeps
  // its jittered-true value while actual throughput is derated.
  const double elapsed_days = s.next_contact_day - s.last_contact_day_done;
  double units_per_day = host.n_cores * host.whetstone_mips / 4000.0;
  if (host.fault == sim::FaultType::kStraggler) {
    units_per_day /= host.straggler_slowdown;
  }
  const auto doable = static_cast<std::uint32_t>(
      std::clamp(elapsed_days * units_per_day, 0.0, 1e6));
  request.completed_work_units = std::min(doable, s.queued_units);
  s.queued_units -= request.completed_work_units;

  if (request.completed_work_units > 0) {
    const std::uint64_t payload =
        result_payload(host.id, request.completed_work_units);
    request.result_digest = host.fault == sim::FaultType::kCorrupter
                                ? sim::corrupted_digest(payload, host.id)
                                : sim::canonical_digest(payload);
  }

  request.requested_work_seconds = config.work_request_seconds;

  s.last_contact_day_done = s.next_contact_day;
  s.next_contact_day +=
      s.rng.exponential(1.0 / config.mean_contact_interval_days);
  if (config.model_availability) defer_to_available(s, host, config);
  return request;
}

std::uint32_t consume_grants(std::uint32_t& queued, GrantFifo& grants,
                             std::uint32_t units) noexcept {
  const std::uint32_t consumed = std::min(units, queued);
  queued -= consumed;
  std::uint32_t left = consumed;
  while (left > 0 && !grants.empty()) {
    std::uint32_t& granted = grants.front().units;
    const std::uint32_t take = std::min(left, granted);
    granted -= take;
    left -= take;
    if (granted == 0) grants.pop_front();
  }
  return consumed;
}

Settlement server_contact(std::uint32_t& queued, GrantFifo& grants,
                          const ServerConfig& config,
                          const SchedulerRequest& request) {
  Settlement s;

  // Validate the reported batch before crediting: a digest that does not
  // match the canonical digest of (host, batch size) marks the whole
  // batch invalid. The units still leave the queue — the work was
  // consumed, it just earns nothing.
  if (request.completed_work_units > 0) {
    const std::uint64_t expected = sim::canonical_digest(
        result_payload(request.host_id, request.completed_work_units));
    s.result_valid = request.result_digest == expected;
  }
  s.reported = consume_grants(queued, grants, request.completed_work_units);
  if (s.result_valid) s.credit = s.reported * config.credit_per_unit;

  // Write off units the host reported lost to a session death.
  s.lost = consume_grants(queued, grants, request.lost_work_units);

  // Expire grants whose report deadline has passed; the freed room lets
  // the grant below re-issue that work to (possibly) this same host.
  while (!grants.empty() && grants.front().expiry_day < request.day) {
    const std::uint32_t units = grants.front().units;
    s.expired += units;
    queued -= std::min(queued, units);
    grants.pop_front();
  }

  // Grant new work sized to the host's measured speed: enough units to
  // cover the requested seconds of computation, capped by the queue limit.
  const HostMeasurement& m = request.measurement;
  const double units_per_day =
      m.n_cores * m.whetstone_mips / config.work_unit_cost_mips_days;
  const double requested_days = request.requested_work_seconds / 86400.0;
  const auto wanted = static_cast<std::uint32_t>(
      std::clamp(units_per_day * requested_days, 0.0, 1e6));
  const std::uint32_t room =
      config.max_queued_units > queued ? config.max_queued_units - queued : 0;
  s.granted = std::min(wanted, room);
  queued += s.granted;
  if (s.granted > 0) {
    const double expiry = config.report_deadline_days > 0.0
                              ? request.day + config.report_deadline_days
                              : std::numeric_limits<double>::infinity();
    grants.push_back({expiry, s.granted});
  }
  return s;
}

}  // namespace resmodel::boinc
