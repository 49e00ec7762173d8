#include "boinc/client.h"

#include <stdexcept>

namespace resmodel::boinc {

void ClientConfig::validate() const {
  if (!(mean_contact_interval_days > 0.0)) {
    throw std::invalid_argument(
        "ClientConfig: mean_contact_interval_days must be positive");
  }
  if (!(benchmark_jitter_sigma >= 0.0)) {
    throw std::invalid_argument(
        "ClientConfig: benchmark_jitter_sigma must be non-negative");
  }
  if (!(disk_drift_sigma >= 0.0)) {
    throw std::invalid_argument(
        "ClientConfig: disk_drift_sigma must be non-negative");
  }
  if (!(work_request_seconds >= 0.0)) {
    throw std::invalid_argument(
        "ClientConfig: work_request_seconds must be non-negative");
  }
  if (!(straggler_slowdown >= 1.0)) {
    throw std::invalid_argument(
        "ClientConfig: straggler_slowdown must be >= 1");
  }
  if (fault == sim::FaultType::kCrash && !model_availability) {
    throw std::invalid_argument(
        "ClientConfig: crash faults need model_availability (a crash "
        "loses work only when an ON session ends)");
  }
  if (model_availability) availability.validate();
}

VirtualClient::VirtualClient(trace::HostRecord spec, ClientConfig config,
                             util::Rng rng)
    : spec_(spec),
      config_(config),
      host_(spec, config.fault, config.straggler_slowdown) {
  config_.validate();
  state_ = ClientState(spec_, rng, config_);
}

SchedulerRequest VirtualClient::make_request() {
  return client_contact(state_, host_, config_);
}

void VirtualClient::handle_reply(const SchedulerReply& reply) noexcept {
  state_.queued_units += reply.granted_work_units;
}

}  // namespace resmodel::boinc
