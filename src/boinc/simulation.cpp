#include "boinc/simulation.h"

#include <cmath>
#include <memory>
#include <numbers>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/host_generator.h"
#include "synth/population.h"

namespace resmodel::boinc {

namespace {

// Min-heap entry: next contact time of a client.
struct Event {
  double day;
  std::size_t client_index;
};
struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.day > b.day;
  }
};

}  // namespace

void CollectionConfig::validate() const {
  fault_mix.validate();
  client.validate();
  if (fault_mix.crash_fraction > 0.0 && !client.model_availability) {
    throw std::invalid_argument(
        "CollectionConfig: crash faults need client.model_availability (a "
        "crash loses work only when an ON session ends)");
  }
}

void finish_arrival(ArrivedClient& client, const sim::FaultMixConfig& mix,
                    util::Rng& stream) {
  if (mix.any()) {
    util::Rng fault_rng = stream.fork();
    const sim::FaultDraw draw = sim::sample_fault(mix, fault_rng);
    client.fault = draw.type;
    client.straggler_slowdown = draw.slowdown;
  }
  client.rng = stream.fork();
}

std::vector<ArrivedClient> build_arrivals(const CollectionConfig& config) {
  config.validate();
  const synth::PopulationConfig& pop = config.population;
  util::Rng rng(pop.seed ^ 0x9e3779b97f4a7c15ULL);
  const core::HostGenerator generator(pop.model);

  std::vector<ArrivedClient> clients;
  const double gamma_factor =
      std::exp(std::lgamma(1.0 + 1.0 / pop.lifetime_k));
  const std::int32_t end_day = pop.sim_end.day_index();
  std::uint64_t next_id = 1;

  // Contact events never consume the master stream (each client draws
  // only from its own fork), so materializing every arrival up front
  // consumes `rng` exactly as the historical interleaved day loop did.
  for (std::int32_t day = pop.sim_start.day_index(); day <= end_day; ++day) {
    const util::ModelDate date = util::ModelDate::from_day_index(day);
    const double t = date.t();
    const double mean_lifetime =
        synth::lifetime_lambda(pop, t) * gamma_factor;
    double rate = static_cast<double>(pop.target_active_hosts) /
                  std::max(1.0, mean_lifetime);
    rate *= 1.0 + pop.seasonal_amplitude *
                      std::sin(2.0 * std::numbers::pi * (t - 0.2));
    // The day's cohort shares its effective hardware date, so hardware
    // comes from one SoA batch; the per-client wrap-up stays sequential.
    const std::uint64_t arrivals = synth::sample_poisson(rng, rate);
    const core::GeneratedHostBatch hw = generator.generate_batch(
        synth::effective_hardware_date(pop, date), arrivals, rng);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      ArrivedClient client;
      // The spec's last_contact_day is the host's death day; the client
      // stops contacting after it.
      client.spec = synth::finish_host(pop, hw.host(i), date, next_id++, rng);
      finish_arrival(client, config.fault_mix, rng);
      clients.push_back(std::move(client));
    }
  }
  return clients;
}

CollectionResult run_collection(const CollectionConfig& config) {
  const std::vector<ArrivedClient> arrivals = build_arrivals(config);
  const synth::PopulationConfig& pop = config.population;

  ProjectServer server(config.server);
  std::vector<VirtualClient> clients;
  clients.reserve(arrivals.size());
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  const std::int32_t end_day = pop.sim_end.day_index();

  for (const ArrivedClient& arrival : arrivals) {
    ClientConfig cc = config.client;
    cc.fault = arrival.fault;
    cc.straggler_slowdown = arrival.straggler_slowdown;
    clients.emplace_back(arrival.spec, cc, arrival.rng);
    events.push({static_cast<double>(arrival.spec.created_day),
                 clients.size() - 1});
  }

  // Drain every contact inside the window. Clients are independent (each
  // one's grants/credit depend only on its own stream and the server's
  // per-host state), so the processing order of same-day events cannot
  // change any per-client outcome — only the (exact, integer-valued)
  // credit summation order.
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    VirtualClient& client = clients[ev.client_index];
    if (ev.day > end_day || !client.alive()) continue;
    const SchedulerRequest request = client.make_request();
    const SchedulerReply reply = server.handle_request(request);
    client.handle_reply(reply);
    if (client.alive()) {
      events.push({client.next_contact_day(), ev.client_index});
    }
  }

  CollectionResult result;
  result.trace = server.dump_trace();
  result.hosts_created = clients.size();
  result.total_contacts = server.total_contacts();
  result.total_units_granted = server.total_units_granted();
  result.total_credit_granted = server.total_credit_granted();
  result.total_units_lost = server.total_units_lost();
  result.total_units_expired = server.total_units_expired();
  result.total_invalid_result_units = server.total_invalid_result_units();

  if (config.allocate_final_utility) {
    // The §VII step on the freshly collected trace: columnar snapshot in,
    // columnar allocator out — no AoS detour. §V-A's active definition
    // needs a contact on or after the snapshot day, so the exact end day
    // is usually sparse; walk back to the latest populated day.
    const std::int32_t start_day = pop.sim_start.day_index();
    for (std::int32_t day = end_day; day >= start_day; --day) {
      const trace::ResourceSnapshot snap = result.trace.snapshot_plausible(
          util::ModelDate::from_day_index(day));
      if (snap.size() == 0) continue;
      const sim::HostResourcesSoA hosts =
          sim::HostResourcesSoA::from_snapshot(snap);
      result.final_allocation_hosts = hosts.size();
      result.final_allocation =
          sim::allocate_round_robin(sim::paper_applications(), hosts);
      break;
    }
  }
  return result;
}

}  // namespace resmodel::boinc
