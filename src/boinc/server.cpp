#include "boinc/server.h"

#include <algorithm>

namespace resmodel::boinc {

SchedulerReply ProjectServer::handle_request(const SchedulerRequest& request) {
  auto [it, inserted] = records_.try_emplace(request.host_id);
  HostState& state = it->second;
  const HostMeasurement& m = request.measurement;

  if (inserted) {
    state.record.id = request.host_id;
    state.record.created_day = request.day;
    state.record.last_contact_day = request.day;
  } else {
    state.record.last_contact_day =
        std::max(state.record.last_contact_day, request.day);
  }
  state.record.n_cores = m.n_cores;
  state.record.memory_mb = m.memory_mb;
  state.record.dhrystone_mips = m.dhrystone_mips;
  state.record.whetstone_mips = m.whetstone_mips;
  state.record.disk_avail_gb = m.disk_avail_gb;
  state.record.disk_total_gb = m.disk_total_gb;
  state.record.cpu = m.cpu;
  state.record.os = m.os;
  state.record.gpu = m.gpu;
  state.record.gpu_memory_mb = m.gpu_memory_mb;

  const Settlement s =
      server_contact(state.queued_units, state.grants, config_, request);
  totals_.add(s);

  SchedulerReply reply;
  reply.granted_work_units = s.granted;
  reply.granted_credit = s.credit;
  reply.result_valid = s.result_valid;
  reply.next_contact_delay_days = config_.contact_interval_days;
  return reply;
}

trace::TraceStore ProjectServer::dump_trace() const {
  trace::TraceStore store;
  store.reserve(records_.size());
  for (const auto& [id, state] : records_) {
    store.add(state.record);
  }
  return store;
}

}  // namespace resmodel::boinc
