#include "engine/client_shard.h"

#include <algorithm>
#include <stdexcept>

#include "engine/state_codec.h"

namespace resmodel::engine {

ClientShard::ClientShard(const ShardParams& params,
                         std::span<const boinc::ArrivedClient> clients,
                         std::uint32_t global_base)
    : params_(params), global_base_(global_base) {
  params_.client.validate();

  const std::size_t n = clients.size();
  if (n > 0xffffffffULL) {
    throw std::invalid_argument("ClientShard: shard exceeds 2^32 clients");
  }
  hosts_.reserve(n);
  created_day_.reserve(n);
  death_day_.reserve(n);
  clients_.reserve(n);
  contacted_.assign(n, 0);
  rec_first_day_.assign(n, 0);
  rec_last_day_.assign(n, 0);
  meas_dhrystone_.assign(n, 0.0);
  meas_whetstone_.assign(n, 0.0);
  meas_disk_.assign(n, 0.0);
  server_queued_.assign(n, 0);
  grants_.resize(n);
  accounts_.resize(n);
  if (params_.emit_day_records) record_seq_.assign(n, 0);

  std::vector<Event> births;
  births.reserve(n);
  for (const boinc::ArrivedClient& c : clients) {
    if (!(c.straggler_slowdown >= 1.0)) {
      throw std::invalid_argument("ClientShard: straggler slowdown < 1");
    }
    hosts_.emplace_back(c.spec, c.fault, c.straggler_slowdown);
    created_day_.push_back(c.spec.created_day);
    death_day_.push_back(static_cast<double>(c.spec.last_contact_day));
    clients_.emplace_back(c.spec, c.rng, params_.client);
    births.push_back({clients_.back().next_contact_day,
                      static_cast<std::uint32_t>(births.size())});
  }
  heap_.build(std::move(births));
}

template <typename Shard, typename Io>
void ClientShard::state_fields(Shard& s, Io& io,
                               std::vector<std::uint8_t>& in_heap) {
  using boinc::ClientHost;
  using boinc::ClientState;
  using Tally = boinc::ContactTally<std::uint32_t>;
  io.field(s.global_base_);
  std::uint64_t n = s.size();
  io.field(n);
  if (n > 0xffffffffULL) {
    throw std::runtime_error("ClientShard state blob: shard exceeds 2^32");
  }

  io.column(s.hosts_, &ClientHost::id, n, "id");
  io.column(s.created_day_, n, "created_day");
  io.column(s.death_day_, n, "death_day");
  io.column(s.hosts_, &ClientHost::n_cores, n, "n_cores");
  io.column(s.hosts_, &ClientHost::memory_mb, n, "memory_mb");
  io.column(s.hosts_, &ClientHost::dhrystone_mips, n, "spec_dhrystone");
  io.column(s.hosts_, &ClientHost::whetstone_mips, n, "spec_whetstone");
  io.column(s.hosts_, &ClientHost::disk_total_gb, n, "disk_total");
  io.column(s.hosts_, &ClientHost::cpu, n, "cpu");
  io.column(s.hosts_, &ClientHost::os, n, "os");
  io.column(s.hosts_, &ClientHost::gpu, n, "gpu");
  io.column(s.hosts_, &ClientHost::gpu_memory_mb, n, "gpu_memory_mb");
  io.column(s.hosts_, &ClientHost::fault, n, "fault");
  io.column(s.hosts_, &ClientHost::straggler_slowdown, n, "slowdown");

  io.column(s.clients_, &ClientState::rng, n, "rng");
  io.column(s.clients_, &ClientState::next_contact_day, n, "next_contact");
  io.column(s.clients_, &ClientState::last_contact_day_done, n, "last_done");
  io.column(s.clients_, &ClientState::on_interval_end, n, "on_end");
  io.column(s.clients_, &ClientState::disk_avail_gb, n, "disk_cur");
  io.column(s.clients_, &ClientState::session_dhrystone_mips, n,
            "session_dhrystone");
  io.column(s.clients_, &ClientState::session_whetstone_mips, n,
            "session_whetstone");
  io.column(s.clients_, &ClientState::queued_units, n, "client_queued");
  io.column(s.clients_, &ClientState::session_died, n, "session_died");

  io.column(s.contacted_, n, "contacted");
  io.column(s.rec_first_day_, n, "rec_first_day");
  io.column(s.rec_last_day_, n, "rec_last_day");
  io.column(s.meas_dhrystone_, n, "meas_dhrystone");
  io.column(s.meas_whetstone_, n, "meas_whetstone");
  io.column(s.meas_disk_, n, "meas_disk");
  io.column(s.server_queued_, n, "server_queued");
  io.column(s.accounts_, &Tally::credit_granted, n, "credit");
  // Live entries only: the head-cursor compaction state never affects
  // what a FIFO yields.
  io.fifos(s.grants_, n, "grants", &boinc::Grant::expiry_day,
           &boinc::Grant::units);

  io.column(s.accounts_, &Tally::contacts, n, "n_contacts");
  io.column(s.accounts_, &Tally::units_granted, n, "n_granted");
  io.column(s.accounts_, &Tally::units_reported, n, "n_reported");
  io.column(s.accounts_, &Tally::units_invalid, n, "n_invalid");
  io.column(s.accounts_, &Tally::units_lost, n, "n_lost");
  io.column(s.accounts_, &Tally::units_expired, n, "n_expired");
  io.column(s.record_seq_, s.params_.emit_day_records ? n : 0, "record_seq");
  io.column(in_heap, n, "in_heap");

  io.field(s.prev_event_.day);
  io.field(s.prev_event_.client);
  io.field(s.have_prev_event_);

  io.field(s.totals_.contacts);
  io.field(s.totals_.units_granted);
  io.field(s.totals_.units_reported);
  io.field(s.totals_.units_invalid);
  io.field(s.totals_.units_lost);
  io.field(s.totals_.units_expired);
  io.field(s.totals_.credit_granted);
  io.field(s.totals_.batches_drained);
}

void ClientShard::serialize_state(std::vector<std::byte>& out) const {
  if (!day_records_.empty()) {
    throw std::logic_error(
        "ClientShard: serialize_state with untaken day records — "
        "checkpoints must land on a day barrier after take_day_records()");
  }
  std::vector<std::uint8_t> in_heap(size(), 0);
  for (const Event& ev : heap_.entries()) in_heap[ev.client] = 1;
  StateWriter w(out);
  state_fields(*this, w, in_heap);
}

ClientShard::ClientShard(const ShardParams& params,
                         std::span<const std::byte> state)
    : params_(params) {
  params_.client.validate();

  StateReader r(state);
  std::vector<std::uint8_t> in_heap;
  state_fields(*this, r, in_heap);
  r.expect_end();

  // Every live event's day equals its client's next_contact_day, and pop
  // order is a total order over the contents, so build() from the flagged
  // clients reproduces the exact drain sequence.
  std::vector<Event> live;
  for (std::uint32_t i = 0; i < in_heap.size(); ++i) {
    if (in_heap[i]) live.push_back({clients_[i].next_contact_day, i});
  }
  heap_.build(std::move(live));

  // The blob predates any damage the store could detect, but a cheap
  // consistency recount catches format drift before a drain would
  // silently diverge.
  check_conservation();
}

void ClientShard::contact_step(std::uint32_t i) {
  const boinc::SchedulerRequest request =
      boinc::client_contact(clients_[i], hosts_[i], params_.client);
  const boinc::Settlement s = boinc::server_contact(
      server_queued_[i], grants_[i], params_.server, request);
  clients_[i].queued_units += s.granted;  // the reply lands
  totals_.add(s);
  accounts_[i].add(s);

  if (!contacted_[i]) {
    contacted_[i] = 1;
    rec_first_day_[i] = request.day;
    rec_last_day_[i] = request.day;
  } else {
    rec_last_day_[i] = std::max(rec_last_day_[i], request.day);
  }
  meas_dhrystone_[i] = request.measurement.dhrystone_mips;
  meas_whetstone_[i] = request.measurement.whetstone_mips;
  meas_disk_[i] = request.measurement.disk_avail_gb;

  if (params_.emit_day_records) {
    const std::uint32_t global = global_base_ + i;
    std::uint32_t& seq = record_seq_[i];
    if (s.reported > 0) {
      day_records_.push_back({global, seq++, s.reported,
                              DayRecordKind::kReport, s.result_valid});
    }
    if (s.lost > 0) {
      day_records_.push_back(
          {global, seq++, s.lost, DayRecordKind::kLoss, false});
    }
    if (s.expired > 0) {
      day_records_.push_back(
          {global, seq++, s.expired, DayRecordKind::kExpiry, false});
    }
    if (s.granted > 0) {
      day_records_.push_back(
          {global, seq++, s.granted, DayRecordKind::kGrant, false});
    }
  }
}

void ClientShard::drain(double day_end) {
  std::uint32_t in_batch = 0;
  while (!heap_.empty() && heap_.min().day < day_end) {
    const Event ev = heap_.min();
    if (have_prev_event_ && !fires_before(prev_event_, ev)) {
      throw std::logic_error(
          "ClientShard: event order regressed — the heap popped an event "
          "at or before the previous (day, client)");
    }
    prev_event_ = ev;
    have_prev_event_ = true;

    // The oracle's liveness check: events past the window or the client's
    // death day are dropped, and a dead client is never rescheduled.
    if (ev.day <= params_.limit_day && ev.day <= death_day_[ev.client]) {
      contact_step(ev.client);
      const double next = clients_[ev.client].next_contact_day;
      if (next <= death_day_[ev.client]) {
        heap_.replace_min({next, ev.client});
      } else {
        heap_.pop_min();
      }
      if (++in_batch == params_.batch_size) {
        check_conservation();
        ++totals_.batches_drained;
        in_batch = 0;
      }
    } else {
      heap_.pop_min();
    }
  }
  if (in_batch > 0) {
    check_conservation();
    ++totals_.batches_drained;
  }
}

std::uint64_t ClientShard::queued_units() const noexcept {
  std::uint64_t queued = 0;
  for (const std::uint32_t q : server_queued_) queued += q;
  return queued;
}

void ClientShard::check_conservation() const {
  const std::uint64_t accounted = totals_.units_reported +
                                  totals_.units_invalid + totals_.units_lost +
                                  totals_.units_expired + queued_units();
  if (totals_.units_granted != accounted) {
    throw std::logic_error(
        "ClientShard: unit conservation violated — granted units do not "
        "equal reported + invalid + lost + expired + queued");
  }
}

std::vector<DayRecord> ClientShard::take_day_records() {
  std::vector<DayRecord> out = std::move(day_records_);
  day_records_.clear();
  return out;
}

void ClientShard::append_trace(trace::TraceStore& store) const {
  for (std::size_t i = 0; i < size(); ++i) {
    if (!contacted_[i]) continue;
    const boinc::ClientHost& host = hosts_[i];
    trace::HostRecord rec;
    rec.id = host.id;
    rec.created_day = rec_first_day_[i];
    rec.last_contact_day = rec_last_day_[i];
    rec.n_cores = host.n_cores;
    rec.memory_mb = host.memory_mb;
    rec.dhrystone_mips = meas_dhrystone_[i];
    rec.whetstone_mips = meas_whetstone_[i];
    rec.disk_avail_gb = meas_disk_[i];
    rec.disk_total_gb = host.disk_total_gb;
    rec.cpu = host.cpu;
    rec.os = host.os;
    rec.gpu = host.gpu;
    rec.gpu_memory_mb = host.gpu_memory_mb;
    store.add(rec);
  }
}

ClientAccount ClientShard::account(std::size_t i) const {
  ClientAccount acc;
  const boinc::ContactTally<std::uint32_t>& tally = accounts_.at(i);
  acc.id = hosts_[i].id;
  acc.contacts = tally.contacts;
  acc.units_granted = tally.units_granted;
  acc.units_reported = tally.units_reported;
  acc.units_invalid = tally.units_invalid;
  acc.units_lost = tally.units_lost;
  acc.units_expired = tally.units_expired;
  acc.units_in_flight = server_queued_[i];
  acc.credit = tally.credit_granted;
  return acc;
}

}  // namespace resmodel::engine
