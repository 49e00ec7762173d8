#include "engine/client_shard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "boinc/messages.h"
#include "engine/state_codec.h"
#include "stats/distributions.h"

namespace resmodel::engine {

ClientShard::ClientShard(const ShardParams& params,
                         std::span<const boinc::ArrivedClient> clients,
                         std::uint32_t global_base)
    : params_(params), global_base_(global_base) {
  params_.client.validate();
  if (params_.client.model_availability) {
    params_.client.availability.validate();
  }

  const std::size_t n = clients.size();
  if (n > 0xffffffffULL) {
    throw std::invalid_argument("ClientShard: shard exceeds 2^32 clients");
  }
  id_.reserve(n);
  created_day_.reserve(n);
  death_day_.reserve(n);
  n_cores_.reserve(n);
  memory_mb_.reserve(n);
  spec_dhrystone_.reserve(n);
  spec_whetstone_.reserve(n);
  disk_total_.reserve(n);
  cpu_.reserve(n);
  os_.reserve(n);
  gpu_.reserve(n);
  gpu_memory_mb_.reserve(n);
  fault_.reserve(n);
  slowdown_.reserve(n);
  rng_.reserve(n);
  next_contact_.reserve(n);
  last_done_.reserve(n);
  on_end_.reserve(n);
  disk_cur_.reserve(n);
  session_dhrystone_.assign(n, 0.0);
  session_whetstone_.assign(n, 0.0);
  client_queued_.assign(n, 0);
  session_died_.assign(n, 0);
  contacted_.assign(n, 0);
  rec_first_day_.assign(n, 0);
  rec_last_day_.assign(n, 0);
  meas_dhrystone_.assign(n, 0.0);
  meas_whetstone_.assign(n, 0.0);
  meas_disk_.assign(n, 0.0);
  server_queued_.assign(n, 0);
  credit_.assign(n, 0.0);
  grants_.resize(n);
  n_contacts_.assign(n, 0);
  n_granted_.assign(n, 0);
  n_reported_.assign(n, 0);
  n_invalid_.assign(n, 0);
  n_lost_.assign(n, 0);
  n_expired_.assign(n, 0);
  if (params_.emit_day_records) record_seq_.assign(n, 0);

  for (const boinc::ArrivedClient& c : clients) {
    if (!(c.straggler_slowdown >= 1.0)) {
      throw std::invalid_argument("ClientShard: straggler slowdown < 1");
    }
    id_.push_back(c.spec.id);
    created_day_.push_back(c.spec.created_day);
    death_day_.push_back(static_cast<double>(c.spec.last_contact_day));
    n_cores_.push_back(c.spec.n_cores);
    memory_mb_.push_back(c.spec.memory_mb);
    spec_dhrystone_.push_back(c.spec.dhrystone_mips);
    spec_whetstone_.push_back(c.spec.whetstone_mips);
    disk_total_.push_back(c.spec.disk_total_gb);
    cpu_.push_back(c.spec.cpu);
    os_.push_back(c.spec.os);
    gpu_.push_back(c.spec.gpu);
    gpu_memory_mb_.push_back(c.spec.gpu_memory_mb);
    fault_.push_back(c.fault);
    slowdown_.push_back(c.straggler_slowdown);
    rng_.push_back(c.rng);
    next_contact_.push_back(static_cast<double>(c.spec.created_day));
    last_done_.push_back(static_cast<double>(c.spec.created_day));
    on_end_.push_back(static_cast<double>(c.spec.created_day));
    disk_cur_.push_back(c.spec.disk_avail_gb);
  }

  // Replay the VirtualClient constructor's draws: the first ON interval,
  // then the birth session's benchmark pair.
  if (params_.client.model_availability) {
    const stats::WeibullDist on_dist(
        params_.client.availability.on_weibull_k,
        params_.client.availability.on_weibull_lambda);
    for (std::uint32_t i = 0; i < n; ++i) {
      on_end_[i] =
          next_contact_[i] + std::max(1e-6, on_dist.sample(rng_[i]));
      draw_session_benchmarks(i);
    }
  }

  std::vector<Event> births;
  births.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    births.push_back({next_contact_[i], i});
  }
  heap_.build(std::move(births));
}

void ClientShard::serialize_state(std::vector<std::byte>& out) const {
  if (!day_records_.empty()) {
    throw std::logic_error(
        "ClientShard: serialize_state with untaken day records — "
        "checkpoints must land on a day barrier after take_day_records()");
  }
  const std::uint64_t n = size();
  StateWriter w(out);
  w.put_u32(global_base_);
  w.put_u64(n);

  w.put_vector(id_);
  w.put_vector(created_day_);
  w.put_vector(death_day_);
  w.put_vector(n_cores_);
  w.put_vector(memory_mb_);
  w.put_vector(spec_dhrystone_);
  w.put_vector(spec_whetstone_);
  w.put_vector(disk_total_);
  w.put_vector(cpu_);
  w.put_vector(os_);
  w.put_vector(gpu_);
  w.put_vector(gpu_memory_mb_);
  w.put_vector(fault_);
  w.put_vector(slowdown_);

  // Rng streams: six words per client (util::Rng::State), flattened.
  // A raw memcpy of the Rng objects would drag padding bytes along;
  // the explicit State keeps the layout a documented format.
  std::vector<std::uint64_t> rng_words;
  rng_words.reserve(n * 6);
  for (const util::Rng& rng : rng_) {
    const util::Rng::State st = rng.save();
    rng_words.push_back(st.s[0]);
    rng_words.push_back(st.s[1]);
    rng_words.push_back(st.s[2]);
    rng_words.push_back(st.s[3]);
    rng_words.push_back(st.cached_normal_bits);
    rng_words.push_back(st.has_cached_normal);
  }
  w.put_vector(rng_words);

  w.put_vector(next_contact_);
  w.put_vector(last_done_);
  w.put_vector(on_end_);
  w.put_vector(disk_cur_);
  w.put_vector(session_dhrystone_);
  w.put_vector(session_whetstone_);
  w.put_vector(client_queued_);
  w.put_vector(session_died_);

  w.put_vector(contacted_);
  w.put_vector(rec_first_day_);
  w.put_vector(rec_last_day_);
  w.put_vector(meas_dhrystone_);
  w.put_vector(meas_whetstone_);
  w.put_vector(meas_disk_);
  w.put_vector(server_queued_);
  w.put_vector(credit_);

  // Grant FIFOs, live entries only, columnar: per-client counts then the
  // concatenated (expiry, units) streams. Head-cursor compaction state is
  // deliberately NOT captured — it never affects what the FIFO yields.
  std::vector<std::uint32_t> grant_counts;
  std::vector<double> grant_expiry;
  std::vector<std::uint32_t> grant_units;
  grant_counts.reserve(n);
  for (const GrantFifo& fifo : grants_) {
    grant_counts.push_back(
        static_cast<std::uint32_t>(fifo.entries.size() - fifo.head));
    for (std::size_t e = fifo.head; e < fifo.entries.size(); ++e) {
      grant_expiry.push_back(fifo.entries[e].first);
      grant_units.push_back(fifo.entries[e].second);
    }
  }
  w.put_vector(grant_counts);
  w.put_vector(grant_expiry);
  w.put_vector(grant_units);

  w.put_vector(n_contacts_);
  w.put_vector(n_granted_);
  w.put_vector(n_reported_);
  w.put_vector(n_invalid_);
  w.put_vector(n_lost_);
  w.put_vector(n_expired_);
  w.put_vector(record_seq_);

  // Heap membership, one bit per client. Every live event's day equals
  // its client's next_contact_, and pop order is a total order over the
  // contents, so build() from the flagged clients reproduces the exact
  // drain sequence.
  std::vector<std::uint8_t> in_heap(n, 0);
  for (const Event& ev : heap_.entries()) in_heap[ev.client] = 1;
  w.put_vector(in_heap);

  w.put_f64(prev_event_.day);
  w.put_u32(prev_event_.client);
  w.put_u8(have_prev_event_ ? 1 : 0);

  w.put_u64(totals_.contacts);
  w.put_u64(totals_.units_granted);
  w.put_u64(totals_.units_reported);
  w.put_u64(totals_.units_invalid);
  w.put_u64(totals_.units_lost);
  w.put_u64(totals_.units_expired);
  w.put_f64(totals_.credit_granted);
  w.put_u64(totals_.batches_drained);
}

ClientShard::ClientShard(const ShardParams& params,
                         std::span<const std::byte> state)
    : params_(params) {
  params_.client.validate();
  if (params_.client.model_availability) {
    params_.client.availability.validate();
  }

  StateReader r(state);
  global_base_ = r.get_u32();
  const std::uint64_t n = r.get_u64();
  if (n > 0xffffffffULL) {
    throw std::runtime_error("ClientShard state blob: shard exceeds 2^32");
  }
  const auto exact = [n]<typename T>(std::vector<T> v, const char* what) {
    if (v.size() != n) {
      throw std::runtime_error(std::string("ClientShard state blob: '") +
                               what + "' has " + std::to_string(v.size()) +
                               " rows, expected " + std::to_string(n));
    }
    return v;
  };

  id_ = exact(r.get_vector<std::uint64_t>(n), "id");
  created_day_ = exact(r.get_vector<std::int32_t>(n), "created_day");
  death_day_ = exact(r.get_vector<double>(n), "death_day");
  n_cores_ = exact(r.get_vector<std::int32_t>(n), "n_cores");
  memory_mb_ = exact(r.get_vector<double>(n), "memory_mb");
  spec_dhrystone_ = exact(r.get_vector<double>(n), "spec_dhrystone");
  spec_whetstone_ = exact(r.get_vector<double>(n), "spec_whetstone");
  disk_total_ = exact(r.get_vector<double>(n), "disk_total");
  cpu_ = exact(r.get_vector<trace::CpuFamily>(n), "cpu");
  os_ = exact(r.get_vector<trace::OsFamily>(n), "os");
  gpu_ = exact(r.get_vector<trace::GpuType>(n), "gpu");
  gpu_memory_mb_ = exact(r.get_vector<double>(n), "gpu_memory_mb");
  fault_ = exact(r.get_vector<sim::FaultType>(n), "fault");
  slowdown_ = exact(r.get_vector<double>(n), "slowdown");

  const std::vector<std::uint64_t> rng_words =
      r.get_vector<std::uint64_t>(n * 6);
  if (rng_words.size() != n * 6) {
    throw std::runtime_error("ClientShard state blob: rng column has " +
                             std::to_string(rng_words.size()) +
                             " words, expected " + std::to_string(n * 6));
  }
  rng_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    util::Rng::State st;
    st.s = {rng_words[i * 6 + 0], rng_words[i * 6 + 1], rng_words[i * 6 + 2],
            rng_words[i * 6 + 3]};
    st.cached_normal_bits = rng_words[i * 6 + 4];
    st.has_cached_normal = rng_words[i * 6 + 5];
    util::Rng rng;
    rng.restore(st);
    rng_.push_back(rng);
  }

  next_contact_ = exact(r.get_vector<double>(n), "next_contact");
  last_done_ = exact(r.get_vector<double>(n), "last_done");
  on_end_ = exact(r.get_vector<double>(n), "on_end");
  disk_cur_ = exact(r.get_vector<double>(n), "disk_cur");
  session_dhrystone_ = exact(r.get_vector<double>(n), "session_dhrystone");
  session_whetstone_ = exact(r.get_vector<double>(n), "session_whetstone");
  client_queued_ = exact(r.get_vector<std::uint32_t>(n), "client_queued");
  session_died_ = exact(r.get_vector<std::uint8_t>(n), "session_died");

  contacted_ = exact(r.get_vector<std::uint8_t>(n), "contacted");
  rec_first_day_ = exact(r.get_vector<std::int32_t>(n), "rec_first_day");
  rec_last_day_ = exact(r.get_vector<std::int32_t>(n), "rec_last_day");
  meas_dhrystone_ = exact(r.get_vector<double>(n), "meas_dhrystone");
  meas_whetstone_ = exact(r.get_vector<double>(n), "meas_whetstone");
  meas_disk_ = exact(r.get_vector<double>(n), "meas_disk");
  server_queued_ = exact(r.get_vector<std::uint32_t>(n), "server_queued");
  credit_ = exact(r.get_vector<double>(n), "credit");

  const std::vector<std::uint32_t> grant_counts =
      exact(r.get_vector<std::uint32_t>(n), "grant_counts");
  std::uint64_t total_grants = 0;
  for (const std::uint32_t c : grant_counts) total_grants += c;
  const std::vector<double> grant_expiry =
      r.get_vector<double>(total_grants);
  const std::vector<std::uint32_t> grant_units =
      r.get_vector<std::uint32_t>(total_grants);
  if (grant_expiry.size() != total_grants ||
      grant_units.size() != total_grants) {
    throw std::runtime_error(
        "ClientShard state blob: grant streams disagree with counts");
  }
  grants_.resize(n);
  std::uint64_t cursor = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    GrantFifo& fifo = grants_[i];
    fifo.entries.reserve(grant_counts[i]);
    for (std::uint32_t e = 0; e < grant_counts[i]; ++e, ++cursor) {
      fifo.entries.emplace_back(grant_expiry[cursor], grant_units[cursor]);
    }
  }

  n_contacts_ = exact(r.get_vector<std::uint32_t>(n), "n_contacts");
  n_granted_ = exact(r.get_vector<std::uint32_t>(n), "n_granted");
  n_reported_ = exact(r.get_vector<std::uint32_t>(n), "n_reported");
  n_invalid_ = exact(r.get_vector<std::uint32_t>(n), "n_invalid");
  n_lost_ = exact(r.get_vector<std::uint32_t>(n), "n_lost");
  n_expired_ = exact(r.get_vector<std::uint32_t>(n), "n_expired");
  record_seq_ = r.get_vector<std::uint32_t>(n);
  if (params_.emit_day_records && record_seq_.size() != n) {
    throw std::runtime_error(
        "ClientShard state blob: record_seq missing for a quorum run");
  }

  const std::vector<std::uint8_t> in_heap =
      exact(r.get_vector<std::uint8_t>(n), "in_heap");
  std::vector<Event> live;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (in_heap[i]) live.push_back({next_contact_[i], i});
  }
  heap_.build(std::move(live));

  prev_event_.day = r.get_f64();
  prev_event_.client = r.get_u32();
  have_prev_event_ = r.get_u8() != 0;

  totals_.contacts = r.get_u64();
  totals_.units_granted = r.get_u64();
  totals_.units_reported = r.get_u64();
  totals_.units_invalid = r.get_u64();
  totals_.units_lost = r.get_u64();
  totals_.units_expired = r.get_u64();
  totals_.credit_granted = r.get_f64();
  totals_.batches_drained = r.get_u64();
  r.expect_end();

  // The blob predates any damage the store could detect, but a cheap
  // consistency recount catches format drift before a drain would
  // silently diverge.
  check_conservation();
}

void ClientShard::draw_session_benchmarks(std::uint32_t i) {
  session_dhrystone_[i] =
      spec_dhrystone_[i] *
      std::exp(rng_[i].normal(0.0, params_.client.benchmark_jitter_sigma));
  session_whetstone_[i] =
      spec_whetstone_[i] *
      std::exp(rng_[i].normal(0.0, params_.client.benchmark_jitter_sigma));
}

std::uint32_t ClientShard::consume_grants(std::uint32_t i,
                                          std::uint32_t units) {
  const std::uint32_t consumed = std::min(units, server_queued_[i]);
  server_queued_[i] -= consumed;
  GrantFifo& fifo = grants_[i];
  std::uint32_t left = consumed;
  while (left > 0 && !fifo.empty()) {
    std::uint32_t& granted = fifo.front().second;
    const std::uint32_t take = std::min(left, granted);
    granted -= take;
    left -= take;
    if (granted == 0) fifo.pop_front();
  }
  return consumed;
}

void ClientShard::contact_step(std::uint32_t i, double t) {
  const boinc::ClientConfig& cc = params_.client;
  const boinc::ServerConfig& sc = params_.server;
  util::Rng& rng = rng_[i];
  const std::int32_t day = static_cast<std::int32_t>(std::floor(t));

  // --- Client side: VirtualClient::make_request. ---
  std::uint32_t lost_units = 0;
  if (fault_[i] == sim::FaultType::kCrash && session_died_[i]) {
    lost_units = client_queued_[i];
    client_queued_[i] = 0;
  }
  session_died_[i] = 0;

  double m_dhrystone, m_whetstone;
  if (cc.model_availability) {
    m_dhrystone = session_dhrystone_[i];
    m_whetstone = session_whetstone_[i];
  } else {
    m_dhrystone = spec_dhrystone_[i] *
                  std::exp(rng.normal(0.0, cc.benchmark_jitter_sigma));
    m_whetstone = spec_whetstone_[i] *
                  std::exp(rng.normal(0.0, cc.benchmark_jitter_sigma));
  }
  disk_cur_[i] *= std::exp(rng.normal(0.0, cc.disk_drift_sigma));
  disk_cur_[i] = std::clamp(disk_cur_[i], 0.01, disk_total_[i]);

  const double elapsed_days = t - last_done_[i];
  double client_units_per_day = n_cores_[i] * spec_whetstone_[i] / 4000.0;
  if (fault_[i] == sim::FaultType::kStraggler) {
    client_units_per_day /= slowdown_[i];
  }
  const auto doable = static_cast<std::uint32_t>(
      std::clamp(elapsed_days * client_units_per_day, 0.0, 1e6));
  const std::uint32_t completed = std::min(doable, client_queued_[i]);
  client_queued_[i] -= completed;

  bool result_valid = true;
  if (completed > 0) {
    const std::uint64_t payload = boinc::result_payload(id_[i], completed);
    const std::uint64_t digest = fault_[i] == sim::FaultType::kCorrupter
                                     ? sim::corrupted_digest(payload, id_[i])
                                     : sim::canonical_digest(payload);
    result_valid = digest == sim::canonical_digest(payload);
  }

  last_done_[i] = t;
  next_contact_[i] = t + rng.exponential(1.0 / cc.mean_contact_interval_days);
  if (cc.model_availability) {
    // VirtualClient::defer_to_available.
    const stats::WeibullDist on_dist(cc.availability.on_weibull_k,
                                     cc.availability.on_weibull_lambda);
    const stats::LogNormalDist off_dist(cc.availability.off_lognormal_mu,
                                        cc.availability.off_lognormal_sigma);
    bool crossed = false;
    while (next_contact_[i] > on_end_[i]) {
      session_died_[i] = 1;
      crossed = true;
      const double off_len = std::max(1e-6, off_dist.sample(rng));
      const double on_start = on_end_[i] + off_len;
      const double on_len = std::max(1e-6, on_dist.sample(rng));
      if (next_contact_[i] < on_start) next_contact_[i] = on_start;
      on_end_[i] = on_start + on_len;
    }
    if (crossed) draw_session_benchmarks(i);
  }

  // --- Server side: ProjectServer::handle_request. ---
  ++totals_.contacts;
  ++n_contacts_[i];
  if (!contacted_[i]) {
    contacted_[i] = 1;
    rec_first_day_[i] = day;
    rec_last_day_[i] = day;
  } else {
    rec_last_day_[i] = std::max(rec_last_day_[i], day);
  }
  meas_dhrystone_[i] = m_dhrystone;
  meas_whetstone_[i] = m_whetstone;
  meas_disk_[i] = disk_cur_[i];

  const std::uint32_t credited = consume_grants(i, completed);
  if (result_valid) {
    const double granted_credit = credited * sc.credit_per_unit;
    credit_[i] += granted_credit;
    totals_.credit_granted += granted_credit;
    totals_.units_reported += credited;
    n_reported_[i] += credited;
  } else {
    totals_.units_invalid += credited;
    n_invalid_[i] += credited;
  }

  const std::uint32_t written_off = consume_grants(i, lost_units);
  totals_.units_lost += written_off;
  n_lost_[i] += written_off;

  std::uint32_t expired = 0;
  GrantFifo& fifo = grants_[i];
  while (!fifo.empty() && fifo.front().first < day) {
    const std::uint32_t units = fifo.front().second;
    expired += units;
    server_queued_[i] -= std::min(server_queued_[i], units);
    fifo.pop_front();
  }
  totals_.units_expired += expired;
  n_expired_[i] += expired;

  const double server_units_per_day =
      n_cores_[i] * m_whetstone / sc.work_unit_cost_mips_days;
  const double requested_days = cc.work_request_seconds / 86400.0;
  const auto wanted = static_cast<std::uint32_t>(
      std::clamp(server_units_per_day * requested_days, 0.0, 1e6));
  const std::uint32_t room = sc.max_queued_units > server_queued_[i]
                                 ? sc.max_queued_units - server_queued_[i]
                                 : 0;
  const std::uint32_t granted = std::min(wanted, room);
  server_queued_[i] += granted;
  totals_.units_granted += granted;
  n_granted_[i] += granted;
  if (granted > 0) {
    const double expiry = sc.report_deadline_days > 0.0
                              ? day + sc.report_deadline_days
                              : std::numeric_limits<double>::infinity();
    fifo.entries.emplace_back(expiry, granted);
  }

  // --- Reply lands: VirtualClient::handle_reply. ---
  client_queued_[i] += granted;

  if (params_.emit_day_records) {
    const std::uint32_t client = global_base_ + i;
    std::uint32_t& seq = record_seq_[i];
    if (credited > 0) {
      day_records_.push_back(
          {client, seq++, credited, DayRecordKind::kReport, result_valid});
    }
    if (written_off > 0) {
      day_records_.push_back(
          {client, seq++, written_off, DayRecordKind::kLoss, false});
    }
    if (expired > 0) {
      day_records_.push_back(
          {client, seq++, expired, DayRecordKind::kExpiry, false});
    }
    if (granted > 0) {
      day_records_.push_back(
          {client, seq++, granted, DayRecordKind::kGrant, false});
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
      contact_step(ev.client, ev.day);
      if (next_contact_[ev.client] <= death_day_[ev.client]) {
        heap_.replace_min({next_contact_[ev.client], ev.client});
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
    trace::HostRecord rec;
    rec.id = id_[i];
    rec.created_day = rec_first_day_[i];
    rec.last_contact_day = rec_last_day_[i];
    rec.n_cores = n_cores_[i];
    rec.memory_mb = memory_mb_[i];
    rec.dhrystone_mips = meas_dhrystone_[i];
    rec.whetstone_mips = meas_whetstone_[i];
    rec.disk_avail_gb = meas_disk_[i];
    rec.disk_total_gb = disk_total_[i];
    rec.cpu = cpu_[i];
    rec.os = os_[i];
    rec.gpu = gpu_[i];
    rec.gpu_memory_mb = gpu_memory_mb_[i];
    store.add(rec);
  }
}

ClientAccount ClientShard::account(std::size_t i) const {
  ClientAccount acc;
  acc.id = id_.at(i);
  acc.contacts = n_contacts_[i];
  acc.units_granted = n_granted_[i];
  acc.units_reported = n_reported_[i];
  acc.units_invalid = n_invalid_[i];
  acc.units_lost = n_lost_[i];
  acc.units_expired = n_expired_[i];
  acc.units_in_flight = server_queued_[i];
  acc.credit = credit_[i];
  return acc;
}

}  // namespace resmodel::engine
