#include "engine/quorum.h"

#include <functional>
#include <stdexcept>
#include <string>

#include "engine/state_codec.h"
#include "util/radix_sort.h"

namespace resmodel::engine {

QuorumCoordinator::QuorumCoordinator(const sim::ReplicationConfig& config,
                                     std::size_t clients)
    : config_(config), fifos_(clients) {
  config_.validate();
}

template <typename Coordinator, typename Io>
void QuorumCoordinator::state_fields(Coordinator& q, Io& io,
                                     std::uint64_t clients) {
  std::uint64_t tasks = q.assigned_.size();
  io.field(tasks);
  io.column(q.assigned_, tasks, "assigned");
  io.column(q.accounted_, tasks, "accounted");
  io.column(q.returned_, tasks, "returned");
  io.column(q.correct_count_, tasks, "correct_count");
  io.column(q.state_, tasks, "state");
  io.column(q.correct_hosts_, tasks * q.config_.replicas, "correct_hosts");

  std::uint64_t n_clients = q.fifos_.size();
  io.field(n_clients);
  if (n_clients != clients) {
    throw std::runtime_error("QuorumCoordinator state blob: " +
                             std::to_string(n_clients) +
                             " clients, run header says " +
                             std::to_string(clients));
  }
  io.fifos(q.fifos_, n_clients, "fifo_tasks", std::identity{});

  io.field(q.outcome_.tasks_issued);
  io.field(q.outcome_.tasks_validated);
  io.field(q.outcome_.tasks_invalid);
  io.field(q.outcome_.tasks_missed_deadline);
  io.field(q.outcome_.tasks_pending);
  io.field(q.outcome_.replicas_issued);
  io.field(q.outcome_.replicas_correct);
  io.field(q.outcome_.replicas_corrupt);
  io.field(q.outcome_.replicas_crashed);
  io.field(q.outcome_.replicas_missed_deadline);
  io.field(q.outcome_.replicas_duplicate_host);
  io.field(q.outcome_.replicas_in_flight);
}

QuorumCoordinator::QuorumCoordinator(const sim::ReplicationConfig& config,
                                     std::size_t clients,
                                     std::span<const std::byte> state)
    : config_(config) {
  config_.validate();
  StateReader r(state);
  state_fields(*this, r, clients);
  r.expect_end();
  check_restored();
}

void QuorumCoordinator::check_restored() const {
  // apply_day indexes the task columns with FIFO entries and the
  // correct-host slots with correct_count_, so a blob that breaks one of
  // apply_day's own invariants could make it write out of bounds. The CRC
  // only proves the bytes are the ones written, not that they are sane.
  const auto refuse = [](std::size_t task, const std::string& what) {
    throw std::runtime_error("QuorumCoordinator state blob: task " +
                             std::to_string(task) + " " + what);
  };
  const std::size_t tasks = assigned_.size();
  std::vector<std::uint32_t> in_flight(tasks, 0);
  for (const util::HeadFifo<std::uint32_t>& fifo : fifos_) {
    for (const std::uint32_t task : fifo.live()) {
      if (task >= tasks) {
        refuse(task, "is in a FIFO, but there are " + std::to_string(tasks) +
                         " tasks");
      }
      ++in_flight[task];
    }
  }
  const std::uint32_t replicas = config_.replicas;
  for (std::size_t t = 0; t < tasks; ++t) {
    if (assigned_[t] > replicas || accounted_[t] > replicas ||
        returned_[t] > replicas || correct_count_[t] > replicas) {
      refuse(t, "counts more than " + std::to_string(replicas) + " replicas");
    }
    if (accounted_[t] > assigned_[t] || returned_[t] > accounted_[t] ||
        correct_count_[t] > returned_[t]) {
      refuse(t, "breaks assigned >= accounted >= returned >= correct");
    }
    if (accounted_[t] + in_flight[t] != assigned_[t]) {
      refuse(t, "has " + std::to_string(in_flight[t]) +
                    " replicas in FIFOs and " +
                    std::to_string(assigned_[t] - accounted_[t]) +
                    " unresolved");
    }
    if (static_cast<std::uint8_t>(state_[t]) >
        static_cast<std::uint8_t>(TaskState::kMissedDeadline)) {
      refuse(t, "has state byte " +
                    std::to_string(static_cast<unsigned>(state_[t])));
    }
  }
}

void QuorumCoordinator::serialize_state(std::vector<std::byte>& out) const {
  encode_blob(out,
              [&](auto& io) { state_fields(*this, io, fifos_.size()); });
}

std::uint32_t QuorumCoordinator::pop_unit(std::uint32_t client) {
  util::HeadFifo<std::uint32_t>& fifo = fifos_.at(client);
  if (fifo.empty()) {
    throw std::logic_error(
        "QuorumCoordinator: a contact resolved more units than the client "
        "had in flight");
  }
  const std::uint32_t task = fifo.front();
  fifo.pop_front();
  return task;
}

void QuorumCoordinator::resolve(std::uint32_t task) {
  if (returned_[task] >= config_.quorum) {
    state_[task] = TaskState::kInvalid;
    ++outcome_.tasks_invalid;
  } else {
    state_[task] = TaskState::kMissedDeadline;
    ++outcome_.tasks_missed_deadline;
  }
}

void QuorumCoordinator::apply_day(std::vector<DayRecord> records) {
  // (client, seq) totally orders a day's records: seq preserves each
  // client's own contact order and the client index fixes the cross-client
  // order — both independent of which shard drained whom. The key is
  // unique, so the radix sort yields that order from any input order.
  util::radix_sort<64>(records, [](const DayRecord& r) noexcept {
    return (std::uint64_t{r.client} << 32) | r.seq;
  });

  // Pass 1: size the day's task range from its total granted units.
  std::uint64_t day_units = 0;
  for (const DayRecord& r : records) {
    if (r.kind == DayRecordKind::kGrant) day_units += r.units;
  }
  const std::uint32_t base = static_cast<std::uint32_t>(assigned_.size());
  const std::uint64_t day_tasks =
      (day_units + config_.replicas - 1) / config_.replicas;
  if (base + day_tasks > 0xffffffffULL) {
    throw std::logic_error("QuorumCoordinator: task id space exhausted");
  }
  const std::uint32_t stripe = static_cast<std::uint32_t>(day_tasks);
  const std::size_t total = assigned_.size() + day_tasks;
  assigned_.resize(total);
  accounted_.resize(total);
  returned_.resize(total);
  correct_count_.resize(total);
  state_.resize(total, TaskState::kOpen);
  correct_hosts_.resize(total * config_.replicas);
  touched_.resize(total);
  outcome_.tasks_issued += day_tasks;

  // Pass 2: replay. Grants stripe consecutive units across the day's
  // fresh tasks; reports/losses/expiries resolve the owning client's
  // oldest in-flight units, mirroring the server's FIFO consumption.
  // Every task a resolution touches is listed once, on first touch.
  // Grants need no listing: they reach only the day's fresh tasks, which
  // no grant alone can leave fully accounted.
  std::vector<std::uint32_t> touched;
  const auto touch = [this, &touched](std::uint32_t task) {
    if (!touched_[task]) {
      touched_[task] = 1;
      touched.push_back(task);
    }
  };
  std::uint64_t unit_cursor = 0;
  for (const DayRecord& r : records) {
    switch (r.kind) {
      case DayRecordKind::kGrant:
        for (std::uint32_t u = 0; u < r.units; ++u) {
          const std::uint32_t task =
              base + static_cast<std::uint32_t>(unit_cursor % stripe);
          ++unit_cursor;
          ++assigned_[task];
          fifos_[r.client].push_back(task);
          ++outcome_.replicas_issued;
        }
        break;
      case DayRecordKind::kReport:
        for (std::uint32_t u = 0; u < r.units; ++u) {
          const std::uint32_t task = pop_unit(r.client);
          ++accounted_[task];
          ++returned_[task];
          touch(task);
          if (!r.valid) {
            ++outcome_.replicas_corrupt;
            continue;
          }
          // Duplicate-host check over the counted correct results only:
          // a corrupt result never counts toward the quorum, so it never
          // blocks the same host's later correct one.
          const std::uint32_t* slots =
              correct_hosts_.data() +
              static_cast<std::size_t>(task) * config_.replicas;
          bool duplicate = false;
          for (std::uint8_t c = 0; c < correct_count_[task]; ++c) {
            if (slots[c] == r.client) {
              duplicate = true;
              break;
            }
          }
          if (duplicate) {
            ++outcome_.replicas_duplicate_host;
            continue;
          }
          correct_hosts_[static_cast<std::size_t>(task) * config_.replicas +
                         correct_count_[task]] = r.client;
          ++correct_count_[task];
          ++outcome_.replicas_correct;
          if (state_[task] == TaskState::kOpen &&
              correct_count_[task] >= config_.quorum) {
            state_[task] = TaskState::kValidated;
            ++outcome_.tasks_validated;
          }
        }
        break;
      case DayRecordKind::kLoss:
        for (std::uint32_t u = 0; u < r.units; ++u) {
          const std::uint32_t task = pop_unit(r.client);
          ++accounted_[task];
          ++outcome_.replicas_crashed;
          touch(task);
        }
        break;
      case DayRecordKind::kExpiry:
        for (std::uint32_t u = 0; u < r.units; ++u) {
          const std::uint32_t task = pop_unit(r.client);
          ++accounted_[task];
          ++outcome_.replicas_missed_deadline;
          touch(task);
        }
        break;
    }
  }

  // Pass 3: failure classification, deferred past the replay because a
  // later grant in the SAME day can still add replicas to a task whose
  // earlier replicas all resolved. The order is free: resolve() touches
  // only its own task's state and the outcome counters.
  for (const std::uint32_t task : touched) {
    touched_[task] = 0;
    if (state_[task] == TaskState::kOpen &&
        accounted_[task] == assigned_[task]) {
      resolve(task);
    }
  }
}

QuorumOutcome QuorumCoordinator::finish() const {
  QuorumOutcome out = outcome_;
  for (const TaskState s : state_) {
    if (s == TaskState::kOpen) ++out.tasks_pending;
  }
  out.replicas_in_flight =
      out.replicas_issued -
      (out.replicas_correct + out.replicas_corrupt + out.replicas_crashed +
       out.replicas_missed_deadline + out.replicas_duplicate_host);
  return out;
}

}  // namespace resmodel::engine
