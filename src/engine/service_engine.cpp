#include "engine/service_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/host_generator.h"
#include "engine/checkpoint.h"
#include "synth/population.h"
#include "util/parallel.h"

namespace resmodel::engine {

namespace {

/// Cohort mode: a fixed-size population at one hardware date, every
/// client born on day 0 and alive through the horizon. The master stream
/// forks once per client IN CLIENT ORDER before any per-client work, so
/// the (parallel) wrap-up below is thread-count invariant.
std::vector<boinc::ArrivedClient> build_cohort(const EngineConfig& config) {
  config.collection.validate();
  const synth::PopulationConfig& pop = config.collection.population;
  const std::uint64_t n = config.cohort_clients;

  util::Rng master(pop.seed ^ 0xd1b54a32d192ed03ULL);
  const core::HostGenerator generator(pop.model);
  const util::ModelDate hw_date = pop.sim_end;
  const std::uint64_t hw_seed = master.next();
  const core::GeneratedHostBatch hw = generator.generate_batch_parallel(
      hw_date, n, hw_seed, config.threads);

  std::vector<util::Rng> forks;
  forks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) forks.push_back(master.fork());

  const std::int32_t death_day =
      static_cast<std::int32_t>(std::floor(config.cohort_horizon_days));
  std::vector<boinc::ArrivedClient> clients(n);
  constexpr std::uint64_t kChunk = 4096;
  const std::uint64_t chunks = (n + kChunk - 1) / kChunk;
  util::parallel_for(chunks, config.threads, [&](std::size_t chunk) {
    const std::uint64_t begin = chunk * kChunk;
    const std::uint64_t end = std::min(begin + kChunk, n);
    for (std::uint64_t i = begin; i < end; ++i) {
      util::Rng rng = forks[i];
      boinc::ArrivedClient& client = clients[i];
      client.spec = synth::finish_host(pop, hw.host(i), hw_date, i + 1, rng);
      client.spec.created_day = 0;
      client.spec.last_contact_day = death_day;
      boinc::finish_arrival(client, config.collection.fault_mix, rng);
    }
  });
  return clients;
}

}  // namespace

void EngineConfig::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("EngineConfig: shards must be >= 1");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("EngineConfig: batch_size must be >= 1");
  }
  if (cohort_clients > 0 && !(cohort_horizon_days > 0.0)) {
    throw std::invalid_argument(
        "EngineConfig: cohort mode needs cohort_horizon_days > 0");
  }
  if (replication.enabled) replication.validate();
  if (checkpoint_every_days == 0) {
    throw std::invalid_argument(
        "EngineConfig: checkpoint_every_days must be >= 1");
  }
  if (checkpoint_fault.kind != store::FaultPlan::Kind::kNone &&
      checkpoint_path.empty()) {
    throw std::invalid_argument(
        "EngineConfig: checkpoint_fault needs a checkpoint_path");
  }
  if (checkpoint_fault.kind != store::FaultPlan::Kind::kNone &&
      checkpoint_fault_epoch == 0) {
    throw std::invalid_argument(
        "EngineConfig: checkpoint_fault_epoch is 1-based");
  }
}

EngineResult run_service_engine(const EngineConfig& config) {
  config.validate();

  EngineResult result;
  const bool resuming = !config.resume_path.empty();
  const bool checkpointing = !config.checkpoint_path.empty();

  // Shared run state, built fresh or restored from the checkpoint.
  CheckpointMeta meta;
  std::vector<ClientShard> shards;
  std::unique_ptr<QuorumCoordinator> coordinator;

  if (resuming) {
    // The checkpoint's run header carries the whole behavioural config;
    // population-shape fields of `config` are ignored by contract (the
    // CLI rejects the conflicting flags outright).
    CheckpointState state = load_checkpoint(config.resume_path);
    meta = state.meta;
    shards = std::move(state.shards);
    coordinator = std::move(state.coordinator);
    result.resumed_from_day = meta.resume_day;
  } else {
    const bool cohort = config.cohort_clients > 0;
    const std::vector<boinc::ArrivedClient> population =
        cohort ? build_cohort(config)
               : boinc::build_arrivals(config.collection);
    const double limit_day =
        cohort ? config.cohort_horizon_days
               : static_cast<double>(
                     config.collection.population.sim_end.day_index());

    meta.params.client = config.collection.client;
    meta.params.server = config.collection.server;
    meta.params.limit_day = limit_day;
    meta.params.batch_size = config.batch_size;
    meta.params.emit_day_records = config.replication.enabled;
    if (config.replication.enabled && config.replication.has_deadline()) {
      meta.params.server.report_deadline_days =
          config.replication.deadline_days;
    }
    meta.replication = config.replication;
    meta.first_day =
        cohort ? 0 : config.collection.population.sim_start.day_index();
    meta.resume_day = meta.first_day;
    meta.clients_total = population.size();
    meta.display_shards = config.shards;
    meta.cohort_clients = config.cohort_clients;
    meta.cohort_horizon_days = config.cohort_horizon_days;
    meta.seed = config.collection.population.seed;

    const std::size_t n = population.size();
    const std::size_t n_shards =
        std::min<std::size_t>(config.shards, std::max<std::size_t>(n, 1));
    meta.n_shards = static_cast<std::uint32_t>(n_shards);
    shards.reserve(n_shards);
    const std::span<const boinc::ArrivedClient> all(population);
    for (std::size_t s = 0; s < n_shards; ++s) {
      const std::size_t begin = s * n / n_shards;
      const std::size_t end = (s + 1) * n / n_shards;
      shards.emplace_back(meta.params, all.subspan(begin, end - begin),
                          static_cast<std::uint32_t>(begin));
    }
    if (config.replication.enabled) {
      coordinator =
          std::make_unique<QuorumCoordinator>(config.replication, n);
    }
  }

  const std::size_t n = meta.clients_total;
  result.hosts_created = n;

  // The day-stepped loop is bit-identical to the barrier-free fast path
  // (only the batch flush cadence differs, and batches_drained is
  // outside the determinism contract); the fast path is kept for runs
  // that need none of the barrier features.
  const bool day_stepped = meta.replication.enabled || checkpointing ||
                           config.stop_after_day >= 0;

  const auto t0 = std::chrono::steady_clock::now();
  if (!day_stepped) {
    // Fast path: no cross-shard coupling, each shard drains its whole
    // horizon independently.
    util::parallel_for(shards.size(), config.threads, [&](std::size_t s) {
      shards[s].drain(std::numeric_limits<double>::infinity());
    });
  } else {
    const std::int32_t last_day =
        static_cast<std::int32_t>(std::floor(meta.params.limit_day));
    std::uint64_t epoch = 0;  // checkpoint writes attempted this process
    for (std::int32_t day = meta.resume_day; day <= last_day; ++day) {
      util::parallel_for(shards.size(), config.threads, [&](std::size_t s) {
        shards[s].drain(static_cast<double>(day) + 1.0);
      });
      if (coordinator) {
        // Day barrier: replay the merged day records through the quorum
        // coordinator. Also what makes a checkpoint here consistent —
        // the shards carry no pending records and the coordinator has
        // absorbed everything up to `day`.
        std::vector<DayRecord> records;
        for (ClientShard& shard : shards) {
          std::vector<DayRecord> taken = shard.take_day_records();
          records.insert(records.end(), taken.begin(), taken.end());
        }
        if (!records.empty()) coordinator->apply_day(std::move(records));
      }
      const bool stop_here =
          config.stop_after_day >= 0 && day >= config.stop_after_day;
      // Cadence counts from the run's first day, not the resume day, so
      // an interrupted run and its resumed half publish checkpoints at
      // the same virtual days.
      const bool cadence_hit =
          (day - meta.first_day + 1) %
              static_cast<std::int32_t>(config.checkpoint_every_days) ==
          0;
      // A cadence checkpoint on the final day would be dead weight (the
      // run finishes immediately after), but a stop-triggered one is
      // always written — it is the state the "killed" run resumes from.
      if (checkpointing && (stop_here || (cadence_hit && day < last_day))) {
        ++epoch;
        meta.resume_day = day + 1;
        store::FileSystem* fs = nullptr;
        std::optional<store::FaultyFileSystem> faulty;
        if (config.checkpoint_fault.kind != store::FaultPlan::Kind::kNone &&
            epoch == config.checkpoint_fault_epoch) {
          faulty.emplace(store::FileSystem::real(), config.checkpoint_fault);
          fs = &*faulty;
        }
        write_checkpoint(config.checkpoint_path, meta, shards,
                         coordinator.get(), fs);
        ++result.checkpoints_written;
      }
      if (stop_here) {
        result.halted = true;
        break;
      }
    }
    if (!result.halted) {
      // Discard events scheduled past the window so every heap is empty.
      util::parallel_for(shards.size(), config.threads, [&](std::size_t s) {
        shards[s].drain(std::numeric_limits<double>::infinity());
      });
      if (coordinator) result.quorum = coordinator->finish();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Fold in shard order == global client order (shards are contiguous).
  for (const ClientShard& shard : shards) {
    const ShardTotals& t = shard.totals();
    result.total_contacts += t.contacts;
    result.total_units_granted += t.units_granted;
    result.total_units_reported += t.units_reported;
    result.total_credit_granted += t.credit_granted;
    result.total_units_lost += t.units_lost;
    result.total_units_expired += t.units_expired;
    result.total_invalid_result_units += t.units_invalid;
    result.batches_drained += t.batches_drained;
    result.units_in_flight += shard.queued_units();
  }

  result.trace.reserve(n);
  for (const ClientShard& shard : shards) {
    shard.append_trace(result.trace);
  }

  if (config.record_per_client) {
    result.per_client.reserve(n);
    for (const ClientShard& shard : shards) {
      for (std::size_t i = 0; i < shard.size(); ++i) {
        result.per_client.push_back(shard.account(i));
      }
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  result.requests_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.total_contacts) / result.wall_seconds
          : 0.0;
  return result;
}

}  // namespace resmodel::engine
