// perfbench_worker: one timed run of one benchmark workload, in a fresh
// process. perfbench/run.py starts it once per repetition and turns the
// JSON object it prints on its last stdout line into the benchmark's
// metrics and correctness verdict.
//
//   perfbench_worker --workload W --seed N [--size full|smoke]
//                    [--threads T] [--trace 0|1] [--dir D]
//
//   W = serve-plain | serve-durable | serve-resume | sweep-grid |
//       sweep-replicated | calibrate | describe
//
// Untraced runs call the library's own entry points
// (engine::run_service_engine, sim::run_policy_sweep). Traced runs
// re-compose the same public calls, in the same order, with a span around
// each; their outcome digest must equal the untraced one, which is the
// check that the re-composition does the same work.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "churn/churn_scheduler.h"
#include "core/host_generator.h"
#include "core/model_params.h"
#include "engine/checkpoint.h"
#include "engine/client_shard.h"
#include "engine/quorum.h"
#include "engine/service_engine.h"
#include "model/factory.h"
#include "sim/bag_of_tasks.h"
#include "sim/baseline_models.h"
#include "sim/fault_model.h"
#include "sim/replication.h"
#include "sim/schedule_state.h"
#include "spans.h"
#include "stats/distributions.h"
#include "store/snapshot.h"
#include "synth/population.h"
#include "util/model_date.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace resmodel;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string size = "full";
  int threads = 1;
  bool trace = false;
  std::string dir = ".";
};

/// Input sizes. "full" is the measured configuration; "smoke" is the
/// self-test's, small enough to run every workload in a few seconds.
struct Sizes {
  std::uint64_t serve_clients;
  std::size_t grid_hosts;
  std::size_t grid_tasks;
  std::size_t replicated_hosts;
  std::size_t replicated_tasks;
};

Sizes sizes_for(const std::string& size) {
  if (size == "full") return {250000, 100000, 100000, 50000, 50000};
  if (size == "smoke") return {20000, 4000, 4000, 3000, 3000};
  throw std::invalid_argument("unknown --size '" + size + "'");
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--size") {
      o.size = value;
    } else if (key == "--threads") {
      o.threads = std::max(1, std::stoi(value));
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--dir") {
      o.dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

// ----------------------------------------------------------------- output

/// FNV-1a over the exact bit patterns of an outcome's fields.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One flat JSON object, printed as the worker's last stdout line.
class Report {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void flag(const std::string& key, bool v) { field(key, v ? "true" : "false"); }
  std::string json() const { return "{" + body_.str() + "}"; }

 private:
  void field(const std::string& key, const std::string& raw) {
    if (!first_) body_ << ", ";
    first_ = false;
    body_ << '"' << key << "\": " << raw;
  }
  std::ostringstream body_;
  bool first_ = true;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs fn(job) for jobs [0, count) on min(threads, count) workers, the
/// calling thread included, with fresh threads per call — the pattern of
/// the engine's and the sweep's own pools. Worker exceptions are rethrown
/// after the join.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  if (count == 0) return;
  const std::size_t n_workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads), count);
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n_workers);
  const auto worker = [&](std::size_t w) noexcept {
    try {
      for (std::size_t job; (job = next.fetch_add(1)) < count;) fn(job);
    } catch (...) {
      errors[w] = std::current_exception();
      next.store(count);
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(n_workers - 1);
    for (std::size_t w = 1; w < n_workers; ++w) pool.emplace_back(worker, w);
    worker(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ------------------------------------------------------------------ serve

std::string checkpoint_path(const Options& o) {
  return o.dir + "/serve-durable-seed" + std::to_string(o.seed) + ".ckpt";
}

/// The serve cohort: paper model, 7 virtual days, 1-day mean contact
/// interval, availability sessions, crash/straggler/corrupt fault mix,
/// 8 shards. `durable` adds the 2-of-3 quorum with a 4-day deadline and
/// a checkpoint every 2 virtual days.
engine::EngineConfig serve_config(const Options& o, bool durable) {
  engine::EngineConfig c;
  c.collection.population.model = core::paper_params();
  c.collection.population.seed = o.seed;
  c.collection.client.mean_contact_interval_days = 1.0;
  c.collection.client.model_availability = true;
  c.collection.fault_mix.crash_fraction = 0.06;
  c.collection.fault_mix.straggler_fraction = 0.04;
  c.collection.fault_mix.corrupter_fraction = 0.04;
  c.cohort_clients = sizes_for(o.size).serve_clients;
  c.cohort_horizon_days = 7.0;
  c.shards = 8;
  c.threads = o.threads;
  if (durable) {
    c.replication.enabled = true;
    c.replication.replicas = 3;
    c.replication.quorum = 2;
    c.replication.deadline_days = 4.0;
    c.checkpoint_path = checkpoint_path(o);
    c.checkpoint_every_days = 2;
  }
  return c;
}

/// Unit conservation, plus task and replica conservation (the quorum books
/// of a run without replication are all zero and balance trivially).
bool conserves(const engine::EngineResult& r) {
  return r.conserves_units() && r.quorum.conserves_tasks() &&
         r.quorum.conserves_replicas();
}

std::string digest_of(const engine::EngineResult& r) {
  Digest d;
  for (const std::uint64_t v :
       {r.total_contacts, r.total_units_granted, r.total_units_reported,
        r.total_invalid_result_units, r.total_units_lost,
        r.total_units_expired, r.units_in_flight}) {
    d.add(v);
  }
  d.add(r.total_credit_granted);
  const engine::QuorumOutcome& q = r.quorum;
  for (const std::uint64_t v :
       {q.tasks_issued, q.tasks_validated, q.tasks_invalid,
        q.tasks_missed_deadline, q.tasks_pending, q.replicas_issued,
        q.replicas_correct, q.replicas_corrupt, q.replicas_crashed,
        q.replicas_missed_deadline, q.replicas_duplicate_host,
        q.replicas_in_flight}) {
    d.add(v);
  }
  for (const trace::HostRecord& h : r.trace.hosts()) {
    d.add(h.id);
    d.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.created_day)));
    d.add(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(h.last_contact_day)));
    d.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.n_cores)));
    d.add(h.memory_mb);
    d.add(h.dhrystone_mips);
    d.add(h.whetstone_mips);
    d.add(h.disk_avail_gb);
    d.add(h.disk_total_gb);
    d.add(static_cast<std::uint64_t>(h.cpu) << 16 |
          static_cast<std::uint64_t>(h.os) << 8 |
          static_cast<std::uint64_t>(h.gpu));
    d.add(h.gpu_memory_mb);
  }
  return d.hex();
}

/// The traced re-composition's shared state: what run_service_engine
/// keeps between population build, drain and fold.
struct ServeRun {
  engine::CheckpointMeta meta;
  std::vector<engine::ClientShard> shards;
  std::unique_ptr<engine::QuorumCoordinator> coordinator;
  engine::QuorumOutcome quorum;
  std::uint64_t day_records = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
};

/// build_cohort + shard construction, as run_service_engine does them.
void traced_build(const engine::EngineConfig& config, SpanRecorder& rec,
                  ServeRun& run) {
  config.validate();
  config.collection.fault_mix.validate();
  config.collection.client.validate();
  const synth::PopulationConfig& pop = config.collection.population;
  const std::uint64_t n = config.cohort_clients;
  const util::ModelDate hw_date = pop.sim_end;

  util::Rng master(pop.seed ^ 0xd1b54a32d192ed03ULL);
  std::optional<core::GeneratedHostBatch> hw;
  {
    Scope span(rec, "core.generate_batch");
    const core::HostGenerator generator(pop.model);
    const std::uint64_t hw_seed = master.next();
    hw.emplace(generator.generate_batch_parallel(hw_date, n, hw_seed,
                                                 config.threads));
  }

  std::vector<boinc::ArrivedClient> clients;
  {
    Scope span(rec, "synth.finish_host");
    std::vector<util::Rng> forks;
    forks.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) forks.push_back(master.fork());
    const std::int32_t death_day =
        static_cast<std::int32_t>(std::floor(config.cohort_horizon_days));
    clients.resize(n);
    constexpr std::uint64_t kChunk = 4096;
    parallel_for((n + kChunk - 1) / kChunk, config.threads,
                 [&](std::size_t chunk) {
      const std::uint64_t begin = chunk * kChunk;
      const std::uint64_t end = std::min(begin + kChunk, n);
      for (std::uint64_t i = begin; i < end; ++i) {
        util::Rng rng = forks[i];
        boinc::ArrivedClient& client = clients[i];
        client.spec = synth::finish_host(pop, hw->host(i), hw_date, i + 1, rng);
        client.spec.created_day = 0;
        client.spec.last_contact_day = death_day;
        if (config.collection.fault_mix.any()) {
          util::Rng fault_rng = rng.fork();
          const sim::FaultDraw draw =
              sim::sample_fault(config.collection.fault_mix, fault_rng);
          client.fault = draw.type;
          client.straggler_slowdown = draw.slowdown;
        }
        client.rng = rng.fork();
      }
    });
  }
  hw.reset();

  Scope span(rec, "engine.shard_build");
  engine::CheckpointMeta& meta = run.meta;
  meta.params.client = config.collection.client;
  meta.params.server = config.collection.server;
  meta.params.limit_day = config.cohort_horizon_days;
  meta.params.batch_size = config.batch_size;
  meta.params.emit_day_records = config.replication.enabled;
  if (config.replication.enabled && config.replication.has_deadline()) {
    meta.params.server.report_deadline_days = config.replication.deadline_days;
  }
  meta.replication = config.replication;
  meta.first_day = 0;
  meta.resume_day = 0;
  meta.clients_total = n;
  meta.display_shards = config.shards;
  meta.cohort_clients = config.cohort_clients;
  meta.cohort_horizon_days = config.cohort_horizon_days;
  meta.seed = pop.seed;
  const std::size_t n_shards =
      std::min<std::size_t>(config.shards, std::max<std::size_t>(n, 1));
  meta.n_shards = static_cast<std::uint32_t>(n_shards);
  run.shards.reserve(n_shards);
  const std::span<const boinc::ArrivedClient> all(clients);
  for (std::size_t s = 0; s < n_shards; ++s) {
    const std::size_t begin = s * n / n_shards;
    const std::size_t end = (s + 1) * n / n_shards;
    run.shards.emplace_back(meta.params, all.subspan(begin, end - begin),
                            static_cast<std::uint32_t>(begin));
  }
  if (config.replication.enabled) {
    run.coordinator =
        std::make_unique<engine::QuorumCoordinator>(config.replication, n);
  }
}

/// One parallel drain of every shard up to `day_end`, with one worker
/// span per shard under an "engine.drain" span.
void traced_drain(ServeRun& run, double day_end, int threads,
                  SpanRecorder& rec) {
  Scope span(rec, "engine.drain");
  std::vector<Interval> busy(run.shards.size());
  parallel_for(run.shards.size(), threads, [&](std::size_t s) {
    busy[s].start = rec.now();
    run.shards[s].drain(day_end);
    busy[s].end = rec.now();
  });
  for (std::size_t s = 0; s < busy.size(); ++s) {
    rec.add_worker("engine.shard_drain", rec.current(), busy[s].start,
                   busy[s].end, static_cast<std::int64_t>(s));
  }
}

/// The drain phase of run_service_engine: the barrier-free path, or the
/// day-stepped loop with quorum replay and checkpoints at the barriers.
void traced_serve_drain(const engine::EngineConfig& config, ServeRun& run,
                        SpanRecorder& rec) {
  const bool checkpointing = !config.checkpoint_path.empty();
  const bool day_stepped = run.meta.replication.enabled || checkpointing;
  const double horizon = std::numeric_limits<double>::infinity();
  if (!day_stepped) {
    traced_drain(run, horizon, config.threads, rec);
    return;
  }
  const std::int32_t last_day =
      static_cast<std::int32_t>(std::floor(run.meta.params.limit_day));
  for (std::int32_t day = run.meta.resume_day; day <= last_day; ++day) {
    traced_drain(run, static_cast<double>(day) + 1.0, config.threads, rec);
    if (run.coordinator) {
      Scope span(rec, "engine.quorum_apply");
      std::vector<engine::DayRecord> records;
      for (engine::ClientShard& shard : run.shards) {
        std::vector<engine::DayRecord> taken = shard.take_day_records();
        records.insert(records.end(), taken.begin(), taken.end());
      }
      run.day_records += records.size();
      if (!records.empty()) run.coordinator->apply_day(std::move(records));
    }
    const bool cadence_hit =
        (day - run.meta.first_day + 1) %
            static_cast<std::int32_t>(config.checkpoint_every_days) ==
        0;
    if (checkpointing && cadence_hit && day < last_day) {
      run.meta.resume_day = day + 1;
      {
        Scope span(rec, "engine.checkpoint_write");
        engine::write_checkpoint(config.checkpoint_path, run.meta, run.shards,
                                 run.coordinator.get());
      }
      ++run.checkpoints;
      run.checkpoint_bytes +=
          std::filesystem::file_size(config.checkpoint_path);
    }
  }
  traced_drain(run, horizon, config.threads, rec);
  if (run.coordinator) {
    Scope span(rec, "engine.quorum_apply");
    run.quorum = run.coordinator->finish();
  }
}

/// The fold of run_service_engine, in shard order.
engine::EngineResult traced_fold(ServeRun& run, SpanRecorder& rec) {
  Scope span(rec, "engine.fold");
  engine::EngineResult r;
  for (const engine::ClientShard& shard : run.shards) {
    const engine::ShardTotals& t = shard.totals();
    r.total_contacts += t.contacts;
    r.total_units_granted += t.units_granted;
    r.total_units_reported += t.units_reported;
    r.total_credit_granted += t.credit_granted;
    r.total_units_lost += t.units_lost;
    r.total_units_expired += t.units_expired;
    r.total_invalid_result_units += t.units_invalid;
    r.units_in_flight += shard.queued_units();
  }
  r.trace.reserve(run.meta.clients_total);
  for (const engine::ClientShard& shard : run.shards) {
    shard.append_trace(r.trace);
  }
  r.quorum = run.quorum;
  return r;
}

/// `drain_phase_s` is the span EngineResult::wall_seconds covers (drain,
/// quorum replay and checkpoint writes); run.py compares the traced
/// re-composition's figure with the library's.
void report_serve(Report& out, const engine::EngineResult& r,
                  double drain_phase_s) {
  out.num("drain_phase_s", drain_phase_s);
  out.count("work", r.total_contacts);
  out.str("digest", digest_of(r));
  out.flag("conserved", conserves(r));
  out.count("quorum_tasks_issued", r.quorum.tasks_issued);
  out.count("quorum_tasks_validated", r.quorum.tasks_validated);
}

void run_serve(const Options& o, bool durable, SpanRecorder* rec,
               Report& out) {
  const engine::EngineConfig config = serve_config(o, durable);
  const auto t0 = Clock::now();
  if (rec == nullptr) {
    const engine::EngineResult r = engine::run_service_engine(config);
    const double wall = since(t0);
    out.num("wall_s", wall);
    out.num("setup_s", wall - r.wall_seconds);
    report_serve(out, r, r.wall_seconds);
    return;
  }
  ServeRun run;
  std::optional<engine::EngineResult> outcome;
  double drain_phase = 0.0;
  {
    Scope root(*rec, "run");
    traced_build(config, *rec, run);
    const auto drain_start = Clock::now();
    traced_serve_drain(config, run, *rec);
    drain_phase = since(drain_start);
    outcome.emplace(traced_fold(run, *rec));
  }
  out.num("wall_s", since(t0));
  out.count("day_records", run.day_records);
  out.count("checkpoints", run.checkpoints);
  out.count("checkpoint_bytes", run.checkpoint_bytes);
  report_serve(out, *outcome, drain_phase);
}

/// A fresh process continuing the durable run from its last published
/// checkpoint; the file is removed by run.py afterwards.
void run_resume(const Options& o, SpanRecorder* rec, Report& out) {
  engine::EngineConfig config;
  config.resume_path = checkpoint_path(o);
  config.threads = o.threads;
  const auto t0 = Clock::now();
  if (rec == nullptr) {
    const engine::EngineResult r = engine::run_service_engine(config);
    const double wall = since(t0);
    out.num("wall_s", wall);
    out.num("setup_s", wall - r.wall_seconds);
    report_serve(out, r, r.wall_seconds);
    return;
  }
  ServeRun run;
  std::optional<engine::EngineResult> outcome;
  std::uint64_t file_bytes = 0;
  double drain_phase = 0.0;
  {
    Scope root(*rec, "run");
    {
      Scope span(*rec, "store.verify");
      store::SnapshotReader reader(config.resume_path);
      const store::SnapshotReader::VerifyResult vr = reader.verify();
      if (!vr.report.complete) {
        throw std::runtime_error("checkpoint failed its verify walk");
      }
      file_bytes = std::filesystem::file_size(config.resume_path);
    }
    {
      Scope span(*rec, "engine.resume_load");
      engine::CheckpointState state = engine::load_checkpoint(config.resume_path);
      run.meta = state.meta;
      run.shards = std::move(state.shards);
      run.coordinator = std::move(state.coordinator);
    }
    const auto drain_start = Clock::now();
    traced_serve_drain(config, run, *rec);
    drain_phase = since(drain_start);
    outcome.emplace(traced_fold(run, *rec));
  }
  out.num("wall_s", since(t0));
  out.count("day_records", run.day_records);
  out.count("checkpoint_file_bytes", file_bytes);
  report_serve(out, *outcome, drain_phase);
}

// ------------------------------------------------------------------ sweep

constexpr int kSweepSetupRounds = 5;

struct SweepSpec {
  std::size_t hosts = 0;
  std::size_t tasks = 0;
  bool replicated = false;
  sim::PolicySweepConfig config;
};

/// sweep-grid: pull, ECT and churn-ECT checkpoint over 100k x 100k.
/// sweep-replicated: ECT and churn-ECT checkpoint over 50k x 50k under a
/// 2-of-3 quorum, 4-day deadline, backoff 2, 3 retries and the serve
/// fault mix.
SweepSpec sweep_spec(const Options& o, bool replicated) {
  const Sizes sizes = sizes_for(o.size);
  SweepSpec spec;
  spec.replicated = replicated;
  sim::PolicySweepConfig& c = spec.config;
  c.workload_seed = o.seed * 0x9e3779b97f4a7c15ULL + 999;
  c.threads = o.threads;
  if (!replicated) {
    spec.hosts = sizes.grid_hosts;
    spec.tasks = sizes.grid_tasks;
    c.policies = {sim::SchedulingPolicy::kDynamicPull,
                  sim::SchedulingPolicy::kDynamicEct,
                  sim::SchedulingPolicy::kChurnEctCheckpoint};
  } else {
    spec.hosts = sizes.replicated_hosts;
    spec.tasks = sizes.replicated_tasks;
    c.policies = {sim::SchedulingPolicy::kDynamicEct,
                  sim::SchedulingPolicy::kChurnEctCheckpoint};
    c.base.replication.enabled = true;
    c.base.replication.replicas = 3;
    c.base.replication.quorum = 2;
    c.base.replication.deadline_days = 4.0;
    c.base.replication.backoff = 2.0;
    c.base.replication.max_retries = 3;
    c.base.fault_mix.crash_fraction = 0.06;
    c.base.fault_mix.straggler_fraction = 0.04;
    c.base.fault_mix.corrupter_fraction = 0.04;
  }
  c.task_counts = {spec.tasks};
  return spec;
}

/// The correlated (Cholesky) and independent populations at 2011-04-01.
std::vector<sim::SweepPopulation> synthesize(const Options& o,
                                             std::size_t hosts) {
  const core::ModelParams params = core::paper_params();
  const util::ModelDate date = util::ModelDate::from_ymd(2011, 4, 1);
  const sim::CorrelatedModel correlated(params);
  const sim::CorrelatedModel independent(
      params,
      model::make_correlation_model(model::CorrelationKind::kIndependent,
                                    params.resource_correlation),
      "Independent Model");
  util::Rng rng(o.seed ^ 0x5eed5eedULL);
  std::vector<sim::SweepPopulation> populations;
  populations.push_back({"Correlated", correlated.synthesize_soa(date, hosts, rng)});
  populations.push_back(
      {"Independent", independent.synthesize_soa(date, hosts, rng)});
  return populations;
}

void digest_cell(Digest& d, const sim::BagOfTasksResult& r) {
  d.add(r.makespan_days);
  d.add(r.total_cpu_days);
  d.add(r.max_host_busy_days);
  d.add(static_cast<std::uint64_t>(r.hosts_used));
  d.add(r.wasted_cpu_days);
  d.add(r.interruptions);
  const sim::ReplicationOutcome& q = r.replication;
  for (const std::uint64_t v :
       {q.tasks_issued, q.tasks_validated, q.tasks_invalid,
        q.tasks_missed_deadline, q.replicas_issued, q.replicas_correct,
        q.replicas_corrupt, q.replicas_crashed, q.replicas_missed_deadline,
        q.replicas_duplicate_host, q.reissues}) {
    d.add(v);
  }
  d.add(q.wasted_replica_cpu_days);
  d.add(q.reissue_latency_p50_days);
  d.add(q.reissue_latency_p90_days);
  d.add(q.reissue_latency_p99_days);
  d.add(q.last_validation_day);
}

/// Every cell scheduled its tasks; replicated cells balance their task
/// and replica books.
bool cell_conserves(const sim::BagOfTasksResult& r, const SweepSpec& spec) {
  if (!(r.makespan_days > 0.0) || r.hosts_used == 0) return false;
  if (!spec.replicated) return true;
  const sim::ReplicationOutcome& q = r.replication;
  return q.tasks_issued == spec.tasks && q.conserves_tasks() &&
         q.replicas_issued == q.replicas_correct + q.replicas_corrupt +
                                  q.replicas_crashed +
                                  q.replicas_missed_deadline +
                                  q.replicas_duplicate_host;
}

void report_sweep(Report& out, const SweepSpec& spec,
                  const std::vector<sim::BagOfTasksResult>& cells) {
  Digest d;
  bool conserved = true;
  std::uint64_t reissues = 0;
  std::uint64_t validated = 0;
  std::uint64_t replicas = 0;
  for (const sim::BagOfTasksResult& r : cells) {
    digest_cell(d, r);
    conserved = conserved && cell_conserves(r, spec);
    reissues += r.replication.reissues;
    validated += r.replication.tasks_validated;
    replicas += r.replication.replicas_issued;
  }
  out.count("work", spec.tasks * cells.size());
  out.str("digest", d.hex());
  out.flag("conserved", conserved);
  out.count("reissues", reissues);
  out.count("tasks_validated", validated);
  out.count("replicas_issued", replicas);
  out.count("quorum", spec.config.base.replication.quorum);
}

/// run_with_state's task sampling: log-normal costs in MIPS-days.
std::vector<double> sample_tasks(const sim::BagOfTasksConfig& config,
                                 util::Rng& rng) {
  const double mean = config.task_cost_mips_days_mean;
  const double sd = mean * config.task_cost_cv;
  const auto dist = stats::LogNormalDist::from_moments(mean, sd * sd);
  std::vector<double> tasks(config.task_count);
  for (double& t : tasks) t = dist.sample(rng);
  return tasks;
}

/// Per-population warm state of run_policy_sweep.
struct PopulationState {
  sim::ScheduleState flagged;
  sim::ScheduleState base;
  util::Rng rng_after_flagged;
  util::Rng rng_after_avail;
  std::shared_ptr<const churn::IntervalTimeline> timeline;
  std::optional<churn::ChurnScheduler> cursor_seed;
};

/// One grid cell's work as run_with_state does it, timed around the
/// kernel call; returns the cell result.
sim::BagOfTasksResult traced_cell(const SweepSpec& spec,
                                  const PopulationState& pop,
                                  sim::SchedulingPolicy policy,
                                  Interval& kernel, std::string& kernel_name,
                                  churn::ChurnScheduleTotals& churn_totals,
                                  const SpanRecorder& rec) {
  const sim::BagOfTasksConfig& base = spec.config.base;
  sim::BagOfTasksConfig cell_config = base;
  cell_config.task_count = spec.tasks;
  const bool churn_cell = sim::is_churn_policy(policy);
  const bool timeline_cell = churn_cell || spec.replicated;
  util::Rng rng = timeline_cell ? pop.rng_after_avail : pop.rng_after_flagged;
  sim::ScheduleState state(churn_cell ? pop.base : pop.flagged);
  const std::vector<double> tasks = sample_tasks(cell_config, rng);
  state.backend = cell_config.backend;

  sim::BagOfTasksResult result;
  const auto finish = [&](double total_cpu_days, double makespan) {
    result.total_cpu_days = total_cpu_days;
    result.makespan_days = makespan;
    for (const double b : state.busy_days) {
      result.max_host_busy_days = std::max(result.max_host_busy_days, b);
      if (b > 0.0) ++result.hosts_used;
    }
  };

  if (spec.replicated) {
    cell_config.replication.validate();
    const sim::FaultProfiles faults =
        sim::sample_fault_profiles(state.size(), cell_config.fault_mix, rng);
    kernel_name = "sim.replication";
    kernel.start = rec.now();
    if (churn_cell) {
      churn::ChurnScheduler scheduler(state, *pop.cursor_seed);
      result = sim::run_replicated_churn(
          scheduler, state, tasks, faults, cell_config.replication,
          churn::InterruptionPolicy::kCheckpoint, false);
    } else {
      result = sim::run_replicated_ect(state, *pop.timeline, tasks, faults,
                                       cell_config.replication,
                                       cell_config.backend, false);
    }
    kernel.end = rec.now();
    return result;
  }

  switch (policy) {
    case sim::SchedulingPolicy::kDynamicPull: {
      kernel_name = "sim.pull";
      kernel.start = rec.now();
      const sim::DynamicScheduleTotals t = sim::pull_schedule_dary(state, tasks);
      kernel.end = rec.now();
      finish(t.total_cpu_days, t.makespan_days);
      break;
    }
    case sim::SchedulingPolicy::kDynamicEct: {
      kernel_name = "sim.ect";
      kernel.start = rec.now();
      const sim::DynamicScheduleTotals t =
          sim::ect_schedule_blocked(state, tasks);
      kernel.end = rec.now();
      finish(t.total_cpu_days, t.makespan_days);
      break;
    }
    case sim::SchedulingPolicy::kChurnEctCheckpoint: {
      kernel_name = "churn.run";
      churn::ChurnScheduler scheduler(state, *pop.cursor_seed);
      kernel.start = rec.now();
      churn_totals =
          scheduler.run(tasks, churn::InterruptionPolicy::kCheckpoint);
      kernel.end = rec.now();
      finish(churn_totals.total_cpu_days, churn_totals.makespan_days);
      result.wasted_cpu_days = churn_totals.wasted_cpu_days;
      result.interruptions = churn_totals.interruptions;
      break;
    }
    default:
      throw std::logic_error("traced sweep: policy not in the benchmark grid");
  }
  return result;
}

std::string policy_label(sim::SchedulingPolicy policy) {
  switch (policy) {
    case sim::SchedulingPolicy::kDynamicPull: return "pull";
    case sim::SchedulingPolicy::kDynamicEct: return "ect";
    case sim::SchedulingPolicy::kChurnEctCheckpoint: return "churn_checkpoint";
    default: return "other";
  }
}

void run_sweep(const Options& o, bool replicated, SpanRecorder* rec,
               Report& out) {
  const SweepSpec spec = sweep_spec(o, replicated);
  const sim::PolicySweepConfig& config = spec.config;
  auto t0 = Clock::now();
  if (rec == nullptr) {
    // Set-up is a few percent of the run, too short to time steadily once:
    // it is repeated and its median reported. wall_s counts the last one.
    std::vector<double> setups;
    std::vector<sim::SweepPopulation> populations;
    for (int round = 0; round < kSweepSetupRounds; ++round) {
      populations.clear();
      t0 = Clock::now();
      populations = synthesize(o, spec.hosts);
      setups.push_back(since(t0));
    }
    const sim::PolicySweepResult grid =
        sim::run_policy_sweep(populations, config);
    const double wall = since(t0);
    out.num("wall_s", wall);
    out.num("setup_s", median(setups));
    std::vector<sim::BagOfTasksResult> cells;
    for (const sim::PolicySweepCell& cell : grid.cells) {
      cells.push_back(cell.result);
    }
    report_sweep(out, spec, cells);
    return;
  }

  const sim::BagOfTasksConfig& base = config.base;
  std::vector<sim::BagOfTasksResult> cells;
  std::uint64_t swept_blocks = 0;
  std::uint64_t resolved_lanes = 0;
  std::uint64_t churn_tasks = 0;
  {
    Scope root(*rec, "run");
    std::vector<sim::SweepPopulation> populations;
    {
      Scope span(*rec, "sim.synthesize");
      populations = synthesize(o, spec.hosts);
    }
    bool any_churn = false;
    for (const sim::SchedulingPolicy p : config.policies) {
      any_churn = any_churn || sim::is_churn_policy(p);
    }
    // run_policy_sweep's per-population warm start, call for call.
    std::vector<PopulationState> shared(populations.size());
    for (std::size_t p = 0; p < populations.size(); ++p) {
      PopulationState& pop = shared[p];
      util::Rng rng(config.workload_seed);
      std::vector<double> rates;
      {
        Scope span(*rec, "sim.host_rates");
        rates = sim::compute_host_rates(populations[p].hosts, base, rng);
      }
      {
        Scope span(*rec, "sim.availability");
        util::Rng avail_rng = rng;
        const sim::AvailabilityRealization real =
            sim::realize_availability(rates, base, avail_rng);
        pop.timeline = real.timeline;
        pop.rng_after_avail = avail_rng;
      }
      pop.rng_after_flagged = rng;
      {
        Scope span(*rec, "sim.schedule_state");
        if (any_churn) {
          pop.base = sim::ScheduleState::from_rates(rates);
          pop.base.ensure_ect_caches();
        }
        pop.flagged = sim::ScheduleState::from_rates(std::move(rates));
        pop.flagged.ensure_ect_caches();
      }
      if (any_churn) {
        Scope span(*rec, "churn.cursor_seed");
        churn::ChurnSchedulerConfig seed_config;
        seed_config.lookahead_levels = base.churn_lookahead_levels;
        seed_config.backend = base.backend;
        pop.cursor_seed.emplace(pop.base, *pop.timeline, seed_config);
      }
    }

    const std::size_t n_cells = populations.size() * config.policies.size();
    cells.resize(n_cells);
    std::vector<Interval> cell_span(n_cells);
    std::vector<Interval> kernel_span(n_cells);
    std::vector<std::string> kernel_name(n_cells);
    std::vector<churn::ChurnScheduleTotals> churn_totals(n_cells);
    {
      Scope span(*rec, "sim.cells");
      parallel_for(n_cells, config.threads, [&](std::size_t c) {
        cell_span[c].start = rec->now();
        const std::size_t p = c / config.policies.size();
        cells[c] = traced_cell(spec, shared[p],
                               config.policies[c % config.policies.size()],
                               kernel_span[c], kernel_name[c], churn_totals[c],
                               *rec);
        cell_span[c].end = rec->now();
      });
      for (std::size_t c = 0; c < n_cells; ++c) {
        const sim::SchedulingPolicy policy =
            config.policies[c % config.policies.size()];
        const int cell = rec->add_worker(
            "sim.cell", rec->current(), cell_span[c].start, cell_span[c].end,
            static_cast<std::int64_t>(c), policy_label(policy));
        rec->add_worker(kernel_name[c], cell, kernel_span[c].start,
                        kernel_span[c].end, static_cast<std::int64_t>(c),
                        policy_label(policy));
        if (kernel_name[c] == "churn.run") {
          swept_blocks += churn_totals[c].swept_blocks;
          resolved_lanes += churn_totals[c].resolved_lanes;
          churn_tasks += spec.tasks;
        }
      }
    }
  }
  out.num("wall_s", since(t0));
  out.count("churn_swept_blocks", swept_blocks);
  out.count("churn_resolved_lanes", resolved_lanes);
  out.count("churn_tasks", churn_tasks);
  report_sweep(out, spec, cells);
}

// ------------------------------------------------------------- provenance

/// A fixed pure-compute loop; its time tracks the machine's speed, not
/// the code under test. The median of several rounds, so one preempted
/// round does not read as drift.
double calibrate(std::uint64_t seed) {
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    const auto t0 = Clock::now();
    std::uint64_t x = seed | 1;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    rounds.push_back(since(t0));
    if (acc < 0.0) std::cerr << acc;  // keeps the loop live
  }
  return median(rounds);
}

void describe(Report& out) {
  const backend::ResolvedBackend arm = backend::resolve(backend::Backend::kAuto);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.str("backend_arm", backend::to_string(arm.arm) + "/" +
                             backend::to_string(arm.simd));
  out.str("cpu_features", backend::cpu_feature_string());
  out.count("hardware_threads", std::thread::hardware_concurrency());
}

int run(const Options& o) {
  Report out;
  out.str("workload", o.workload);
  out.count("seed", o.seed);
  std::optional<SpanRecorder> recorder;
  if (o.trace) recorder.emplace();
  SpanRecorder* rec = recorder ? &*recorder : nullptr;

  if (o.workload == "serve-plain") {
    run_serve(o, false, rec, out);
  } else if (o.workload == "serve-durable") {
    run_serve(o, true, rec, out);
  } else if (o.workload == "serve-resume") {
    run_resume(o, rec, out);
  } else if (o.workload == "sweep-grid") {
    run_sweep(o, false, rec, out);
  } else if (o.workload == "sweep-replicated") {
    run_sweep(o, true, rec, out);
  } else if (o.workload == "calibrate") {
    out.num("calibrate_s", calibrate(o.seed));
  } else if (o.workload == "describe") {
    describe(out);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  out.num("peak_rss_mb", peak_rss_mb());
  if (rec != nullptr) {
    const std::string path = o.dir + "/spans-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    rec->write_json(path);
    out.str("spans_file", path);
  }
  std::cout << out.json() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench_worker: built with assertions on; timings from "
               "this build are not comparable — rebuild as Release\n";
  return 2;
#endif
  try {
    return perfbench::run(perfbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_worker: " << e.what() << '\n';
    return 1;
  }
}
