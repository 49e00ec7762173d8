// The checkpoint/resume contract (engine/checkpoint.h):
//
//  1. Bit-identity: checkpoint at day d + kill + resume produces the
//     same final counters, trace records and per-client accounts as a
//     run that was never interrupted — across shard/thread counts, with
//     and without the replication overlay, under fault-injected client
//     populations, and in both population modes.
//  2. Crash safety: a store fault injected into a checkpoint write
//     (ENOSPC, EIO, crash mid-tmp, crash at commit) kills the run with a
//     typed StoreError and never damages the previously published
//     checkpoint — which remains byte-identical and resumable.
//  3. Refusal: a corrupted checkpoint is never resumed. load_checkpoint
//     CRC-walks every block first and throws a typed StoreError naming
//     exactly which shards were lost; read_recovering still surfaces
//     every intact shard bit-identically with exact lost accounting.
#include "engine/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "engine/service_engine.h"
#include "store/fault_injection.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "util/checksum.h"
#include "util/model_date.h"

namespace resmodel::engine {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "<absent>";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A small cohort run with enough going on to exercise every serialized
/// field: availability sessions, the chosen fault mix, short deadlines.
EngineConfig cohort_config(std::uint64_t seed, int fault_mix,
                           bool replication) {
  EngineConfig config;
  config.cohort_clients = 400;
  config.cohort_horizon_days = 10.0;
  config.collection.population.seed = seed;
  config.collection.client.mean_contact_interval_days = 1.5;
  config.collection.client.model_availability = true;
  config.collection.server.report_deadline_days = 4.0;
  config.batch_size = 128;  // many conservation recounts
  config.record_per_client = true;
  switch (fault_mix) {
    case 0:
      config.collection.fault_mix.crash_fraction = 0.2;
      config.collection.fault_mix.straggler_fraction = 0.15;
      break;
    default:
      config.collection.fault_mix.corrupter_fraction = 0.25;
      config.collection.fault_mix.crash_fraction = 0.1;
      break;
  }
  if (replication) {
    config.replication.enabled = true;
    config.replication.replicas = 3;
    config.replication.quorum = 2;
    config.replication.deadline_days = 3.0;
  }
  return config;
}

void expect_same_account(const ClientAccount& a, const ClientAccount& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.contacts, b.contacts);
  EXPECT_EQ(a.units_granted, b.units_granted);
  EXPECT_EQ(a.units_reported, b.units_reported);
  EXPECT_EQ(a.units_invalid, b.units_invalid);
  EXPECT_EQ(a.units_lost, b.units_lost);
  EXPECT_EQ(a.units_expired, b.units_expired);
  EXPECT_EQ(a.units_in_flight, b.units_in_flight);
  EXPECT_EQ(a.credit, b.credit);
}

std::vector<trace::HostRecord> sorted_by_id(const trace::TraceStore& store) {
  std::vector<trace::HostRecord> hosts(store.hosts().begin(),
                                       store.hosts().end());
  std::sort(hosts.begin(), hosts.end(),
            [](const trace::HostRecord& a, const trace::HostRecord& b) {
              return a.id < b.id;
            });
  return hosts;
}

/// Every deterministic observable, compared exactly (credit included:
/// increments are integer multiples of an exactly representable unit).
void expect_identical_results(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.hosts_created, b.hosts_created);
  EXPECT_EQ(a.total_contacts, b.total_contacts);
  EXPECT_EQ(a.total_units_granted, b.total_units_granted);
  EXPECT_EQ(a.total_units_reported, b.total_units_reported);
  EXPECT_EQ(a.total_credit_granted, b.total_credit_granted);
  EXPECT_EQ(a.total_units_lost, b.total_units_lost);
  EXPECT_EQ(a.total_units_expired, b.total_units_expired);
  EXPECT_EQ(a.total_invalid_result_units, b.total_invalid_result_units);
  EXPECT_EQ(a.units_in_flight, b.units_in_flight);

  EXPECT_EQ(a.quorum.tasks_issued, b.quorum.tasks_issued);
  EXPECT_EQ(a.quorum.tasks_validated, b.quorum.tasks_validated);
  EXPECT_EQ(a.quorum.tasks_invalid, b.quorum.tasks_invalid);
  EXPECT_EQ(a.quorum.tasks_missed_deadline, b.quorum.tasks_missed_deadline);
  EXPECT_EQ(a.quorum.tasks_pending, b.quorum.tasks_pending);
  EXPECT_EQ(a.quorum.replicas_issued, b.quorum.replicas_issued);
  EXPECT_EQ(a.quorum.replicas_correct, b.quorum.replicas_correct);
  EXPECT_EQ(a.quorum.replicas_corrupt, b.quorum.replicas_corrupt);
  EXPECT_EQ(a.quorum.replicas_crashed, b.quorum.replicas_crashed);
  EXPECT_EQ(a.quorum.replicas_missed_deadline,
            b.quorum.replicas_missed_deadline);
  EXPECT_EQ(a.quorum.replicas_duplicate_host,
            b.quorum.replicas_duplicate_host);
  EXPECT_EQ(a.quorum.replicas_in_flight, b.quorum.replicas_in_flight);

  const std::vector<trace::HostRecord> ta = sorted_by_id(a.trace);
  const std::vector<trace::HostRecord> tb = sorted_by_id(b.trace);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const trace::HostRecord& x = ta[i];
    const trace::HostRecord& y = tb[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.created_day, y.created_day);
    EXPECT_EQ(x.last_contact_day, y.last_contact_day);
    EXPECT_EQ(x.n_cores, y.n_cores);
    EXPECT_EQ(x.memory_mb, y.memory_mb);
    EXPECT_EQ(x.dhrystone_mips, y.dhrystone_mips);
    EXPECT_EQ(x.whetstone_mips, y.whetstone_mips);
    EXPECT_EQ(x.disk_avail_gb, y.disk_avail_gb);
    EXPECT_EQ(x.disk_total_gb, y.disk_total_gb);
    EXPECT_EQ(x.cpu, y.cpu);
    EXPECT_EQ(x.os, y.os);
    EXPECT_EQ(x.gpu, y.gpu);
    EXPECT_EQ(x.gpu_memory_mb, y.gpu_memory_mb);
  }

  ASSERT_EQ(a.per_client.size(), b.per_client.size());
  for (std::size_t i = 0; i < a.per_client.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "client " << i);
    expect_same_account(a.per_client[i], b.per_client[i]);
  }
}

/// Runs config uninterrupted, then checkpoint+kill at `stop_day` and
/// resume, and requires the two outcomes bit-identical.
void expect_resume_equals_uninterrupted(EngineConfig config,
                                        std::int32_t stop_day,
                                        const std::string& path) {
  const EngineResult uninterrupted = run_service_engine(config);
  EXPECT_TRUE(uninterrupted.conserves_units());
  EXPECT_FALSE(uninterrupted.halted);

  EngineConfig killed = config;
  killed.checkpoint_path = path;
  killed.checkpoint_every_days = 3;
  killed.stop_after_day = stop_day;
  const EngineResult halted = run_service_engine(killed);
  EXPECT_TRUE(halted.halted);
  EXPECT_GE(halted.checkpoints_written, 1u);

  EngineConfig resumed_config;  // population shape comes from the file
  resumed_config.resume_path = path;
  resumed_config.threads = config.threads;
  resumed_config.record_per_client = config.record_per_client;
  const EngineResult resumed = run_service_engine(resumed_config);
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(resumed.resumed_from_day, stop_day + 1);
  expect_identical_results(resumed, uninterrupted);
}

TEST(EngineCheckpoint, ResumeBitIdenticalAcrossShardThreadFaultGrid) {
  int scenario = 0;
  for (const std::uint32_t shards : {1u, 8u}) {
    for (const int threads : {1, 0}) {  // 0 = hardware concurrency
      for (const bool replication : {false, true}) {
        for (const int fault_mix : {0, 1}) {
          SCOPED_TRACE(::testing::Message()
                       << "shards " << shards << " threads " << threads
                       << " replication " << replication << " fault mix "
                       << fault_mix);
          EngineConfig config =
              cohort_config(1000 + fault_mix, fault_mix, replication);
          config.shards = shards;
          config.threads = threads;
          expect_resume_equals_uninterrupted(
              config, /*stop_day=*/4,
              temp_path("grid_" + std::to_string(scenario++) + ".snap"));
        }
      }
    }
  }
}

TEST(EngineCheckpoint, MultiTileShardResumesAndPinsItsCheckpointBytes) {
  // One shard of 2600 clients drains as three event-heap tiles: two full
  // tiles and a 552-client tail. The other scenarios fit in one tile.
  EngineConfig config =
      cohort_config(/*seed=*/2600, /*fault_mix=*/1, /*replication=*/true);
  config.cohort_clients = 2600;
  config.shards = 1;
  const std::string path = temp_path("multi_tile.snap");
  expect_resume_equals_uninterrupted(config, /*stop_day=*/4, path);

  // The day-4 epoch's CRC32C, recorded from the single-heap drain that
  // tiling replaced: the in_heap column, the last popped event and the
  // batch count serialize exactly as one heap over the shard wrote them.
  const std::string bytes = read_file(path);
  EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), 0xee5649f8u);
}

TEST(EngineCheckpoint, ResumeBitIdenticalInArrivalMode) {
  // Arrival mode: the full §IV arrival process, absolute day indices.
  EngineConfig config;
  config.collection.population.seed = 77;
  config.collection.population.target_active_hosts = 150;
  config.collection.population.sim_start = util::ModelDate::from_ymd(2006, 1, 1);
  config.collection.population.sim_end = util::ModelDate::from_ymd(2006, 7, 1);
  config.collection.client.mean_contact_interval_days = 3.0;
  config.collection.client.model_availability = true;
  config.collection.fault_mix.crash_fraction = 0.2;
  config.shards = 4;
  config.record_per_client = true;
  const std::int32_t mid = static_cast<std::int32_t>(
      config.collection.population.sim_start.day_index() + 90);
  expect_resume_equals_uninterrupted(config, mid, temp_path("arrival.snap"));
}

TEST(EngineCheckpoint, ResumeOfResumeStillBitIdentical) {
  // Two kills in one run: day 2 and day 6, each resumed from its own
  // published epoch.
  EngineConfig config = cohort_config(55, 0, true);
  config.shards = 5;
  const std::string path = temp_path("twice.snap");
  const EngineResult uninterrupted = run_service_engine(config);

  EngineConfig first = config;
  first.checkpoint_path = path;
  first.stop_after_day = 2;
  ASSERT_TRUE(run_service_engine(first).halted);

  EngineConfig second;
  second.resume_path = path;
  second.checkpoint_path = path;
  second.stop_after_day = 6;
  ASSERT_TRUE(run_service_engine(second).halted);

  EngineConfig last;
  last.resume_path = path;
  last.record_per_client = true;
  const EngineResult resumed = run_service_engine(last);
  EXPECT_EQ(resumed.resumed_from_day, 7);
  expect_identical_results(resumed, uninterrupted);
}

TEST(EngineCheckpoint, ResumedRunPublishesTheSameEpochsAsUninterrupted) {
  // The cadence counts from the run's first day, so the final epoch an
  // interrupted+resumed run publishes is byte-identical to the one the
  // uninterrupted run publishes (everything in the store layer is
  // deterministic — no timestamps).
  EngineConfig config = cohort_config(91, 1, false);
  config.shards = 3;

  EngineConfig full = config;
  full.checkpoint_path = temp_path("cadence_full.snap");
  full.checkpoint_every_days = 3;
  const EngineResult a = run_service_engine(full);
  EXPECT_FALSE(a.halted);
  EXPECT_EQ(a.checkpoints_written, 3u);  // days 2, 5, 8 of 0..9

  EngineConfig killed = config;
  killed.checkpoint_path = temp_path("cadence_split.snap");
  killed.checkpoint_every_days = 3;
  killed.stop_after_day = 4;
  ASSERT_TRUE(run_service_engine(killed).halted);

  EngineConfig resumed = config;
  resumed.resume_path = killed.checkpoint_path;
  resumed.checkpoint_path = killed.checkpoint_path;
  resumed.checkpoint_every_days = 3;
  const EngineResult b = run_service_engine(resumed);
  EXPECT_FALSE(b.halted);

  EXPECT_EQ(read_file(full.checkpoint_path),
            read_file(killed.checkpoint_path));
}

TEST(EngineCheckpoint, InjectedWriterFaultsNeverDamageThePublishedEpoch) {
  struct PlanCase {
    const char* name;
    store::FaultPlan plan;
  };
  const std::uint64_t kNever = ~std::uint64_t{0};
  const std::vector<PlanCase> cases = {
      {"enospc", {store::FaultPlan::Kind::kNoSpace, 4096}},
      {"eio", {store::FaultPlan::Kind::kIoError, 4096}},
      {"crash-byte", {store::FaultPlan::Kind::kCrash, 4096}},
      {"crash-commit", {store::FaultPlan::Kind::kCrash, kNever}},
  };

  EngineConfig config = cohort_config(33, 0, true);
  config.shards = 4;
  const EngineResult uninterrupted = run_service_engine(config);

  // Reference epoch 1 (published at day 1 under every=2), for the
  // byte-identity check after the faulted write.
  EngineConfig ref = config;
  ref.checkpoint_path = temp_path("fault_ref.snap");
  ref.checkpoint_every_days = 2;
  ref.stop_after_day = 1;
  ASSERT_TRUE(run_service_engine(ref).halted);
  const std::string epoch1 = read_file(ref.checkpoint_path);
  ASSERT_NE(epoch1, "<absent>");

  for (const PlanCase& c : cases) {
    SCOPED_TRACE(c.name);
    EngineConfig faulted = config;
    faulted.checkpoint_path = temp_path(std::string("fault_") + c.name +
                                        ".snap");
    faulted.checkpoint_every_days = 2;
    faulted.checkpoint_fault = c.plan;
    faulted.checkpoint_fault_epoch = 2;  // epoch 1 publishes, 2 dies
    EXPECT_THROW(run_service_engine(faulted), store::StoreError);

    // The fault killed the run mid-write; epoch 1 must be untouched.
    EXPECT_EQ(read_file(faulted.checkpoint_path), epoch1);

    // And it must still be a fully resumable checkpoint.
    EngineConfig resumed;
    resumed.resume_path = faulted.checkpoint_path;
    resumed.record_per_client = true;
    const EngineResult after = run_service_engine(resumed);
    EXPECT_EQ(after.resumed_from_day, 2);
    expect_identical_results(after, uninterrupted);
  }
}

// --- Format stability -----------------------------------------------------

// tests/engine/data/engine_state_v1.snap is a committed engine_state.v1
// checkpoint, written (byte-identically on 1 and 3 threads) by
//   resmodel serve --clients=100 --days=6 --seed=11 --shards=2
//     --availability --fault-mix=crash:0.2,straggler:0.1,corrupt:0.2
//     --replication=2/3 --deadline-days=2 --checkpoint=F
//     --checkpoint-every-days=2 --stop-after-day=3
// A reader that refuses it, or a writer that does not reproduce it from
// what the reader restored, has changed the on-disk format.
TEST(EngineCheckpoint, GoldenFixtureLoadsRewritesAndResumes) {
  const std::string fixture = RESMODEL_ENGINE_STATE_FIXTURE;
  const CheckpointState state = load_checkpoint(fixture);
  EXPECT_EQ(state.meta.clients_total, 100u);
  EXPECT_EQ(state.meta.n_shards, 2u);
  EXPECT_EQ(state.meta.resume_day, 4);
  ASSERT_NE(state.coordinator, nullptr);

  const std::string rewritten = temp_path("golden_rewrite.snap");
  write_checkpoint(rewritten, state.meta, state.shards,
                   state.coordinator.get());
  EXPECT_EQ(read_file(rewritten), read_file(fixture));

  // The counters the same command prints when run uninterrupted.
  EngineConfig config;
  config.resume_path = fixture;
  const EngineResult r = run_service_engine(config);
  EXPECT_EQ(r.resumed_from_day, 4);
  EXPECT_EQ(r.hosts_created, 100u);
  EXPECT_EQ(r.total_contacts, 371u);
  EXPECT_EQ(r.total_units_granted, 221u);
  EXPECT_EQ(r.total_units_reported, 58u);
  EXPECT_EQ(r.total_invalid_result_units, 36u);
  EXPECT_EQ(r.total_units_lost, 15u);
  EXPECT_EQ(r.total_units_expired, 9u);
  EXPECT_EQ(r.units_in_flight, 103u);
  EXPECT_EQ(r.total_credit_granted, 580.0);
  EXPECT_EQ(r.quorum.tasks_issued, 75u);
  EXPECT_EQ(r.quorum.tasks_validated, 12u);
  EXPECT_EQ(r.quorum.tasks_invalid, 12u);
  EXPECT_EQ(r.quorum.tasks_missed_deadline, 3u);
  EXPECT_EQ(r.quorum.tasks_pending, 48u);
  EXPECT_EQ(r.quorum.replicas_issued, 221u);
  EXPECT_EQ(r.quorum.replicas_correct, 58u);
  EXPECT_EQ(r.quorum.replicas_corrupt, 36u);
  EXPECT_EQ(r.quorum.replicas_crashed, 15u);
  EXPECT_EQ(r.quorum.replicas_missed_deadline, 9u);
  EXPECT_EQ(r.quorum.replicas_duplicate_host, 0u);
  EXPECT_EQ(r.quorum.replicas_in_flight, 103u);
}

// --- Corruption refusal ---------------------------------------------------

/// Publishes a replication-overlay checkpoint with `shards` ClientShards
/// (snapshot layout: header + shards + quorum state) and returns its
/// path.
std::string publish_checkpoint(std::uint32_t shards, const char* name) {
  EngineConfig config = cohort_config(21, 1, true);
  config.shards = shards;
  config.checkpoint_path = temp_path(name);
  config.checkpoint_every_days = 4;
  config.stop_after_day = 5;
  const EngineResult halted = run_service_engine(config);
  EXPECT_TRUE(halted.halted);
  return config.checkpoint_path;
}

TEST(EngineCheckpoint, BitFlipRefusedWithItemizedLostShards) {
  const std::string path = publish_checkpoint(8, "flip.snap");

  // Pristine per-snapshot-shard blobs: the yardstick for "intact shards
  // load bit-identically" after the damage.
  store::SnapshotReader pristine(path);
  const std::uint64_t n_snap_shards = pristine.shard_count();
  ASSERT_EQ(n_snap_shards, 1u + 8u + 1u);  // header + shards + quorum
  std::vector<std::vector<std::byte>> blobs;
  for (std::uint64_t s = 0; s < n_snap_shards; ++s) {
    blobs.push_back(std::move(pristine.read_shard(s).columns[0].data));
  }

  store::CorruptionPlan plan;
  plan.kind = store::CorruptionPlan::Kind::kBitFlip;
  plan.at = read_file(path).size() * 4;  // a bit mid-file
  store::corrupt_file(path, plan);

  // Strict resume refuses with a typed, itemized error.
  try {
    load_checkpoint(path);
    FAIL() << "resume from a bit-flipped checkpoint must throw";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.errc(), store::StoreErrc::kBlockCorrupt);
    EXPECT_NE(std::string(e.what()).find("refusing resume"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("lost"), std::string::npos);
  }

  // Recovering read: exact accounting, intact shards bit-identical,
  // damaged ones zero-filled.
  store::SnapshotReader damaged(path);
  store::ReadReport report;
  const store::Snapshot recovered = damaged.read_recovering(report);
  EXPECT_TRUE(report.footer_intact);
  EXPECT_FALSE(report.complete);
  ASSERT_FALSE(report.lost.empty());
  EXPECT_EQ(report.blocks_loaded + report.lost.size(),
            report.blocks_expected);
  std::uint64_t lost_rows = 0;
  for (const store::LostBlock& lost : report.lost) lost_rows += lost.rows;
  EXPECT_EQ(lost_rows, report.rows_lost);

  // The single u8 column concatenates the shard blobs; walk it shard by
  // shard against the pristine copy.
  ASSERT_EQ(recovered.columns.size(), 1u);
  const std::vector<std::byte>& col = recovered.columns[0].data;
  std::uint64_t offset = 0;
  for (std::uint64_t s = 0; s < n_snap_shards; ++s) {
    SCOPED_TRACE(::testing::Message() << "snapshot shard " << s);
    const bool is_lost = std::any_of(
        report.lost.begin(), report.lost.end(),
        [s](const store::LostBlock& b) { return b.shard == s; });
    ASSERT_LE(offset + blobs[s].size(), col.size());
    const std::span<const std::byte> slice(col.data() + offset,
                                           blobs[s].size());
    if (is_lost) {
      EXPECT_TRUE(std::all_of(slice.begin(), slice.end(), [](std::byte b) {
        return b == std::byte{0};
      })) << "damaged shard must be zero-filled, never silently wrong";
    } else {
      EXPECT_TRUE(std::equal(slice.begin(), slice.end(), blobs[s].begin(),
                             blobs[s].end()))
          << "intact shard must load bit-identically";
    }
    offset += blobs[s].size();
  }
}

/// The middle payload byte of snapshot shard `shard`'s block, found
/// through the footer (engine_state.v1 has one column, so one block per
/// snapshot shard). Footer: u64 rows, u64 shards, u32 blocks, u32
/// metadata entries, then 40 bytes per block: u32 column, u64 shard, u64
/// offset, u64 rows, u64 payload bytes, u32 crc. The trailer's first u64
/// is the footer's offset.
std::uint64_t mid_payload(const std::string& bytes, std::uint64_t shard) {
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, 8);
    return v;
  };
  const std::uint64_t footer = u64_at(bytes.size() - store::kTrailerBytes);
  std::uint32_t blocks = 0;
  std::memcpy(&blocks, bytes.data() + footer + 16, 4);
  for (std::uint32_t i = 0; i < blocks; ++i) {
    const std::size_t entry = footer + 24 + 40 * std::size_t{i};
    if (u64_at(entry + 4) == shard) {
      return u64_at(entry + 12) + store::kBlockHeaderBytes +
             u64_at(entry + 28) / 2;
    }
  }
  ADD_FAILURE() << "no block for snapshot shard " << shard;
  return 0;
}

/// Flips one payload byte of snapshot shard `shard`'s block, then requires
/// a one-thread and a four-thread load to refuse it with the same message,
/// naming `name` as the only lost shard.
void expect_refused_naming(const std::string& path, std::uint64_t shard,
                           const std::string& name) {
  std::string bytes = read_file(path);
  bytes[mid_payload(bytes, shard)] ^= 0x10;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  std::vector<std::string> messages;
  for (const int threads : {1, 4}) {
    try {
      load_checkpoint(path, threads);
      ADD_FAILURE() << "threads " << threads << ": damage not refused";
    } catch (const store::StoreError& e) {
      EXPECT_EQ(e.errc(), store::StoreErrc::kBlockCorrupt);
      messages.push_back(e.what());
    }
  }
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("lost 1 of 10 blocks: " + name + " ("),
            std::string::npos)
      << messages[0];
}

TEST(EngineCheckpoint, DamagedShardBlockIsNamedAloneOnAnyThreadCount) {
  expect_refused_naming(publish_checkpoint(8, "flip_shard4.snap"),
                        /*shard=*/5, "engine shard 4");
}

TEST(EngineCheckpoint, DamagedQuorumBlockIsNamedAloneOnAnyThreadCount) {
  expect_refused_naming(publish_checkpoint(8, "flip_quorum.snap"),
                        /*shard=*/9, "quorum state");
}

TEST(EngineCheckpoint, WriteIsByteIdenticalOnAnyThreadCount) {
  const std::string path = publish_checkpoint(8, "threads_src.snap");
  const CheckpointState state = load_checkpoint(path);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const std::string out =
        temp_path("threads_" + std::to_string(threads) + ".snap");
    write_checkpoint(out, state.meta, state.shards, state.coordinator.get(),
                     nullptr, threads);
    EXPECT_EQ(read_file(out), read_file(path));
  }
}

TEST(EngineCheckpoint, TruncationRefusedAsFooterDamage) {
  const std::string path = publish_checkpoint(4, "trunc.snap");
  store::CorruptionPlan plan;
  plan.kind = store::CorruptionPlan::Kind::kTruncate;
  plan.at = read_file(path).size() / 2;
  store::corrupt_file(path, plan);

  try {
    load_checkpoint(path);
    FAIL() << "resume from a truncated checkpoint must throw";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.errc(), store::StoreErrc::kFooterCorrupt);
    EXPECT_NE(std::string(e.what()).find("refusing resume"),
              std::string::npos);
  }
}

TEST(EngineCheckpoint, ZeroedTailItemizesEveryLostShardByName) {
  const std::string path = publish_checkpoint(4, "zero.snap");
  const std::uint64_t size = read_file(path).size();
  store::CorruptionPlan plan;
  plan.kind = store::CorruptionPlan::Kind::kZeroTail;
  plan.at = size / 2;  // keeps the footer? no — zeroes it too
  store::corrupt_file(path, plan);

  // Zeroing the tail takes the footer with it; either refusal flavour
  // must name the damage and refuse.
  try {
    load_checkpoint(path);
    FAIL() << "resume from a zero-tailed checkpoint must throw";
  } catch (const store::StoreError& e) {
    EXPECT_TRUE(e.errc() == store::StoreErrc::kFooterCorrupt ||
                e.errc() == store::StoreErrc::kBlockCorrupt);
    EXPECT_NE(std::string(e.what()).find("refusing resume"),
              std::string::npos);
  }
}

TEST(EngineCheckpoint, WrongSnapshotKindRefused) {
  // A perfectly healthy snapshot of the wrong kind is not a checkpoint.
  const std::string path = temp_path("notengine.snap");
  store::SnapshotWriter writer(path, "population.v1",
                               {{"x", store::DType::kU8}});
  const std::vector<std::byte> bytes(16, std::byte{7});
  const std::array<std::span<const std::byte>, 1> cols{
      std::span<const std::byte>(bytes)};
  writer.append_shard(cols, bytes.size());
  writer.finish({});

  try {
    load_checkpoint(path);
    FAIL() << "wrong-kind snapshot must be refused";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.errc(), store::StoreErrc::kSchemaMismatch);
    EXPECT_NE(std::string(e.what()).find("not an engine checkpoint"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace resmodel::engine
