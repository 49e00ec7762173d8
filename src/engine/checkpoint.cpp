#include "engine/checkpoint.h"

#include <array>
#include <stdexcept>
#include <utility>

#include "engine/state_codec.h"
#include "store/adapters.h"
#include "store/snapshot.h"

namespace resmodel::engine {

namespace {

// Run-header blob framing ("ENGC", version 1). The store frames and
// CRCs the blob; this magic/version pair only guards against feeding a
// future engine's header to this loader.
constexpr std::uint32_t kHeaderMagic = 0x43474E45u;  // "ENGC"
constexpr std::uint32_t kHeaderVersion = 1;

/// The run-header wire format, walked by write_checkpoint and parse_meta.
template <typename Meta, typename Io>
void meta_fields(Meta& meta, Io& io) {
  std::uint32_t magic = kHeaderMagic;
  io.field(magic);
  if (magic != kHeaderMagic) {
    throw std::runtime_error("run header magic mismatch");
  }
  std::uint32_t version = kHeaderVersion;
  io.field(version);
  if (version != kHeaderVersion) {
    throw std::runtime_error("run header version " + std::to_string(version) +
                             ", this build reads version " +
                             std::to_string(kHeaderVersion));
  }

  auto& cc = meta.params.client;
  io.field(cc.mean_contact_interval_days);
  io.field(cc.benchmark_jitter_sigma);
  io.field(cc.disk_drift_sigma);
  io.field(cc.work_request_seconds);
  io.field(cc.model_availability);
  io.field(cc.availability.on_weibull_k);
  io.field(cc.availability.on_weibull_lambda);
  io.field(cc.availability.off_lognormal_mu);
  io.field(cc.availability.off_lognormal_sigma);
  io.field(cc.fault);
  io.field(cc.straggler_slowdown);

  auto& sc = meta.params.server;
  io.field(sc.work_unit_cost_mips_days);
  io.field(sc.max_queued_units);
  io.field(sc.credit_per_unit);
  io.field(sc.contact_interval_days);
  io.field(sc.report_deadline_days);

  io.field(meta.params.limit_day);
  io.field(meta.params.batch_size);
  io.field(meta.params.emit_day_records);

  auto& rep = meta.replication;
  io.field(rep.enabled);
  io.field(rep.replicas);
  io.field(rep.quorum);
  io.field(rep.deadline_days);
  io.field(rep.backoff);
  io.field(rep.max_retries);

  io.field(meta.clients_total);
  io.field(meta.n_shards);
  io.field(meta.first_day);
  io.field(meta.resume_day);
  io.field(meta.display_shards);
  io.field(meta.cohort_clients);
  io.field(meta.cohort_horizon_days);
  io.field(meta.seed);
}

CheckpointMeta parse_meta(std::span<const std::byte> blob) {
  CheckpointMeta meta;
  StateReader r(blob);
  meta_fields(meta, r);
  r.expect_end();
  return meta;
}

void require_engine_kind(const store::SnapshotReader& reader,
                         const std::string& path) {
  if (reader.kind() != store::kEngineStateKind) {
    throw store::StoreError(store::StoreErrc::kSchemaMismatch, path,
                            "snapshot kind '" + reader.kind() +
                                "', expected '" + store::kEngineStateKind +
                                "' — not an engine checkpoint");
  }
}

/// Extracts the single shard_state blob of one snapshot shard.
std::vector<std::byte> shard_blob(store::SnapshotReader& reader,
                                  std::uint64_t shard,
                                  const std::string& path) {
  store::Snapshot snap = reader.read_shard(shard);
  if (snap.columns.size() != 1) {
    throw store::StoreError(store::StoreErrc::kSchemaMismatch, path,
                            "engine checkpoint shard " +
                                std::to_string(shard) + " carries " +
                                std::to_string(snap.columns.size()) +
                                " columns, expected 1");
  }
  return std::move(snap.columns[0].data);
}

/// Names a snapshot shard for the lost-shard itemization. `n_shards` is
/// the ClientShard count when the run header survived, 0 when unknown.
std::string shard_name(std::uint64_t shard, std::uint32_t n_shards,
                       bool replication) {
  if (shard == 0) return "run header";
  if (n_shards > 0 && replication && shard == 1ull + n_shards) {
    return "quorum state";
  }
  return "engine shard " + std::to_string(shard - 1);
}

}  // namespace

void write_checkpoint(const std::string& path, const CheckpointMeta& meta,
                      std::span<const ClientShard> shards,
                      const QuorumCoordinator* coordinator,
                      store::FileSystem* fs) {
  if (meta.replication.enabled != (coordinator != nullptr)) {
    throw std::logic_error(
        "write_checkpoint: coordinator must be present exactly when "
        "replication is enabled");
  }
  if (shards.size() != meta.n_shards) {
    throw std::logic_error("write_checkpoint: meta.n_shards disagrees with "
                           "the shard span");
  }

  store::WriterOptions opts;
  opts.fs = fs;
  store::SnapshotWriter writer(path, store::kEngineStateKind,
                               store::engine_state_schema(), opts);
  std::vector<std::byte> blob;
  const auto append = [&writer, &blob] {
    const std::array<std::span<const std::byte>, 1> cols{
        std::span<const std::byte>(blob)};
    writer.append_shard(cols, blob.size());
    blob.clear();
  };

  StateWriter header(blob);
  meta_fields(meta, header);
  append();
  for (const ClientShard& shard : shards) {
    shard.serialize_state(blob);
    append();
  }
  if (coordinator) {
    coordinator->serialize_state(blob);
    append();
  }
  writer.finish({{"engine.clients", std::to_string(meta.clients_total)},
                 {"engine.shards", std::to_string(meta.n_shards)},
                 {"engine.resume_day", std::to_string(meta.resume_day)}});
}

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  store::SnapshotReader reader(path);
  require_engine_kind(reader, path);
  try {
    return parse_meta(shard_blob(reader, 0, path));
  } catch (const store::StoreError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw store::StoreError(store::StoreErrc::kSchemaMismatch, path,
                            e.what());
  }
}

CheckpointState load_checkpoint(const std::string& path) {
  store::SnapshotReader reader(path);
  require_engine_kind(reader, path);

  // Refusal pass: CRC-walk every block before reconstructing anything.
  // A resume either starts from a bit-perfect checkpoint or not at all.
  const store::SnapshotReader::VerifyResult vr = reader.verify();
  if (!vr.report.footer_intact) {
    throw store::StoreError(
        store::StoreErrc::kFooterCorrupt, path,
        "checkpoint footer damaged — refusing resume (" +
            std::to_string(vr.report.blocks_loaded) + "/" +
            std::to_string(vr.report.blocks_expected) +
            " blocks recoverable by forward scan)");
  }
  if (!vr.report.complete) {
    // Name the lost shards. The run header tells us which snapshot shard
    // is the quorum state — when the header itself survived.
    std::uint32_t n_shards = 0;
    bool replication = false;
    bool header_lost = false;
    for (const store::LostBlock& lost : vr.report.lost) {
      if (lost.shard == 0) header_lost = true;
    }
    if (!header_lost) {
      try {
        const CheckpointMeta meta = parse_meta(shard_blob(reader, 0, path));
        n_shards = meta.n_shards;
        replication = meta.replication.enabled;
      } catch (...) {
        // Itemize generically; the damage report is what matters.
      }
    }
    std::string lost_names;
    for (const store::LostBlock& lost : vr.report.lost) {
      if (!lost_names.empty()) lost_names += ", ";
      lost_names += shard_name(lost.shard, n_shards, replication) + " (" +
                    std::to_string(lost.rows) + " bytes)";
    }
    throw store::StoreError(
        store::StoreErrc::kBlockCorrupt, path,
        "checkpoint damaged — refusing resume; lost " +
            std::to_string(vr.report.lost.size()) + " of " +
            std::to_string(vr.report.blocks_expected) + " blocks: " +
            lost_names);
  }

  try {
    CheckpointState state;
    state.meta = parse_meta(shard_blob(reader, 0, path));
    const CheckpointMeta& meta = state.meta;

    const std::uint64_t expected_shards =
        1ull + meta.n_shards + (meta.replication.enabled ? 1 : 0);
    if (reader.shard_count() != expected_shards) {
      throw std::runtime_error(
          "checkpoint has " + std::to_string(reader.shard_count()) +
          " snapshot shards, run header implies " +
          std::to_string(expected_shards));
    }

    state.shards.reserve(meta.n_shards);
    std::uint64_t restored_clients = 0;
    for (std::uint32_t s = 0; s < meta.n_shards; ++s) {
      const std::vector<std::byte> blob = shard_blob(reader, 1ull + s, path);
      state.shards.emplace_back(meta.params,
                                std::span<const std::byte>(blob));
      restored_clients += state.shards.back().size();
    }
    if (restored_clients != meta.clients_total) {
      throw std::runtime_error(
          "restored shards hold " + std::to_string(restored_clients) +
          " clients, run header says " + std::to_string(meta.clients_total));
    }
    if (meta.replication.enabled) {
      const std::vector<std::byte> blob =
          shard_blob(reader, 1ull + meta.n_shards, path);
      state.coordinator = std::make_unique<QuorumCoordinator>(
          meta.replication, meta.clients_total,
          std::span<const std::byte>(blob));
    }
    return state;
  } catch (const store::StoreError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw store::StoreError(store::StoreErrc::kSchemaMismatch, path,
                            e.what());
  }
}

}  // namespace resmodel::engine
