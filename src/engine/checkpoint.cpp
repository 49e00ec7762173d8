#include "engine/checkpoint.h"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/state_codec.h"
#include "store/adapters.h"
#include "store/snapshot.h"
#include "util/parallel.h"

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
std::vector<std::byte> shard_blob(const store::SnapshotReader& reader,
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
                      store::FileSystem* fs, int threads) {
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
  // Blob b is the run header (0), ClientShard b-1, or the quorum state.
  const std::size_t n_blobs = 1 + shards.size() + (coordinator ? 1 : 0);
  const auto encode = [&](std::size_t b, std::vector<std::byte>& out) {
    out.clear();
    if (b == 0) {
      encode_blob(out, [&](auto& io) { meta_fields(meta, io); });
    } else if (b <= shards.size()) {
      shards[b - 1].serialize_state(out);
    } else {
      coordinator->serialize_state(out);
    }
  };

  // Two blobs alive at most: while the calling thread appends blob b (the
  // only thread that touches the file, in blob order, so byte-offset
  // faults keep their meaning), a second thread encodes blob b+1. A blob
  // takes longer to encode than to append, so the encoding thread spreads
  // its column copies over every worker but the appending one.
  const int workers = util::resolve_threads(threads);
  const bool overlap = workers > 1;
  std::array<std::vector<std::byte>, 2> blobs;
  encode(0, blobs[0]);
  for (std::size_t b = 0; b < n_blobs; ++b) {
    std::exception_ptr encode_error;
    const auto encode_next = [&]() noexcept {
      if (b + 1 == n_blobs) return;
      try {
        const ColumnWorkers spread(overlap ? workers - 1 : 1);
        encode(b + 1, blobs[(b + 1) % 2]);
      } catch (...) {
        encode_error = std::current_exception();
      }
    };
    {
      std::jthread encoder;
      if (overlap) encoder = std::jthread(encode_next);
      const std::vector<std::byte>& blob = blobs[b % 2];
      const std::array<std::span<const std::byte>, 1> cols{
          std::span<const std::byte>(blob)};
      writer.append_shard(cols, blob.size());
      if (!overlap) encode_next();
    }
    if (encode_error) std::rethrow_exception(encode_error);
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

CheckpointState load_checkpoint(const std::string& path, int threads) {
  store::SnapshotReader reader(path);
  require_engine_kind(reader, path);
  if (!reader.footer_intact()) {
    // The forward scan only counts what is left, for the message.
    const store::SnapshotReader::VerifyResult vr = reader.verify();
    throw store::StoreError(
        store::StoreErrc::kFooterCorrupt, path,
        "checkpoint footer damaged — refusing resume (" +
            std::to_string(vr.report.blocks_loaded) + "/" +
            std::to_string(vr.report.blocks_expected) +
            " blocks recoverable by forward scan)");
  }

  // The run header first: it says what the other blobs are. Then every
  // other block is read and CRC-checked once, on up to `threads` workers
  // that each hold one blob, and a blob is decoded as soon as its own
  // block has passed. Nothing is returned unless every block passed, and
  // the refusals keep their order whatever the thread timing: every lost
  // block, itemized by a verify walk, then the format mismatch of the
  // lowest blob index.
  const std::uint64_t n_blobs = reader.shard_count();
  // What reading or decoding blob b threw. Slot 0 exists even in a file
  // without shards: it holds that refusal.
  std::vector<std::exception_ptr> errors(std::max<std::uint64_t>(n_blobs, 1));

  CheckpointState state;
  const CheckpointMeta& meta = state.meta;
  bool header_ok = false;
  try {
    state.meta = parse_meta(shard_blob(reader, 0, path));
    header_ok = true;
  } catch (...) {
    errors[0] = std::current_exception();
  }
  const std::uint64_t expected_blobs =
      1ull + meta.n_shards + (meta.replication.enabled ? 1 : 0);
  const bool decode = header_ok && n_blobs == expected_blobs;
  std::vector<std::optional<ClientShard>> slots(decode ? meta.n_shards : 0);
  if (n_blobs > 1) {
    // Jobs run in claim order, last blob first: the quorum state, when
    // there is one, is the slowest decode, so it must not start last.
    util::parallel_for(n_blobs - 1, threads, [&](std::size_t job) {
      const std::uint64_t b = n_blobs - 1 - job;
      try {
        const std::vector<std::byte> blob = shard_blob(reader, b, path);
        if (!decode) return;
        if (b <= meta.n_shards) {
          slots[b - 1].emplace(meta.params, std::span<const std::byte>(blob));
        } else {
          state.coordinator = std::make_unique<QuorumCoordinator>(
              meta.replication, meta.clients_total,
              std::span<const std::byte>(blob));
        }
      } catch (...) {
        errors[b] = std::current_exception();
      }
    });
  }

  const store::SnapshotReader::VerifyResult vr =
      std::any_of(errors.begin(), errors.end(),
                  [](const std::exception_ptr& e) { return e != nullptr; })
          ? reader.verify()
          : store::SnapshotReader::VerifyResult{};
  if (!vr.report.complete) {
    // Name the lost shards. The run header tells which snapshot shard is
    // the quorum state — when the header itself survived.
    std::string lost_names;
    for (const store::LostBlock& block : vr.report.lost) {
      if (!lost_names.empty()) lost_names += ", ";
      lost_names += shard_name(block.shard, header_ok ? meta.n_shards : 0,
                               header_ok && meta.replication.enabled) +
                    " (" + std::to_string(block.rows) + " bytes)";
    }
    throw store::StoreError(
        store::StoreErrc::kBlockCorrupt, path,
        "checkpoint damaged — refusing resume; lost " +
            std::to_string(vr.report.lost.size()) + " of " +
            std::to_string(vr.report.blocks_expected) + " blocks: " +
            lost_names);
  }

  try {
    const auto rethrow = [&](std::uint64_t b) {
      if (errors[b]) std::rethrow_exception(errors[b]);
    };
    rethrow(0);
    if (!decode) {
      throw std::runtime_error(
          "checkpoint has " + std::to_string(n_blobs) +
          " snapshot shards, run header implies " +
          std::to_string(expected_blobs));
    }
    std::uint64_t restored_clients = 0;
    for (std::uint32_t s = 0; s < meta.n_shards; ++s) {
      rethrow(1ull + s);
      restored_clients += slots[s]->size();
    }
    if (restored_clients != meta.clients_total) {
      throw std::runtime_error(
          "restored shards hold " + std::to_string(restored_clients) +
          " clients, run header says " + std::to_string(meta.clients_total));
    }
    if (meta.replication.enabled) rethrow(1ull + meta.n_shards);
  } catch (const store::StoreError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw store::StoreError(store::StoreErrc::kSchemaMismatch, path,
                            e.what());
  }
  state.shards.reserve(meta.n_shards);
  for (std::optional<ClientShard>& slot : slots) {
    state.shards.push_back(std::move(*slot));
  }
  return state;
}

}  // namespace resmodel::engine
