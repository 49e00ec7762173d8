// Crash-safe checkpoint/resume of a service-engine run.
//
// A checkpoint is an engine_state.v1 snapshot (store/adapters.h): one
// self-framed byte blob per snapshot shard —
//
//   snapshot shard 0                the run header (CheckpointMeta)
//   snapshot shards 1..S            the S ClientShards' complete state
//   snapshot shard S+1 (quorum)     the QuorumCoordinator, when the run
//                                   has the replication overlay
//
// — written shard-at-a-time through store::SnapshotWriter, which
// publishes via AtomicFileWriter: until finish() commits, the previous
// checkpoint at `path` is byte-for-byte untouched, so an injected (or
// real) ENOSPC / EIO / crash during a checkpoint write can never damage
// the last published one.
//
// Checkpoints are only taken at day barriers (see src/engine/README.md
// for why that makes the captured state consistent, replication
// included). The headline contract, proven by tests/engine/
// checkpoint_test.cpp: a run checkpointed at day d, killed, and resumed
// produces bit-identical final counters, trace records and per-client
// accounts to an uninterrupted run.
//
// load_checkpoint refuses damaged files: it checks every block's CRC32C
// once, returns nothing unless all of them pass, and throws a typed
// StoreError itemizing exactly which shards were lost — a corrupted
// checkpoint can abort a resume, never silently diverge it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/client_shard.h"
#include "engine/quorum.h"
#include "store/io.h"

namespace resmodel::engine {

/// The run header: everything a resume needs beyond the shard blobs.
/// `params`/`replication` reconstruct behaviour, `resume_day` is the
/// first virtual day the resumed run simulates, and the display_* /
/// cohort_* / seed fields carry provenance for `resmodel serve --resume`
/// output (so a resumed run prints the same deterministic block as an
/// uninterrupted one).
struct CheckpointMeta {
  ShardParams params;
  sim::ReplicationConfig replication;
  std::uint64_t clients_total = 0;
  std::uint32_t n_shards = 0;   ///< actual ClientShard count
  std::int32_t first_day = 0;   ///< first day of the whole run
  std::int32_t resume_day = 0;  ///< next day to simulate

  std::uint32_t display_shards = 1;  ///< the configured --shards value
  std::uint64_t cohort_clients = 0;
  double cohort_horizon_days = 0.0;
  std::uint64_t seed = 0;
};

/// A fully reconstructed run, ready to continue the drain.
struct CheckpointState {
  CheckpointMeta meta;
  std::vector<ClientShard> shards;
  /// Non-null iff meta.replication.enabled.
  std::unique_ptr<QuorumCoordinator> coordinator;
};

/// Serializes the run into `path` (atomically: <path>.tmp + rename).
/// `coordinator` must be non-null iff meta.replication.enabled.
/// `fs` substitutes the filesystem (store fault injection); nullptr uses
/// the real one. Throws StoreError on any I/O failure — with the
/// previous file at `path` untouched. `threads` (<= 0: the hardware
/// concurrency, util::resolve_threads) bounds the threads it uses: the
/// calling thread appends the blobs in order while, from 2 threads on, a
/// second one encodes the next blob over the other `threads - 1`, so at
/// most two blobs are alive. 1 runs everything on the calling thread.
/// The file's bytes do not depend on `threads`.
void write_checkpoint(const std::string& path, const CheckpointMeta& meta,
                      std::span<const ClientShard> shards,
                      const QuorumCoordinator* coordinator,
                      store::FileSystem* fs = nullptr, int threads = 0);

/// Reads only the run header (cheap: one shard). Used by the CLI to
/// print the resumed run's provenance line.
CheckpointMeta read_checkpoint_meta(const std::string& path);

/// Reconstructs the shards and coordinator. The run header is parsed
/// first; then every other block is read and CRC-checked once, on up to
/// `threads` workers (<= 0: the hardware concurrency) that each hold one
/// blob, and a shard is decoded as soon as its own block has passed.
/// Returns only if every block passed. Throws StoreError, in this order:
/// kSchemaMismatch for a snapshot of another kind, kFooterCorrupt for a
/// damaged footer, kBlockCorrupt with every lost block itemized
/// ("refusing resume; lost 1 of 10 blocks: engine shard 3 (… bytes)"),
/// then kSchemaMismatch for a blob in the wrong format (the lowest blob
/// index first), so no message depends on thread timing.
CheckpointState load_checkpoint(const std::string& path, int threads = 0);

}  // namespace resmodel::engine
