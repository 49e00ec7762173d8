// Binary columnar snapshot store: crash-safe writer, recovering reader.
//
// A snapshot is a set of named, typed columns over `rows` rows, written
// shard-at-a-time: each append_shard() call emits one checksummed block
// per column, so generators can stream multi-million-host populations
// with bounded memory and readers can stream them back out shard by
// shard. The full on-disk layout and recovery contract are documented in
// src/store/format.h and src/store/README.md.
//
// Failure semantics (the whole point of this layer):
//  - SnapshotWriter publishes through AtomicFileWriter: until finish()
//    returns, the destination file is byte-for-byte untouched; any
//    failure (real or injected) surfaces as a typed StoreError.
//  - SnapshotReader::read_all()/read_shard() are strict: the first
//    damaged byte throws a typed StoreError — no partial or silently
//    wrong data escapes.
//  - SnapshotReader::read_recovering() degrades gracefully: every intact
//    block loads (bit-identical to what was written), every damaged one
//    is zero-filled and itemized in the ReadReport — exact lost-block
//    accounting, never a silently wrong value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/format.h"
#include "store/io.h"

namespace resmodel::store {

/// Name + element type of one column.
struct ColumnSpec {
  std::string name;
  DType dtype = DType::kF64;

  bool operator==(const ColumnSpec&) const = default;
};

/// One materialized column: `rows` elements of `spec.dtype`, stored as
/// raw little-endian bytes.
struct Column {
  ColumnSpec spec;
  std::uint64_t rows = 0;
  std::vector<std::byte> data;

  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(data.data()), data.size() / sizeof(T)};
  }
};

/// A fully materialized snapshot (or one shard of one).
struct Snapshot {
  std::string kind;  ///< adapter tag, e.g. "trace.v1" (see store/adapters.h)
  std::uint64_t rows = 0;
  std::vector<Column> columns;
  std::vector<std::pair<std::string, std::string>> metadata;

  const Column* find(std::string_view name) const noexcept;
};

/// One damaged (or missing) block in a recovering read / verify walk.
struct LostBlock {
  std::uint32_t column = 0;   ///< schema index
  std::uint64_t shard = 0;
  std::uint64_t rows = 0;     ///< rows the block carried (0 when unknown)
  StoreErrc reason = StoreErrc::kBlockCorrupt;
};

/// Exact accounting of a recovering read or a verify walk.
struct ReadReport {
  bool complete = true;        ///< every expected block loaded intact
  bool footer_intact = true;   ///< false: forward-scan recovery was used
  std::uint64_t blocks_expected = 0;  ///< footer count, or recovered count
                                      ///< when the footer itself was lost
  std::uint64_t blocks_loaded = 0;
  std::uint64_t rows_lost = 0;        ///< sum over lost blocks of each
                                      ///< block's rows (block-level, so one
                                      ///< lost shard counts once per column)
  std::uint64_t tail_bytes_unscanned = 0;  ///< bytes after the point where a
                                           ///< footerless forward scan died
  std::vector<LostBlock> lost;
};

struct WriterOptions {
  /// Substitute filesystem (fault injection); nullptr = the real one.
  FileSystem* fs = nullptr;
};

/// Streaming writer. Usage:
///   SnapshotWriter w(path, "population.v1", schema);
///   for each shard: w.append_shard(column_byte_spans, shard_rows);
///   w.finish(metadata);
/// finish() is the only call that can publish; destruction without it
/// removes the .tmp and leaves any previous file at `path` untouched.
class SnapshotWriter {
 public:
  /// Validates the schema (non-empty, unique names) and the host's
  /// endianness (little-endian required — checked at write time so a
  /// port to a big-endian host fails loudly at the first write, not with
  /// byte-swapped files), then opens `<path>.tmp` and writes the header.
  SnapshotWriter(std::string path, std::string kind,
                 std::vector<ColumnSpec> schema, WriterOptions opts = {});

  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Appends one shard: `columns[i]` holds `rows` elements of
  /// `schema()[i]`'s dtype as raw bytes, in schema order. Throws
  /// StoreError(kInvalidArgument) on shape mismatch.
  void append_shard(std::span<const std::span<const std::byte>> columns,
                    std::uint64_t rows);

  /// Footer + trailer + fsync + atomic rename.
  void finish(
      std::vector<std::pair<std::string, std::string>> metadata = {});

  const std::vector<ColumnSpec>& schema() const noexcept { return schema_; }
  std::uint64_t rows_written() const noexcept { return rows_; }
  std::uint64_t shards_written() const noexcept { return shards_; }

  /// Running CRC32C of each column's payload bytes across shards — the
  /// logical content digest `resmodel pack/unpack` compare (and
  /// SnapshotReader recomputes) to prove bit-identical round trips.
  const std::vector<std::uint32_t>& column_digests() const noexcept {
    return digests_;
  }

 private:
  struct BlockRecord {
    std::uint32_t column;
    std::uint64_t shard;
    std::uint64_t offset;
    std::uint64_t rows;
    std::uint64_t payload_bytes;
    std::uint32_t crc;
  };

  std::string kind_;
  std::vector<ColumnSpec> schema_;
  FileSystem* fs_;
  AtomicFileWriter file_;
  std::vector<BlockRecord> blocks_;
  std::vector<std::uint32_t> digests_;
  std::uint64_t rows_ = 0;
  std::uint64_t shards_ = 0;
  bool finished_ = false;
};

/// Convenience: one-shot single-shard write of a materialized snapshot.
void write_snapshot_file(const std::string& path, const Snapshot& snapshot,
                         WriterOptions opts = {});

/// Reader. The constructor validates the fixed-size header frame (magic,
/// version, endian tag, schema checksum) and probes the footer; it
/// throws typed StoreErrors for an unopenable file or a damaged header,
/// but a damaged/absent footer is NOT fatal to construction — strict
/// reads will then throw kFooterCorrupt/kTruncated while
/// read_recovering() falls back to a forward block scan. Every read goes
/// through pread(2) and changes no member, so the const methods are safe
/// to call from several threads at once (engine/checkpoint reads its
/// shards in parallel). Each block's payload is read once and checksummed
/// once: the block CRC and the column digest are both derived from the
/// payload's own CRC with util::crc32c_combine.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string path);
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  const std::string& kind() const noexcept { return kind_; }
  const std::vector<ColumnSpec>& schema() const noexcept { return schema_; }
  bool footer_intact() const noexcept { return footer_intact_; }

  /// Totals from the footer. Throw the footer's damage (typed) when it
  /// could not be loaded.
  std::uint64_t rows() const;
  std::uint64_t shard_count() const;
  std::vector<std::pair<std::string, std::string>> metadata() const;

  /// Strict whole-file read: any damage throws a typed StoreError.
  Snapshot read_all() const;

  /// Strict single-shard read (bounded-RSS streaming). Requires an
  /// intact footer.
  Snapshot read_shard(std::uint64_t shard) const;

  /// Graceful degradation: loads every intact block, zero-fills and
  /// itemizes the rest. Only throws for faults outside the recovery
  /// contract (the file vanishing mid-read).
  Snapshot read_recovering(ReadReport& report) const;

  /// Checksum walk of every block without materializing columns.
  /// `column_digests[i]` is the chained payload CRC32C of column i —
  /// comparable against SnapshotWriter::column_digests() — valid only
  /// for columns with no lost blocks (position holds 0 otherwise).
  struct VerifyResult {
    ReadReport report;
    std::vector<std::uint32_t> column_digests;
    std::vector<bool> column_intact;
  };
  VerifyResult verify() const;

 private:
  struct BlockRef {
    std::uint32_t column;
    std::uint64_t shard;
    std::uint64_t offset;
    std::uint64_t rows;
    std::uint64_t payload_bytes;
    std::uint32_t crc;
  };

  void load_header();
  void probe_footer();
  /// Footerless fallback: walk blocks forward from the header, CRC each.
  std::vector<BlockRef> scan_blocks(ReadReport& report) const;
  /// n bytes at offset; false if they are not all in the file.
  bool read_at(std::uint64_t offset, void* out, std::size_t n) const;
  /// Reads and checks one block; `payload_crc` is CRC32C of the payload.
  bool block_payload(const BlockRef& ref, std::vector<std::byte>& out,
                     std::uint32_t& payload_crc) const;

  std::string path_;
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t data_begin_ = 0;  ///< first byte after the header frame

  std::string kind_;
  std::vector<ColumnSpec> schema_;

  bool footer_intact_ = false;
  StoreErrc footer_errc_ = StoreErrc::kTruncated;
  std::string footer_detail_;
  std::uint64_t rows_ = 0;
  std::uint64_t shards_ = 0;
  std::vector<BlockRef> blocks_;  ///< from the footer, when intact
  std::vector<std::pair<std::string, std::string>> metadata_;
};

}  // namespace resmodel::store
