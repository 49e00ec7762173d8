#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "engine/checkpoint.h"
#include "store/adapters.h"
#include "store/format.h"
#include "util/checksum.h"

namespace resmodel::store {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

template <typename T>
std::span<const std::byte> bytes_of(const std::vector<T>& v) {
  return std::as_bytes(std::span<const T>(v));
}

/// Two-column, two-shard fixture everyone reuses.
struct Fixture {
  std::vector<double> x0{1.0, 2.5, -3.25};
  std::vector<std::int32_t> y0{7, -8, 9};
  std::vector<double> x1{4.0, 5.5};
  std::vector<std::int32_t> y1{10, 11};

  std::vector<ColumnSpec> schema() const {
    return {{"x", DType::kF64}, {"y", DType::kI32}};
  }

  void write(const std::string& path,
             std::vector<std::pair<std::string, std::string>> meta = {}) const {
    SnapshotWriter writer(path, "test.v1", schema());
    const std::vector<std::span<const std::byte>> shard0 = {bytes_of(x0),
                                                            bytes_of(y0)};
    writer.append_shard(shard0, x0.size());
    const std::vector<std::span<const std::byte>> shard1 = {bytes_of(x1),
                                                            bytes_of(y1)};
    writer.append_shard(shard1, x1.size());
    writer.finish(std::move(meta));
  }
};

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

StoreErrc reader_errc(const std::string& path) {
  try {
    SnapshotReader reader(path);
  } catch (const StoreError& e) {
    return e.errc();
  }
  ADD_FAILURE() << "SnapshotReader(" << path << ") did not throw";
  return StoreErrc::kInvalidArgument;
}

TEST(Snapshot, RoundTripsTwoShards) {
  const std::string path = temp_path("rt.snap");
  Fixture fx;
  fx.write(path, {{"origin", "unit-test"}});

  SnapshotReader reader(path);
  EXPECT_EQ(reader.kind(), "test.v1");
  EXPECT_TRUE(reader.footer_intact());
  EXPECT_EQ(reader.rows(), 5u);
  EXPECT_EQ(reader.shard_count(), 2u);
  ASSERT_EQ(reader.schema().size(), 2u);
  EXPECT_EQ(reader.schema()[0].name, "x");
  EXPECT_EQ(reader.schema()[1].dtype, DType::kI32);
  ASSERT_EQ(reader.metadata().size(), 1u);
  EXPECT_EQ(reader.metadata()[0].second, "unit-test");

  const Snapshot snap = reader.read_all();
  EXPECT_EQ(snap.rows, 5u);
  const Column* x = snap.find("x");
  ASSERT_NE(x, nullptr);
  const std::span<const double> xs = x->as<double>();
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_EQ(xs[0], 1.0);
  EXPECT_EQ(xs[3], 4.0);
  const Column* y = snap.find("y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->as<std::int32_t>()[4], 11);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Snapshot, ShardReadsStreamIndependently) {
  const std::string path = temp_path("shards.snap");
  Fixture fx;
  fx.write(path);
  SnapshotReader reader(path);
  const Snapshot s0 = reader.read_shard(0);
  const Snapshot s1 = reader.read_shard(1);
  EXPECT_EQ(s0.rows, 3u);
  EXPECT_EQ(s1.rows, 2u);
  EXPECT_EQ(s1.find("x")->as<double>()[1], 5.5);
  EXPECT_THROW(reader.read_shard(2), StoreError);
}

TEST(Snapshot, WriterDigestsMatchReaderVerify) {
  const std::string path = temp_path("digest.snap");
  Fixture fx;
  std::vector<std::uint32_t> writer_digests;
  {
    SnapshotWriter writer(path, "test.v1", fx.schema());
    const std::vector<std::span<const std::byte>> shard0 = {bytes_of(fx.x0),
                                                            bytes_of(fx.y0)};
    writer.append_shard(shard0, fx.x0.size());
    const std::vector<std::span<const std::byte>> shard1 = {bytes_of(fx.x1),
                                                            bytes_of(fx.y1)};
    writer.append_shard(shard1, fx.x1.size());
    writer.finish();
    writer_digests = writer.column_digests();
  }
  SnapshotReader reader(path);
  const SnapshotReader::VerifyResult v = reader.verify();
  EXPECT_TRUE(v.report.complete);
  ASSERT_EQ(v.column_digests.size(), 2u);
  EXPECT_EQ(v.column_digests, writer_digests);

  // And they equal a direct CRC over the concatenated column bytes.
  std::vector<double> all_x = fx.x0;
  all_x.insert(all_x.end(), fx.x1.begin(), fx.x1.end());
  EXPECT_EQ(v.column_digests[0],
            util::crc32c(all_x.data(), all_x.size() * sizeof(double)));
}

TEST(Snapshot, DigestsEqualADirectCrcOverEachColumnsPayload) {
  // Shards of 1, 2500 and 7000 rows put single blocks on both sides of
  // the three-chain CRC threshold. The writer and verify() both derive
  // the digest by combining per-block CRCs, so they are held to one
  // direct CRC over the concatenated payload, not only to each other.
  const std::string path = temp_path("digest_direct.snap");
  std::vector<double> all_x;
  std::vector<std::int32_t> all_y;
  std::vector<std::uint32_t> writer_digests;
  {
    SnapshotWriter writer(path, "test.v1", Fixture().schema());
    for (const std::size_t rows : {1u, 2500u, 7000u}) {
      std::vector<double> x(rows);
      std::vector<std::int32_t> y(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        x[i] = 0.5 * static_cast<double>(all_x.size() + i) - 7.0;
        y[i] = static_cast<std::int32_t>((all_y.size() + i) * 2654435761u);
      }
      const std::vector<std::span<const std::byte>> cols = {bytes_of(x),
                                                            bytes_of(y)};
      writer.append_shard(cols, rows);
      all_x.insert(all_x.end(), x.begin(), x.end());
      all_y.insert(all_y.end(), y.begin(), y.end());
    }
    writer.finish();
    writer_digests = writer.column_digests();
  }
  const std::vector<std::uint32_t> direct = {
      util::crc32c(all_x.data(), all_x.size() * sizeof(double)),
      util::crc32c(all_y.data(), all_y.size() * sizeof(std::int32_t))};
  EXPECT_EQ(writer_digests, direct);
  const SnapshotReader::VerifyResult v = SnapshotReader(path).verify();
  EXPECT_TRUE(v.report.complete);
  EXPECT_EQ(v.column_digests, direct);
}

TEST(Snapshot, EmptySnapshotRoundTrips) {
  const std::string path = temp_path("empty.snap");
  {
    SnapshotWriter writer(path, "test.v1",
                          {{"x", DType::kF64}, {"y", DType::kI32}});
    writer.finish();
  }
  SnapshotReader reader(path);
  EXPECT_EQ(reader.rows(), 0u);
  EXPECT_EQ(reader.shard_count(), 0u);
  const Snapshot snap = reader.read_all();
  EXPECT_EQ(snap.rows, 0u);
  ASSERT_EQ(snap.columns.size(), 2u);
  EXPECT_TRUE(snap.columns[0].data.empty());
}

TEST(Snapshot, WriterRejectsBadShapes) {
  const std::string path = temp_path("shapes.snap");
  EXPECT_THROW(SnapshotWriter(path, "test.v1", {}), StoreError);
  EXPECT_THROW(SnapshotWriter(path, "test.v1",
                              {{"x", DType::kF64}, {"x", DType::kI32}}),
               StoreError);

  SnapshotWriter writer(path, "test.v1", {{"x", DType::kF64}});
  std::vector<double> xs{1.0, 2.0};
  // Wrong column count.
  std::vector<std::span<const std::byte>> none;
  EXPECT_THROW(writer.append_shard(none, 2), StoreError);
  // Byte length disagrees with rows * dtype size.
  const std::vector<std::span<const std::byte>> cols = {bytes_of(xs)};
  EXPECT_THROW(writer.append_shard(cols, 3), StoreError);
}

TEST(Snapshot, UnfinishedWriterLeavesNoFile) {
  const std::string path = temp_path("abandoned.snap");
  std::remove(path.c_str());
  {
    SnapshotWriter writer(path, "test.v1", {{"x", DType::kF64}});
    std::vector<double> xs{1.0};
    const std::vector<std::span<const std::byte>> cols = {bytes_of(xs)};
    writer.append_shard(cols, 1);
    // No finish(): destruction must clean up.
  }
  std::ifstream dest(path);
  EXPECT_FALSE(dest.good());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

// --- header rejection -------------------------------------------------------

TEST(SnapshotHeader, RejectsBadMagic) {
  const std::string path = temp_path("badmagic.snap");
  Fixture().write(path);
  std::vector<unsigned char> bytes = slurp(path);
  bytes[0] ^= 0xff;
  spit(path, bytes);
  EXPECT_EQ(reader_errc(path), StoreErrc::kBadMagic);
}

TEST(SnapshotHeader, RejectsNonSnapshotFile) {
  const std::string path = temp_path("notasnap.snap");
  std::ofstream(path) << "id,created_day\n1,2\n";
  EXPECT_EQ(reader_errc(path), StoreErrc::kBadMagic);
}

TEST(SnapshotHeader, RejectsFutureVersion) {
  const std::string path = temp_path("future.snap");
  Fixture().write(path);
  std::vector<unsigned char> bytes = slurp(path);
  // Version is the u32 right after the 8-byte magic.
  std::uint32_t version;
  std::memcpy(&version, bytes.data() + 8, 4);
  ASSERT_EQ(version, kFormatVersion);
  version = kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &version, 4);
  spit(path, bytes);
  EXPECT_EQ(reader_errc(path), StoreErrc::kBadVersion);
}

TEST(SnapshotHeader, RejectsForeignEndianness) {
  const std::string path = temp_path("endian.snap");
  Fixture().write(path);
  std::vector<unsigned char> bytes = slurp(path);
  // Endian tag is the u32 after magic + version. Our host wrote
  // 0x01020304 natively; byte-reverse the field to fake a big-endian
  // origin.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  spit(path, bytes);
  EXPECT_EQ(reader_errc(path), StoreErrc::kBadEndianness);
}

TEST(SnapshotHeader, WriteTimeEndianGuard) {
  // The writer asserts the host is little-endian at write time; on the
  // x86/ARM64 hosts this suite runs on, the first header byte after a
  // successful write must therefore be the LSB of the magic ("R").
  const std::string path = temp_path("endianguard.snap");
  Fixture().write(path);
  const std::vector<unsigned char> bytes = slurp(path);
  ASSERT_GE(bytes.size(), 16u);
  EXPECT_EQ(bytes[0], 'R');
  EXPECT_EQ(bytes[15], 0x01);  // MSB of the 0x01020304 tag written LE
}

TEST(SnapshotHeader, RejectsTruncationInsideHeader) {
  const std::string path = temp_path("tinyheader.snap");
  Fixture().write(path);
  std::vector<unsigned char> bytes = slurp(path);
  bytes.resize(10);
  spit(path, bytes);
  EXPECT_EQ(reader_errc(path), StoreErrc::kTruncated);
}

TEST(SnapshotHeader, RejectsHeaderBitFlip) {
  const std::string path = temp_path("hdrflip.snap");
  Fixture().write(path);
  std::vector<unsigned char> bytes = slurp(path);
  bytes[20] ^= 0x10;  // inside the kind/column table region
  spit(path, bytes);
  const StoreErrc errc = reader_errc(path);
  EXPECT_TRUE(errc == StoreErrc::kHeaderCorrupt ||
              errc == StoreErrc::kSchemaMismatch)
      << to_string(errc);
}

// --- footer damage ----------------------------------------------------------

TEST(SnapshotFooter, TruncatedFooterFailsStrictButRecovers) {
  const std::string path = temp_path("tornfooter.snap");
  Fixture fx;
  fx.write(path);
  std::vector<unsigned char> bytes = slurp(path);
  bytes.resize(bytes.size() - kTrailerBytes - 3);  // tear trailer + footer tail
  spit(path, bytes);

  SnapshotReader reader(path);  // header is fine -> construction succeeds
  EXPECT_FALSE(reader.footer_intact());
  EXPECT_THROW(reader.rows(), StoreError);
  EXPECT_THROW(reader.read_all(), StoreError);

  ReadReport report;
  const Snapshot snap = reader.read_recovering(report);
  EXPECT_FALSE(report.footer_intact);
  EXPECT_FALSE(report.complete);  // totality is unprovable without a footer
  EXPECT_EQ(report.blocks_loaded, 4u);  // all 4 data blocks survive the scan
  EXPECT_EQ(snap.rows, 5u);
  EXPECT_EQ(snap.find("x")->as<double>()[4], 5.5);
}

TEST(SnapshotFooter, MetadataThrowsTypedErrorWhenFooterLost) {
  const std::string path = temp_path("nofootermeta.snap");
  Fixture().write(path);
  std::vector<unsigned char> bytes = slurp(path);
  bytes.resize(bytes.size() - 1);
  spit(path, bytes);
  SnapshotReader reader(path);
  try {
    (void)reader.metadata();
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_TRUE(e.errc() == StoreErrc::kTruncated ||
                e.errc() == StoreErrc::kFooterCorrupt)
        << to_string(e.errc());
  }
}

// --- footer entries whose bounds would wrap around 2^64 -------------------

std::uint64_t get_u64(const std::vector<unsigned char>& b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, 8);
  return v;
}

void put_u64(std::vector<unsigned char>& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, 8);
}

/// Footer: u64 rows, u64 shards, u32 blocks, u32 metadata entries, then
/// per block u32 column, u64 shard, u64 offset, u64 rows, u64 payload.
std::size_t first_footer_entry(const std::vector<unsigned char>& b) {
  return get_u64(b, b.size() - kTrailerBytes) + 24;
}

/// The payload length at which the first block's frame end,
/// offset + 32 + payload + 8, wraps to exactly 2^64.
std::uint64_t wrapping_payload(const std::string& path) {
  const std::vector<unsigned char> b = slurp(path);
  return 0 - (get_u64(b, first_footer_entry(b) + 12) + kBlockHeaderBytes + 8);
}

/// Rewrites the first block's row and payload counts, in its footer entry
/// and in its block header, and the footer's total rows; then recomputes
/// the footer CRC so that only the bounds checks stand between the file
/// and a reader.
void craft_first_block(const std::string& path, std::uint64_t rows,
                       std::uint64_t payload_bytes) {
  std::vector<unsigned char> b = slurp(path);
  const std::size_t trailer = b.size() - kTrailerBytes;
  const std::size_t footer = get_u64(b, trailer);
  std::uint32_t footer_len = 0;
  std::memcpy(&footer_len, b.data() + trailer + 8, 4);
  const std::size_t entry = first_footer_entry(b);
  const std::uint64_t offset = get_u64(b, entry + 12);
  put_u64(b, footer, rows);
  put_u64(b, entry + 20, rows);
  put_u64(b, entry + 28, payload_bytes);
  // Block header: u32 magic, u32 column, u64 shard, u64 rows, u64 payload.
  put_u64(b, offset + 16, rows);
  put_u64(b, offset + 24, payload_bytes);
  const std::uint32_t crc = util::crc32c(b.data() + footer, footer_len);
  std::memcpy(b.data() + trailer + 12, &crc, 4);
  spit(path, b);
}

/// A one-column, one-shard snapshot of `payload` bytes of `dtype`.
void write_one_block(const std::string& path, const char* kind, DType dtype,
                     std::size_t payload) {
  const std::vector<std::byte> bytes(payload, std::byte{0x5a});
  SnapshotWriter writer(path, kind, {{"c", dtype}});
  const std::vector<std::span<const std::byte>> cols = {bytes};
  writer.append_shard(cols, payload / dtype_size(dtype));
  writer.finish();
}

void expect_footer_refused(const std::string& path) {
  const SnapshotReader reader(path);
  EXPECT_FALSE(reader.footer_intact());
  try {
    (void)reader.read_all();
    ADD_FAILURE() << "read_all accepted a wrapping block";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.errc(), StoreErrc::kFooterCorrupt) << e.what();
  }
  EXPECT_FALSE(reader.verify().report.footer_intact);
}

TEST(SnapshotFooter, RefusesBlockBoundsThatWrapAround2To64) {
  // rows = payload = 2^64 - (offset + 40): the frame end wraps to 0,
  // which passes an unguarded "<= footer offset".
  const std::string path = temp_path("wrap_bound.snap");
  write_one_block(path, "test.v1", DType::kU8, 16);
  const std::uint64_t wrapped = wrapping_payload(path);
  craft_first_block(path, wrapped, wrapped);
  expect_footer_refused(path);
}

TEST(SnapshotFooter, RefusesRowCountsWhoseByteSizeWraps) {
  // 2^61 + 2 rows of u64 are 2^64 + 16 bytes: an unguarded
  // rows * dtype_size says 16, which is what the block holds.
  const std::string path = temp_path("wrap_rows.snap");
  write_one_block(path, "test.v1", DType::kU64, 16);
  craft_first_block(path, (std::uint64_t{1} << 61) + 2, 16);
  expect_footer_refused(path);
}

TEST(SnapshotFooter, CheckpointLoadRefusesAWrappingBlockTyped) {
  const std::string path = temp_path("wrap_engine.snap");
  write_one_block(path, kEngineStateKind, DType::kU8, 16);
  const std::uint64_t wrapped = wrapping_payload(path);
  craft_first_block(path, wrapped, wrapped);
  EXPECT_THROW(engine::load_checkpoint(path), StoreError);
}

TEST(Snapshot, MissingFileThrowsCannotOpen) {
  EXPECT_EQ(reader_errc(temp_path("never_written.snap")),
            StoreErrc::kCannotOpen);
}

}  // namespace
}  // namespace resmodel::store
