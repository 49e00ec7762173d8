// Round-trip bit-identity for the TraceStore and GeneratedHostBatch
// snapshot adapters, at 1k and 100k rows. "Bit-identical" is checked
// three ways: element equality after unpack, per-column digest equality
// between two independent writes (determinism), and — for the 1k
// populations — against hard-coded golden digests, so a format or
// serialization change cannot slip through as "still round-trips".
#include "store/adapters.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "store/fault_injection.h"
#include "trace/host_record.h"
#include "util/rng.h"

namespace resmodel::store {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

trace::TraceStore make_trace(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  trace::TraceStore store;
  store.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace::HostRecord h;
    h.id = rng.uniform_index(1u << 30);
    h.created_day = static_cast<std::int32_t>(rng.uniform_index(2000)) - 500;
    h.last_contact_day = h.created_day +
                         static_cast<std::int32_t>(rng.uniform_index(1500));
    h.n_cores = 1 + static_cast<std::int32_t>(rng.uniform_index(8));
    h.memory_mb = 256.0 + static_cast<double>(rng.uniform_index(1u << 24)) /
                              1024.0;
    h.dhrystone_mips = static_cast<double>(rng.uniform_index(1u << 22)) / 3.0;
    h.whetstone_mips = static_cast<double>(rng.uniform_index(1u << 22)) / 7.0;
    h.disk_avail_gb = static_cast<double>(rng.uniform_index(1u << 20)) / 11.0;
    h.disk_total_gb = h.disk_avail_gb * 2.0;
    h.cpu = static_cast<trace::CpuFamily>(
        rng.uniform_index(trace::kCpuFamilyCount));
    h.os =
        static_cast<trace::OsFamily>(rng.uniform_index(trace::kOsFamilyCount));
    h.gpu =
        static_cast<trace::GpuType>(rng.uniform_index(trace::kGpuTypeCount));
    h.gpu_memory_mb = h.gpu == trace::GpuType::kNone
                          ? 0.0
                          : static_cast<double>(rng.uniform_index(4096));
    store.add(h);
  }
  return store;
}

core::GeneratedHostBatch make_population(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  core::GeneratedHostBatch batch;
  batch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.n_cores[i] = 1 + static_cast<int>(rng.uniform_index(16));
    batch.memory_per_core_mb[i] =
        static_cast<double>(rng.uniform_index(1u << 24)) / 512.0;
    batch.memory_mb[i] = batch.memory_per_core_mb[i] * batch.n_cores[i];
    batch.whetstone_mips[i] =
        static_cast<double>(rng.uniform_index(1u << 22)) / 3.0;
    batch.dhrystone_mips[i] =
        static_cast<double>(rng.uniform_index(1u << 22)) / 5.0;
    batch.disk_avail_gb[i] =
        static_cast<double>(rng.uniform_index(1u << 20)) / 13.0;
  }
  return batch;
}

void expect_equal(const trace::TraceStore& a, const trace::TraceStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const trace::HostRecord& x = a.host(i);
    const trace::HostRecord& y = b.host(i);
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.created_day, y.created_day);
    EXPECT_EQ(x.last_contact_day, y.last_contact_day);
    EXPECT_EQ(x.n_cores, y.n_cores);
    // Bit identity, not approximate equality.
    EXPECT_EQ(x.memory_mb, y.memory_mb);
    EXPECT_EQ(x.dhrystone_mips, y.dhrystone_mips);
    EXPECT_EQ(x.whetstone_mips, y.whetstone_mips);
    EXPECT_EQ(x.disk_avail_gb, y.disk_avail_gb);
    EXPECT_EQ(x.disk_total_gb, y.disk_total_gb);
    EXPECT_EQ(x.cpu, y.cpu);
    EXPECT_EQ(x.os, y.os);
    EXPECT_EQ(x.gpu, y.gpu);
    EXPECT_EQ(x.gpu_memory_mb, y.gpu_memory_mb);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at row " << i;
    }
  }
}

void expect_equal(const core::GeneratedHostBatch& a,
                  const core::GeneratedHostBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.n_cores, b.n_cores);
  EXPECT_EQ(a.memory_per_core_mb, b.memory_per_core_mb);
  EXPECT_EQ(a.memory_mb, b.memory_mb);
  EXPECT_EQ(a.whetstone_mips, b.whetstone_mips);
  EXPECT_EQ(a.dhrystone_mips, b.dhrystone_mips);
  EXPECT_EQ(a.disk_avail_gb, b.disk_avail_gb);
}

class AdaptersRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdaptersRoundTrip, TraceBitIdentity) {
  const std::size_t n = GetParam();
  const trace::TraceStore store = make_trace(n, 0x77ace + n);
  const std::string path = temp_path("adapter_trace.snap");

  write_trace_snapshot(path, store, /*shard_rows=*/n / 3 + 1);
  const std::string first_bytes = read_file(path);
  const trace::TraceStore loaded = read_trace_snapshot(path);
  expect_equal(store, loaded);

  // Determinism: an independent re-pack produces the identical file.
  write_trace_snapshot(path, store, n / 3 + 1);
  EXPECT_EQ(read_file(path), first_bytes);

  // In-memory pack/unpack agrees with the file path.
  expect_equal(store, unpack_trace(pack_trace(store)));
  std::remove(path.c_str());
}

TEST_P(AdaptersRoundTrip, PopulationBitIdentity) {
  const std::size_t n = GetParam();
  const core::GeneratedHostBatch batch = make_population(n, 0xB47C4 + n);
  const std::string path = temp_path("adapter_pop.snap");

  write_population_snapshot(path, batch, /*shard_rows=*/n / 4 + 1);
  const std::string first_bytes = read_file(path);
  expect_equal(batch, read_population_snapshot(path));

  write_population_snapshot(path, batch, n / 4 + 1);
  EXPECT_EQ(read_file(path), first_bytes);

  expect_equal(batch, unpack_population(pack_population(batch)));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdaptersRoundTrip,
                         ::testing::Values(std::size_t{1000},
                                           std::size_t{100000}),
                         [](const auto& info) {
                           return info.param == 1000 ? "1k" : "100k";
                         });

TEST(Adapters, GoldenDigests1k) {
  // Hard-coded digests of the 1k fixtures. If these change, the on-disk
  // encoding of existing snapshots changed — bump kFormatVersion and
  // write a migration note, don't just update the constants.
  const std::string path = temp_path("golden.snap");
  write_trace_snapshot(path, make_trace(1000, 0x77ace + 1000), 334);
  {
    SnapshotReader reader(path);
    const auto v = reader.verify();
    std::string joined;
    for (const std::uint32_t d : v.column_digests) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x,", d);
      joined += buf;
    }
    EXPECT_EQ(joined,
              "c9bc753e,84784bed,e1bb3480,2896a158,ad83ff2a,61da0211,"
              "247ab7d6,f5920ec0,4bb164fa,c9b7833e,093d373d,1b1a41f3,"
              "9520313d,");
  }
  write_population_snapshot(path, make_population(1000, 0xB47C4 + 1000), 251);
  {
    SnapshotReader reader(path);
    const auto v = reader.verify();
    std::string joined;
    for (const std::uint32_t d : v.column_digests) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x,", d);
      joined += buf;
    }
    EXPECT_EQ(joined, "e3384f8d,37958bcf,fd331e12,32857e73,434aabfe,b55bcf99,");
  }
  std::remove(path.c_str());
}

// --- Format stability -----------------------------------------------------

// tests/store/data/ holds a committed trace.v1 and population.v1 snapshot,
// 24 rows in 3 shards each, written by these calls (make_trace and
// make_population as defined above):
//   write_trace_snapshot("trace_v1.snap", make_trace(24, 0x7ace1),
//                        /*shard_rows=*/10);
//   write_population_snapshot("population_v1.snap",
//                             make_population(24, 0xb47c1),
//                             /*shard_rows=*/10);
// A reader that refuses a fixture or restores other values, or a writer
// that does not reproduce it from what the reader restored, has changed
// the on-disk format.
std::string store_fixture(const char* name) {
  return std::string(RESMODEL_STORE_FIXTURE_DIR) + "/" + name;
}

TEST(Adapters, GoldenTraceFixtureLoadsAndRewrites) {
  const std::string fixture = store_fixture("trace_v1.snap");
  EXPECT_EQ(SnapshotReader(fixture).shard_count(), 3u);
  const trace::TraceStore loaded = read_trace_snapshot(fixture);
  expect_equal(make_trace(24, 0x7ace1), loaded);

  const std::string rewritten = temp_path("trace_v1_rewrite.snap");
  write_trace_snapshot(rewritten, loaded, /*shard_rows=*/10);
  EXPECT_EQ(read_file(rewritten), read_file(fixture));
  std::remove(rewritten.c_str());
}

TEST(Adapters, GoldenPopulationFixtureLoadsAndRewrites) {
  const std::string fixture = store_fixture("population_v1.snap");
  EXPECT_EQ(SnapshotReader(fixture).shard_count(), 3u);
  const core::GeneratedHostBatch loaded = read_population_snapshot(fixture);
  expect_equal(make_population(24, 0xb47c1), loaded);

  const std::string rewritten = temp_path("population_v1_rewrite.snap");
  write_population_snapshot(rewritten, loaded, /*shard_rows=*/10);
  EXPECT_EQ(read_file(rewritten), read_file(fixture));
  std::remove(rewritten.c_str());
}

TEST(Adapters, UnpackRejectsWrongKind) {
  const core::GeneratedHostBatch batch = make_population(10, 1);
  const Snapshot snap = pack_population(batch);
  try {
    unpack_trace(snap);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.errc(), StoreErrc::kSchemaMismatch);
  }
}

TEST(Adapters, UnpackRejectsOutOfRangeEnum) {
  trace::TraceStore store = make_trace(4, 2);
  Snapshot snap = pack_trace(store);
  Column* cpu = nullptr;
  for (Column& c : snap.columns) {
    if (c.spec.name == "cpu") cpu = &c;
  }
  ASSERT_NE(cpu, nullptr);
  cpu->data[2] = std::byte{200};  // not a CpuFamily
  try {
    unpack_trace(snap);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.errc(), StoreErrc::kSchemaMismatch);
    EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos);
  }
}

TEST(Adapters, UnpackRejectsMissingColumn) {
  trace::TraceStore store = make_trace(4, 3);
  Snapshot snap = pack_trace(store);
  snap.columns.erase(snap.columns.begin());  // drop "id"
  try {
    unpack_trace(snap);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.errc(), StoreErrc::kSchemaMismatch);
    EXPECT_NE(std::string(e.what()).find("id"), std::string::npos);
  }
}

TEST(Adapters, StreamingAppendValidatesSchema) {
  const std::string path = temp_path("wrong_schema.snap");
  SnapshotWriter writer(path, kTraceKind, trace_schema());
  const core::GeneratedHostBatch batch = make_population(5, 4);
  EXPECT_THROW(append_population_shard(writer, batch), StoreError);
}

TEST(Adapters, WriteThroughFaultyFsLeavesNoFile) {
  const std::string path = temp_path("adapters_fault.snap");
  std::remove(path.c_str());
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kIoError;
  plan.at_byte = 100;
  FaultyFileSystem fs(FileSystem::real(), plan);
  WriterOptions opts;
  opts.fs = &fs;
  EXPECT_THROW(
      write_population_snapshot(path, make_population(1000, 5), 0, opts),
      StoreError);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

}  // namespace
}  // namespace resmodel::store
