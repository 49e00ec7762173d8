// CRC32C (util/checksum.h): known answers, and the dispatched path (the
// SSE4.2 instruction on CPUs that have it) held to the portable
// slice-by-8 path at every length and alignment, so the on-disk checksums
// never depend on the CPU.
#include "util/checksum.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace resmodel::util {
namespace {

std::uint32_t both_paths(const void* data, std::size_t size) {
  const std::uint32_t fast = crc32c(data, size);
  EXPECT_EQ(fast, crc32c_portable(data, size)) << "length " << size;
  return fast;
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 (iSCSI), appendix B.4.
  std::array<std::uint8_t, 32> buf{};
  EXPECT_EQ(both_paths(buf.data(), buf.size()), 0x8a9136aau);
  buf.fill(0xff);
  EXPECT_EQ(both_paths(buf.data(), buf.size()), 0x62a8ab43u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(both_paths(buf.data(), buf.size()), 0x46dd794eu);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(both_paths(buf.data(), buf.size()), 0x113fdb5cu);
}

TEST(Crc32c, CheckString) {
  EXPECT_EQ(both_paths("123456789", 9), 0xe3069283u);
  EXPECT_EQ(both_paths("", 0), 0u);
}

TEST(Crc32c, DispatchedMatchesPortableAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 1024;
  std::vector<std::uint8_t> buf(kMaxLen + 16);
  std::uint32_t x = 0x9e3779b9u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  // Start offsets 0..7 from an 8-aligned base cover every misalignment
  // of the head loop.
  std::uint8_t* base = buf.data();
  while (reinterpret_cast<std::uintptr_t>(base) % 8 != 0) ++base;
  for (std::size_t shift = 0; shift < 8; ++shift) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(crc32c(base + shift, len), crc32c_portable(base + shift, len))
          << "shift " << shift << " length " << len;
    }
  }
}

TEST(Crc32c, SeedChainsIncrementalComputations) {
  std::vector<std::uint8_t> buf(777);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 100u, 776u, 777u}) {
    const std::uint32_t head = crc32c(buf.data(), split);
    EXPECT_EQ(crc32c(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
    const std::uint32_t portable_head = crc32c_portable(buf.data(), split);
    EXPECT_EQ(crc32c_portable(buf.data() + split, buf.size() - split,
                              portable_head),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace resmodel::util
