// CRC32C (util/checksum.h): known answers, the dispatched path (the
// SSE4.2 instruction on CPUs that have it, three chains on long buffers)
// held to the portable one-chain slice-by-8 path at every length and
// alignment, so the on-disk checksums never depend on the CPU, and
// crc32c_combine held to a CRC over the joined bytes.
#include "util/checksum.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
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

/// Lengths where the dispatched loop changes shape: empty, sub-word,
/// one word, a page, either side of the three-chain threshold, 1 MB.
std::vector<std::size_t> boundary_lengths() {
  return {0,
          1,
          7,
          8,
          4096,
          kCrc32cThreeStreamMin - 1,
          kCrc32cThreeStreamMin,
          kCrc32cThreeStreamMin + 1,
          std::size_t{1} << 20};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(gen());
  return out;
}

TEST(Crc32c, DispatchedMatchesPortableAcrossTheThreeChainThreshold) {
  const std::size_t longest = boundary_lengths().back();
  const std::vector<std::uint8_t> buf = random_bytes(longest + 16, 3);
  const std::uint8_t* base = buf.data();
  while (reinterpret_cast<std::uintptr_t>(base) % 8 != 0) ++base;
  for (const std::size_t len : boundary_lengths()) {
    for (std::size_t shift = 0; shift < 8; ++shift) {
      ASSERT_EQ(crc32c(base + shift, len), crc32c_portable(base + shift, len))
          << "shift " << shift << " length " << len;
      ASSERT_EQ(crc32c(base + shift, len, 0xdeadbeefu),
                crc32c_portable(base + shift, len, 0xdeadbeefu))
          << "seeded, shift " << shift << " length " << len;
    }
  }
}

TEST(Crc32c, CombineEqualsTheCrcOfTheJoinedBytes) {
  std::uint32_t seed = 1;
  for (const std::size_t len_a : boundary_lengths()) {
    for (const std::size_t len_b : boundary_lengths()) {
      SCOPED_TRACE(::testing::Message()
                   << "|A| " << len_a << " |B| " << len_b);
      std::vector<std::uint8_t> joined = random_bytes(len_a, seed++);
      const std::vector<std::uint8_t> b = random_bytes(len_b, seed++);
      const std::uint32_t crc_a = crc32c(joined.data(), joined.size());
      const std::uint32_t crc_b = crc32c(b.data(), b.size());
      joined.insert(joined.end(), b.begin(), b.end());
      ASSERT_EQ(crc32c_combine(crc_a, crc_b, len_b),
                crc32c_portable(joined.data(), joined.size()));
    }
  }
}

}  // namespace
}  // namespace resmodel::util
