#include "util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace resmodel::util {

namespace {

// Slice-by-8 lookup tables, built once at first use. Table 0 is the plain
// byte-at-a-time CRC32C table; table k folds a byte that sits k positions
// ahead in the stream, letting the hot loop consume 8 bytes per iteration
// with eight independent loads.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Crc32cTables() noexcept {
    constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xffu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Crc32cTables& tables() noexcept {
  static const Crc32cTables tables;
  return tables;
}

// Both paths take and return the working (pre-inverted) register value;
// crc32c() applies the seed and final inversions once.
using CrcKernel = std::uint32_t (*)(const unsigned char*, std::size_t,
                                    std::uint32_t) noexcept;

std::uint32_t crc_slice8(const unsigned char* p, std::size_t size,
                         std::uint32_t crc) noexcept {
  const auto& t = tables().t;
  // Head: align to 8 bytes so the slice loop reads aligned words.
  while (size > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --size;
  }
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // little-endian hosts only (asserted by store)
    word ^= crc;
    crc = t[7][word & 0xffu] ^ t[6][(word >> 8) & 0xffu] ^
          t[5][(word >> 16) & 0xffu] ^ t[4][(word >> 24) & 0xffu] ^
          t[3][(word >> 32) & 0xffu] ^ t[2][(word >> 40) & 0xffu] ^
          t[1][(word >> 48) & 0xffu] ^ t[0][(word >> 56) & 0xffu];
    p += 8;
    size -= 8;
  }
  while (size > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --size;
  }
  return crc;
}

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes exactly the reflected CRC32C
// step the tables above encode, 8 bytes per instruction. Only this
// function is compiled for SSE4.2; crc32c() calls it only on CPUs that
// report the feature.
__attribute__((target("sse4.2"))) std::uint32_t crc_sse42(
    const unsigned char* p, std::size_t size, std::uint32_t crc) noexcept {
  std::uint64_t wide = crc;
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    wide = _mm_crc32_u64(wide, word);
    p += 8;
    size -= 8;
  }
  crc = static_cast<std::uint32_t>(wide);
  while (size > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --size;
  }
  return crc;
}
#endif

CrcKernel select_kernel() noexcept {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return crc_sse42;
#endif
  return crc_slice8;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) noexcept {
  static const CrcKernel kernel = select_kernel();
  return ~kernel(static_cast<const unsigned char*>(data), size, ~seed);
}

std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t seed) noexcept {
  return ~crc_slice8(static_cast<const unsigned char*>(data), size, ~seed);
}

}  // namespace resmodel::util
