#include "util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace resmodel::util {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41

// Slice-by-8 lookup tables, built once at first use. Table 0 is the plain
// byte-at-a-time CRC32C table; table k folds a byte that sits k positions
// ahead in the stream, letting the hot loop consume 8 bytes per iteration
// with eight independent loads.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Crc32cTables() noexcept {
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

// Polynomial arithmetic modulo the CRC polynomial, in the reflected bit
// order the register uses (bit 31 is x^0). Shifting a CRC register over n
// zero bytes multiplies it by x^(8n); that is all crc32c_combine needs.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// kX2n[k] = x^(2^k) mod p. A 64-bit byte count n is a bit count 8n below
// 2^67, so 67 entries cover every length without wrapping the index.
constexpr std::array<std::uint32_t, 67> kX2n = [] {
  std::array<std::uint32_t, 67> t{};
  t[0] = 1u << 30;  // x^1
  for (std::size_t k = 1; k < t.size(); ++k) {
    t[k] = multmodp(t[k - 1], t[k - 1]);
  }
  return t;
}();

/// x^(8n) mod p: the operator that moves a register past n bytes.
std::uint32_t x8nmodp(std::uint64_t n) noexcept {
  std::uint32_t p = 1u << 31;  // x^0
  for (std::size_t k = 3; n != 0; n >>= 1, ++k) {
    if (n & 1u) p = multmodp(kX2n[k], p);
  }
  return p;
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
  const auto load = [](const unsigned char* at) {
    std::uint64_t word;
    std::memcpy(&word, at, 8);
    return word;
  };
  std::uint64_t wide = crc;
  if (size >= kCrc32cThreeStreamMin) {
    // Three chains over three equal thirds, so the instruction's 3-cycle
    // latency overlaps. The second and third chains start from a zero
    // register; moving a register past `lane` bytes is a multiplication
    // by x^(8 lane), which joins them: (a * x^8L + b) * x^8L + c.
    const std::size_t lane = size / 24 * 8;
    const unsigned char* pb = p + lane;
    const unsigned char* pc = pb + lane;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < lane; i += 8) {
      wide = _mm_crc32_u64(wide, load(p + i));
      b = _mm_crc32_u64(b, load(pb + i));
      c = _mm_crc32_u64(c, load(pc + i));
    }
    const std::uint32_t shift = x8nmodp(lane);
    wide = multmodp(shift, multmodp(shift, static_cast<std::uint32_t>(wide)) ^
                               static_cast<std::uint32_t>(b)) ^
           static_cast<std::uint32_t>(c);
    p += 3 * lane;
    size -= 3 * lane;
  }
  while (size >= 8) {
    wide = _mm_crc32_u64(wide, load(p));
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

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) noexcept {
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

}  // namespace resmodel::util
