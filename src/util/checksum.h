// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding every
// block of the columnar snapshot format (src/store/).
//
// Chosen over a plain CRC32 for its better error-detection properties on
// storage payloads (it is what iSCSI, ext4 metadata and LevelDB/RocksDB
// block formats use). Two paths compute the same value, so the on-disk
// bytes never depend on the CPU that wrote or reads them:
//   - the SSE4.2 `crc32` instruction, 8 bytes per instruction, picked once
//     per process on x86-64 CPUs that report it. One dependency chain
//     reads 6.3 GB/s on one core of a 4-vCPU Xeon VM (the instruction's
//     latency, not its throughput, is the limit), so buffers of at least
//     kCrc32cThreeStreamMin bytes run three interleaved chains over three
//     thirds of the buffer and join them with crc32c_combine: 14 GB/s over
//     a 72 MB checkpoint on the same core;
//   - portable slice-by-8 table lookup, 1.3-1.4 GB/s on the same core,
//     one chain: the fallback on every other CPU, and the reference the
//     tests hold the SSE4.2 path to.
// crc32c_combine lets a caller that needs the CRC of the same bytes under
// two different prefixes (the store's block CRC and its per-column digest)
// read the bytes once.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resmodel::util {

/// Buffers at least this long take crc32c()'s three-chain SSE4.2 loop;
/// below it the two combine steps would cost more than they save.
inline constexpr std::size_t kCrc32cThreeStreamMin = 16384;

/// CRC32C of `size` bytes. `seed` chains incremental computations:
/// crc32c(ab) == crc32c(b, len_b, crc32c(a, len_a)).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0) noexcept;

/// The slice-by-8 path of crc32c(), whatever the CPU: the same value,
/// slower, and always one chain. Exposed as the reference the dispatched
/// path is tested against.
std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t seed = 0) noexcept;

/// CRC32C of A followed by B from crc32c(A), crc32c(B) and B's length,
/// without the bytes: crc_a times x^(8 len_b) modulo the polynomial, plus
/// crc_b, as zlib's crc32_combine does it. O(log len_b).
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) noexcept;

}  // namespace resmodel::util
