// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding every
// block of the columnar snapshot format (src/store/).
//
// Chosen over a plain CRC32 for its better error-detection properties on
// storage payloads (it is what iSCSI, ext4 metadata and LevelDB/RocksDB
// block formats use). Two paths compute the same value, so the on-disk
// bytes never depend on the CPU that wrote or reads them:
//   - the SSE4.2 `crc32` instruction, 8 bytes per instruction, picked once
//     per process on x86-64 CPUs that report it: 5.5-6 GB/s on one core
//     of a 4-vCPU Xeon VM;
//   - portable slice-by-8 table lookup, 1.3-1.4 GB/s on the same core:
//     the fallback on every other CPU, and the reference the tests hold
//     the SSE4.2 path to.
// The CRC is not free next to the disk. An engine checkpoint makes two
// passes over every block (the block CRC and the column digest); on the
// table path they were 40% of a checkpoint write, more than write(2) and
// fsync together, and on the SSE4.2 path they are about 13% of it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resmodel::util {

/// CRC32C of `size` bytes. `seed` chains incremental computations:
/// crc32c(ab) == crc32c(b, len_b, crc32c(a, len_a)).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0) noexcept;

/// The slice-by-8 path of crc32c(), whatever the CPU: the same value,
/// slower. Exposed as the reference the dispatched path is tested against.
std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t seed = 0) noexcept;

}  // namespace resmodel::util
