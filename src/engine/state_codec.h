// Length-checked little-endian byte codec for engine checkpoint blobs.
//
// Every engine_state.v1 blob (run header, ClientShard, QuorumCoordinator)
// is described by ONE field list: a function template that names each
// field once, in wire order, and that both directions walk — with
// StateWriter it appends every field to a byte buffer, with StateReader it
// reads each one back into the same place. The vocabulary:
//
//   field(x)                       one scalar: an arithmetic or enum value
//                                  as its raw bytes, a bool as one byte
//   column(v, rows, what)          a u64 length prefix, then the elements
//   column(v, proj, rows, what)    the same wire, projected out of a vector
//                                  of structs by the member pointer `proj`
//                                  (a util::Rng member travels as the six
//                                  words of its State, counted as words)
//   fifos(v, rows, what, proj...)  per-row FIFOs, live entries only: the
//                                  u32 per-row counts as a column, then one
//                                  column per projection of the entries
//
// Doubles travel as their IEEE-754 bit patterns, so a round trip is bit
// exact. A column whose length differs from what the field list expects
// is refused before anything is allocated for it: StateReader throws
// std::runtime_error (the store already CRC-checked the bytes, so this is
// a format mismatch, which the checkpoint loader reports as
// StoreError(kSchemaMismatch)); StateWriter throws std::logic_error, so a
// writer bug cannot publish a checkpoint its reader would refuse. Host
// requirements match the store's: little-endian, IEC 559 doubles.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace resmodel::engine {

namespace codec_detail {

/// The wire form of a value: a bool is one byte, a util::Rng its State
/// (a raw Rng would drag padding bytes along).
template <typename T>
using Wire = std::conditional_t<
    std::is_same_v<T, bool>, std::uint8_t,
    std::conditional_t<std::is_same_v<T, util::Rng>, util::Rng::State, T>>;

template <typename T>
Wire<T> to_wire(const T& v) {
  return v;
}
inline util::Rng::State to_wire(const util::Rng& rng) { return rng.save(); }

template <typename T>
void from_wire(T& v, const Wire<T>& wire) {
  v = static_cast<T>(wire);
}
inline void from_wire(util::Rng& rng, const util::Rng::State& st) {
  rng.restore(st);
}

}  // namespace codec_detail

/// One direction of the codec. Every method transfers its argument: out of
/// it when writing (the argument may be const), into it when reading.
template <bool kWrite>
class StateCodec {
 public:
  using Buffer = std::conditional_t<kWrite, std::vector<std::byte>&,
                                    std::span<const std::byte>>;
  explicit StateCodec(Buffer buffer) : buf_(buffer) {}

  template <typename T>
  void field(T& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    codec_detail::Wire<std::remove_const_t<T>> wire{};
    if constexpr (kWrite) wire = v;
    bytes(&wire, sizeof wire);
    if constexpr (!kWrite) v = static_cast<T>(wire);
  }

  template <typename Vector>
  void column(Vector& v, std::uint64_t rows, const char* what) {
    using T = typename Vector::value_type;
    static_assert(std::is_trivially_copyable_v<T>);
    // The length prefix counts scalars: a State counts as its six words.
    constexpr std::uint64_t kPer = std::is_same_v<T, util::Rng::State>
                                       ? sizeof(T) / sizeof(std::uint64_t)
                                       : 1;
    std::uint64_t n = v.size() * kPer;
    field(n);
    if (n != rows * kPer) {
      const std::string msg = std::string("engine state blob: '") + what +
                              "' has " + std::to_string(n) +
                              " entries, expected " +
                              std::to_string(rows * kPer);
      if constexpr (kWrite) throw std::logic_error(msg);
      throw std::runtime_error(msg);
    }
    if constexpr (!kWrite) {
      if (rows > (buf_.size() - pos_) / sizeof(T)) {
        throw std::runtime_error(std::string("engine state blob truncated: '") +
                                 what + "' needs " + std::to_string(rows) +
                                 " rows at offset " + std::to_string(pos_));
      }
      v.resize(rows);
    }
    if (rows > 0) bytes(v.data(), rows * sizeof(T));
  }

  template <typename Rows, typename Proj>
  void column(Rows& rows, Proj proj, std::uint64_t n, const char* what) {
    using T = std::remove_cvref_t<
        std::invoke_result_t<Proj, typename Rows::value_type&>>;
    std::vector<codec_detail::Wire<T>> col;
    if constexpr (kWrite) {
      col.reserve(rows.size());
      for (const auto& row : rows) {
        col.push_back(codec_detail::to_wire(std::invoke(proj, row)));
      }
    }
    column(col, n, what);
    if constexpr (!kWrite) {
      rows.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        codec_detail::from_wire(std::invoke(proj, rows[i]), col[i]);
      }
    }
  }

  template <typename Fifos, typename... Proj>
  void fifos(Fifos& v, std::uint64_t rows, const char* what, Proj... proj) {
    using Fifo = typename Fifos::value_type;
    std::vector<std::uint32_t> counts;
    std::vector<typename Fifo::value_type> entries;
    if constexpr (kWrite) {
      for (const Fifo& fifo : v) {
        counts.push_back(static_cast<std::uint32_t>(fifo.live().size()));
        entries.insert(entries.end(), fifo.live().begin(), fifo.live().end());
      }
    }
    column(counts, rows, what);
    std::uint64_t total = 0;
    for (const std::uint32_t c : counts) total += c;
    (column(entries, proj, total, what), ...);
    if constexpr (!kWrite) {
      v.assign(rows, Fifo{});
      std::size_t next = 0;
      for (std::uint64_t i = 0; i < rows; ++i) {
        for (std::uint32_t e = 0; e < counts[i]; ++e) {
          v[i].push_back(entries[next++]);
        }
      }
    }
  }

  /// Every blob must be consumed exactly; trailing bytes mean the writer
  /// and reader disagree about the format.
  void expect_end() const
    requires(!kWrite)
  {
    if (pos_ != buf_.size()) {
      throw std::runtime_error("engine state blob: " +
                               std::to_string(buf_.size() - pos_) +
                               " unconsumed trailing bytes");
    }
  }

 private:
  template <typename P>
  void bytes(P* p, std::size_t n) {
    if constexpr (kWrite) {
      const auto* b = reinterpret_cast<const std::byte*>(p);
      buf_.insert(buf_.end(), b, b + n);
    } else {
      if (buf_.size() - pos_ < n) {
        throw std::runtime_error("engine state blob truncated: need " +
                                 std::to_string(n) + " bytes at offset " +
                                 std::to_string(pos_) + " of " +
                                 std::to_string(buf_.size()));
      }
      std::memcpy(static_cast<void*>(p), buf_.data() + pos_, n);
      pos_ += n;
    }
  }

  Buffer buf_;
  std::size_t pos_ = 0;  ///< read offset
};

using StateWriter = StateCodec<true>;
using StateReader = StateCodec<false>;

}  // namespace resmodel::engine
