// Length-checked little-endian byte codec for engine checkpoint blobs.
//
// Every engine_state.v1 blob (run header, ClientShard, QuorumCoordinator)
// is described by ONE field list: a function template that names each
// field once, in wire order, and that three walkers share. StateSizer
// adds up the blob's length; StateWriter then copies every field straight
// into a blob presized to that length (encode_blob() runs the pair);
// StateReader copies each one back out of the blob into the same place.
// No walker gathers a column into a temporary or regrows a buffer. The
// vocabulary:
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
// StoreError(kSchemaMismatch)); StateSizer and StateWriter throw
// std::logic_error, so a writer bug cannot publish a checkpoint its
// reader would refuse. Host requirements match the store's:
// little-endian, IEC 559 doubles.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/parallel.h"
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

enum class CodecMode { kSize, kWrite, kRead };

/// How many workers a StateWriter on this thread spreads a blob's column
/// copies over: 1 (this thread alone) unless a ColumnWorkers scope is
/// open. write_checkpoint opens one on the thread that encodes the next
/// blob while the calling thread appends the current one, so
/// serialize_state needs no parameter for it, and every other caller
/// encodes on its own thread.
class ColumnWorkers {
 public:
  explicit ColumnWorkers(int workers) noexcept : saved_(current_) {
    current_ = workers;
  }
  ~ColumnWorkers() { current_ = saved_; }
  ColumnWorkers(const ColumnWorkers&) = delete;
  ColumnWorkers& operator=(const ColumnWorkers&) = delete;

  static int current() noexcept { return current_; }

 private:
  static inline thread_local int current_ = 1;
  int saved_;
};

/// One walker of a field list. Every method transfers its argument: out
/// of it when sizing or writing (the argument may be const), into it when
/// reading.
template <CodecMode kMode>
class StateCodec {
  static constexpr bool kRead = kMode == CodecMode::kRead;
  static constexpr bool kWrite = kMode == CodecMode::kWrite;
  using Byte = std::conditional_t<kRead, const std::byte, std::byte>;

 public:
  StateCodec()
    requires(kMode == CodecMode::kSize)
  = default;
  explicit StateCodec(std::span<Byte> buffer)
    requires(kMode != CodecMode::kSize)
      : buf_(buffer) {}

  /// Bytes walked so far: the blob's length once a StateSizer is done.
  std::size_t size() const noexcept { return pos_; }

  template <typename T>
  void field(T& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    codec_detail::Wire<std::remove_const_t<T>> wire{};
    if constexpr (!kRead) wire = v;
    copy(take(sizeof wire), 0, wire);
    if constexpr (kRead) v = static_cast<T>(wire);
  }

  template <typename Vector>
  void column(Vector& v, std::uint64_t rows, const char* what) {
    using T = typename Vector::value_type;
    static_assert(std::is_trivially_copyable_v<T>);
    Byte* at = prefixed<T>(v.size(), rows, what);
    if constexpr (kRead) v.resize(rows);
    if constexpr (kMode != CodecMode::kSize) {
      if (rows > 0) {
        if constexpr (kWrite) std::memcpy(at, v.data(), rows * sizeof(T));
        if constexpr (kRead) {
          std::memcpy(static_cast<void*>(v.data()), at, rows * sizeof(T));
        }
      }
    }
  }

  template <typename Rows, typename Proj>
  void column(Rows& rows, Proj proj, std::uint64_t n, const char* what) {
    using W = WireOf<typename Rows::value_type, Proj>;
    Byte* at = prefixed<W>(rows.size(), n, what);
    if constexpr (kRead) {
      rows.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        copy(at, i, std::invoke(proj, rows[i]));
      }
    }
    if constexpr (kWrite) {
      defer(n, [&rows, proj, at](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) {
          copy(at, i, std::invoke(proj, rows[i]));
        }
      });
    }
  }

  template <typename Fifos, typename... Proj>
  void fifos(Fifos& v, std::uint64_t rows, const char* what, Proj... proj) {
    using Fifo = typename Fifos::value_type;
    using Entry = typename Fifo::value_type;
    Byte* counts = prefixed<std::uint32_t>(v.size(), rows, what);
    const auto count = [&](std::uint64_t i) {
      std::uint32_t c = 0;
      if constexpr (kRead) {
        copy(counts, i, c);
      } else {
        c = static_cast<std::uint32_t>(v[i].live().size());
      }
      return c;
    };
    // A writer also notes where each tile's entries start, so that any
    // worker can copy any tile.
    std::vector<std::uint64_t> tile_entries;
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < rows; ++i) {
      if constexpr (kWrite) {
        if (i % kTileRows == 0) tile_entries.push_back(total);
      }
      total += count(i);
    }
    const std::array<Byte*, sizeof...(Proj)> at = {
        prefixed<WireOf<Entry, Proj>>(total, total, what)...};
    if constexpr (kRead) {
      v.assign(rows, Fifo{});
      for (std::uint64_t i = 0, e = 0; i < rows; ++i) {
        const std::uint32_t c = count(i);
        v[i].reserve(c);
        for (std::uint32_t k = 0; k < c; ++k, ++e) {
          Entry entry{};
          std::size_t p = 0;
          (copy(at[p++], e, std::invoke(proj, entry)), ...);
          v[i].push_back(entry);
        }
      }
    }
    if constexpr (kWrite) {
      defer(rows, [&v, counts, at, tiles = std::move(tile_entries), proj...](
                      std::uint64_t begin, std::uint64_t end) {
        std::uint64_t e = tiles[begin / kTileRows];
        for (std::uint64_t i = begin; i < end; ++i) {
          std::uint32_t c = static_cast<std::uint32_t>(v[i].live().size());
          copy(counts, i, c);
          for (const Entry& entry : v[i].live()) {
            std::size_t p = 0;
            (copy(at[p++], e, std::invoke(proj, entry)), ...);
            ++e;
          }
        }
      });
    }
  }

  /// Every blob must be consumed (or filled) exactly; leftover bytes mean
  /// the two walks disagree about the format. A writer runs its deferred
  /// column copies here.
  void expect_end()
    requires(kMode != CodecMode::kSize)
  {
    if constexpr (kWrite) run_deferred();
    if (pos_ != buf_.size()) {
      fail("engine state blob: " + std::to_string(buf_.size() - pos_) +
           (kRead ? " unconsumed trailing bytes" : " bytes left unwritten"));
    }
  }

 private:
  template <typename Row, typename Proj>
  using WireOf = codec_detail::Wire<
      std::remove_cvref_t<std::invoke_result_t<Proj, Row&>>>;

  /// A reader's complaint is a format mismatch; a sizer's or writer's is
  /// a bug in the field list or the walkers.
  [[noreturn]] static void fail(const std::string& msg) {
    if constexpr (kRead) throw std::runtime_error(msg);
    throw std::logic_error(msg);
  }

  /// Claims the next n bytes of the blob (nothing when sizing).
  Byte* take(std::uint64_t n) {
    if constexpr (kMode == CodecMode::kSize) {
      pos_ += n;
      return nullptr;
    } else {
      if (buf_.size() - pos_ < n) {
        fail("engine state blob truncated: need " + std::to_string(n) +
             " bytes at offset " + std::to_string(pos_) + " of " +
             std::to_string(buf_.size()));
      }
      Byte* at = buf_.data() + pos_;
      pos_ += n;
      return at;
    }
  }

  /// The u64 length prefix of a `rows`-row column of wire type W, checked
  /// against the field list (`have` is the writer's own row count), then
  /// the column's bytes. The prefix counts scalars: a State counts as its
  /// six words.
  template <typename W>
  Byte* prefixed(std::uint64_t have, std::uint64_t rows, const char* what) {
    constexpr std::uint64_t kPer = std::is_same_v<W, util::Rng::State>
                                       ? sizeof(W) / sizeof(std::uint64_t)
                                       : 1;
    std::uint64_t n = have * kPer;
    field(n);
    if (n != rows * kPer) {
      fail(std::string("engine state blob: '") + what + "' has " +
           std::to_string(n) + " entries, expected " +
           std::to_string(rows * kPer));
    }
    if constexpr (kRead) {
      if (rows > (buf_.size() - pos_) / sizeof(W)) {
        fail(std::string("engine state blob truncated: '") + what +
             "' needs " + std::to_string(rows) + " rows at offset " +
             std::to_string(pos_));
      }
    }
    return take(rows * sizeof(W));
  }

  /// Moves slot i of a column of wire values starting at `at` to or from
  /// `value`.
  template <typename T>
  static void copy(Byte* at, std::uint64_t i, T& value) {
    using W = codec_detail::Wire<std::remove_const_t<T>>;
    if constexpr (kWrite) {
      const W wire = codec_detail::to_wire(value);
      std::memcpy(at + i * sizeof(W), &wire, sizeof(W));
    } else if constexpr (kRead) {
      W wire;
      std::memcpy(&wire, at + i * sizeof(W), sizeof(W));
      codec_detail::from_wire(value, wire);
    }
  }

  /// A writer gathers a projected column out of an array of structs,
  /// which walks every struct once per column. Deferring each column's
  /// copy and running all of them over one tile of rows at a time reads
  /// the structs once per tile, from L2, instead; and since the walk has
  /// laid out every column, the tiles can go to several workers.
  static constexpr std::uint64_t kTileRows = 1024;

  struct Deferred {
    std::uint64_t rows;
    std::function<void(std::uint64_t, std::uint64_t)> copy;  ///< [b, e)
  };

  void defer(std::uint64_t rows,
             std::function<void(std::uint64_t, std::uint64_t)> copy) {
    deferred_.push_back({rows, std::move(copy)});
  }

  void run_deferred() {
    std::uint64_t rows = 0;
    for (const Deferred& d : deferred_) rows = std::max(rows, d.rows);
    util::parallel_for(
        (rows + kTileRows - 1) / kTileRows, ColumnWorkers::current(),
        [this](std::size_t tile) {
          const std::uint64_t begin = tile * kTileRows;
          for (const Deferred& d : deferred_) {
            if (begin < d.rows) {
              d.copy(begin, std::min(begin + kTileRows, d.rows));
            }
          }
        });
    deferred_.clear();
  }

  std::span<Byte> buf_;
  std::size_t pos_ = 0;  ///< bytes walked
  std::vector<Deferred> deferred_;  ///< a writer's pending column copies
};

using StateSizer = StateCodec<CodecMode::kSize>;
using StateWriter = StateCodec<CodecMode::kWrite>;
using StateReader = StateCodec<CodecMode::kRead>;

/// Appends one blob to `out`: `walk(io)` runs the blob's field list once
/// on a StateSizer to presize it, then once on a StateWriter to fill it.
template <typename Walk>
void encode_blob(std::vector<std::byte>& out, Walk&& walk) {
  StateSizer sizer;
  walk(sizer);
  const std::size_t at = out.size();
  out.resize(at + sizer.size());
  StateWriter writer(std::span<std::byte>(out).subspan(at));
  walk(writer);
  writer.expect_end();
}

}  // namespace resmodel::engine
