// Stable LSD radix sort over 16-bit digits — the library's one radix sort.
// It orders the allocator's packed preference entries (sim/allocator.cpp)
// and the quorum overlay's day records (engine/quorum.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace resmodel::util {

/// Below this many items a stable comparison sort beats the radix passes'
/// 2^16-bucket histogram setup; both give the same order.
inline constexpr std::size_t kRadixSortCutoff = 4096;

/// Sorts `items` ascending by `key(item)`, keeping items with equal keys
/// in their input order. `key` returns a std::uint64_t below 2^KeyBits;
/// KeyBits is a multiple of 16, at most 64. Fewer than 2^32 items.
/// One scan builds every digit's histogram, and a digit that all items
/// share is skipped: its stable pass would be the identity.
template <int KeyBits, typename T, typename KeyFn>
void radix_sort(std::vector<T>& items, KeyFn key) {
  static_assert(KeyBits > 0 && KeyBits <= 64 && KeyBits % 16 == 0);
  const std::size_t n = items.size();
  if (n < kRadixSortCutoff) {
    std::stable_sort(items.begin(), items.end(),
                     [&key](const T& a, const T& b) {
                       return key(a) < key(b);
                     });
    return;
  }

  constexpr int kDigitBits = 16;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr int kPasses = KeyBits / kDigitBits;
  std::vector<std::uint32_t> hist(kPasses * kBuckets, 0);
  for (const T& item : items) {
    const std::uint64_t k = key(item);
    for (int p = 0; p < kPasses; ++p) {
      ++hist[static_cast<std::size_t>(p) * kBuckets +
             ((k >> (p * kDigitBits)) & (kBuckets - 1))];
    }
  }

  std::vector<T> scratch(n);
  std::vector<T>* src = &items;
  std::vector<T>* dst = &scratch;
  for (int p = 0; p < kPasses; ++p) {
    std::uint32_t* counts =
        hist.data() + static_cast<std::size_t>(p) * kBuckets;
    bool constant = false;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts[b] != 0) {
        constant = counts[b] == n;
        break;
      }
    }
    if (constant) continue;

    std::uint32_t running = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = counts[b];
      counts[b] = running;
      running += c;
    }
    const int shift = p * kDigitBits;
    const T* s = src->data();
    T* d = dst->data();
    for (std::size_t i = 0; i < n; ++i) {
      d[counts[(key(s[i]) >> shift) & (kBuckets - 1)]++] = s[i];
    }
    std::swap(src, dst);
  }
  if (src != &items) {
    std::swap(items, scratch);
  }
}

}  // namespace resmodel::util
