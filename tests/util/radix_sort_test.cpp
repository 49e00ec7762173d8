// util::radix_sort against std::stable_sort on the same keys: every digit
// pass, the skip of digits all items share, stability among equal keys,
// and the comparison-sort path below the cutoff.
#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace resmodel::util {
namespace {

struct Item {
  std::uint64_t key = 0;
  std::uint32_t input_pos = 0;
  bool operator==(const Item&) const = default;
};

/// `count` items whose keys are `mask & random | fixed`: bits outside
/// `mask` are shared by every item, so their digits are skipped.
std::vector<Item> items(std::size_t count, std::uint64_t mask,
                        std::uint64_t fixed, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Item> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = {(rng() & mask) | fixed, static_cast<std::uint32_t>(i)};
  }
  return out;
}

template <int KeyBits>
void expect_matches_stable_sort(std::vector<Item> input) {
  std::vector<Item> expected = input;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  radix_sort<KeyBits>(input, [](const Item& it) { return it.key; });
  EXPECT_EQ(input, expected);
}

TEST(RadixSort, MatchesStableSortOnEveryDigitLayout) {
  const std::size_t n = 3 * kRadixSortCutoff;
  // All four digits vary.
  expect_matches_stable_sort<64>(items(n, ~0ull, 0, 1));
  // Many equal keys, so stability decides the order. Three passes run
  // (digit 2 is shared), an odd number: the result ends in the spare buffer.
  expect_matches_stable_sort<64>(items(n, 0x0003'0000'0001'00ffull, 0, 2));
  // Digits 1 and 3 are shared by every item, at non-zero values.
  expect_matches_stable_sort<64>(
      items(n, 0x0000'ffff'0000'ffffull, 0x0042'0000'0007'0000ull, 3));
  // 32-bit keys, with and without a shared high digit.
  expect_matches_stable_sort<32>(items(n, 0xffff'ffffull, 0, 4));
  expect_matches_stable_sort<32>(items(n, 0x0000'ffffull, 0x1234'0000ull, 5));
}

TEST(RadixSort, SmallInputsTakeTheComparisonPath) {
  expect_matches_stable_sort<64>(items(0, ~0ull, 0, 7));
  expect_matches_stable_sort<64>(items(1, ~0ull, 0, 8));
  expect_matches_stable_sort<64>(items(kRadixSortCutoff - 1, 0xffull, 0, 9));
}

}  // namespace
}  // namespace resmodel::util
