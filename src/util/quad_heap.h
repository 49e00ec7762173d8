// Flat 4-ary min-heap — the one priority queue behind the engine's
// virtual-time event heap (engine/event_heap.h) and the dynamic-pull
// scheduling kernel (sim/schedule_state.cpp).
//
// Four children per node means half the tree depth of a binary heap and
// sift-down comparisons that stay inside one cache line of 16-byte
// entries. Both users key entries by (double key, integer id) under the
// strict total order "key, then id": the pop sequence is then a pure
// function of the heap's contents — independent of insertion history and
// of the internal layout — so any two correct heaps over the same
// entries drain identically (which is also why a heap rebuilt from its
// entries in any order pops the same sequence).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace resmodel::util {

/// `Before(a, b)` must be a strict total order over the live entries.
template <typename Entry, auto Before>
class QuadHeap {
 public:
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// The minimum entry. Call only while !empty().
  const Entry& min() const noexcept { return entries_.front(); }

  /// The live entries in heap (NOT pop) order.
  std::span<const Entry> entries() const noexcept { return entries_; }

  void push(Entry e) {
    entries_.push_back(e);
    sift_up(entries_.size() - 1);
  }

  Entry pop_min() noexcept {
    const Entry top = entries_.front();
    entries_.front() = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) sift_down(0);
    return top;
  }

  /// pop_min + push fused into one sift-down from the root — the drain
  /// step of both users (the popped id re-enters with its next key).
  void replace_min(Entry e) noexcept {
    entries_.front() = e;
    sift_down(0);
  }

  /// Replaces the contents with `entries` and heapifies (Floyd, O(n)).
  void build(std::vector<Entry> entries) noexcept {
    entries_ = std::move(entries);
    if (entries_.size() < 2) return;
    for (std::size_t i = (entries_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }

 private:
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) noexcept {
    const Entry e = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!Before(e, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = e;
  }

  void sift_down(std::size_t i) noexcept {
    const Entry e = entries_[i];
    const std::size_t n = entries_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (Before(entries_[c], entries_[best])) best = c;
      }
      if (!Before(entries_[best], e)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = e;
  }

  std::vector<Entry> entries_;
};

}  // namespace resmodel::util
