// Flat FIFO with a head cursor — the per-host grant FIFO of the contact
// kernel (boinc/contact.h) and the quorum overlay's per-client unit FIFO
// (engine/quorum.h). Popping advances the cursor; the dead prefix is
// compacted away once it reaches 64 entries, or dropped when the FIFO
// empties, so a short live tail never pays a deque's block allocations.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace resmodel::util {

template <typename T>
class HeadFifo {
 public:
  using value_type = T;

  bool empty() const noexcept { return head_ == entries_.size(); }

  /// The oldest live entry. Call only while !empty().
  T& front() noexcept { return entries_[head_]; }

  /// The live entries, oldest first.
  std::span<const T> live() const noexcept {
    return std::span<const T>(entries_).subspan(head_);
  }

  void push_back(const T& value) { entries_.push_back(value); }

  /// Drops the oldest entry. Call only while !empty().
  void pop_front() noexcept {
    if (++head_ == entries_.size()) {
      entries_.clear();
      head_ = 0;
    } else if (head_ >= 64) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> entries_;
  std::size_t head_ = 0;
};

}  // namespace resmodel::util
