// A std::vector whose resize() leaves new trivially constructible
// elements unwritten instead of zero-filling them. For columns whose
// every slot is written right after the resize: the writer is then the
// first to touch each page, so a parallel writer spreads the page faults
// over its workers and no serial fill pass runs before it.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace resmodel::util {

/// std::allocator whose value-less construct() default-initializes
/// (a no-op for trivial types) instead of value-initializing.
/// (C++20: std::allocator has no construct or rebind members, so
/// allocator_traits rebinds to DefaultInitAllocator<U> and constructs
/// with arguments through std::construct_at.)
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace resmodel::util
