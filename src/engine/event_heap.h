// The virtual-time event heap of the service engine (src/engine/): one
// scheduled scheduler-contact per client, drained in deterministic
// virtual-time order.
//
// The heap itself is the library's flat 4-ary util::QuadHeap (shared with
// sim's dynamic-pull kernel). The engine's ordering contract: ties in
// virtual time break on the client index, so the pop sequence is a TOTAL
// order — independent of insertion history, which is what makes a shard's
// drain order (and therefore its day-record stream) a pure function of
// the client population. A client has at most one scheduled contact, so
// two live events can never compare equal.
//
// EventHeap::entries() lists the live events in heap (NOT fire) order.
// Because the pop sequence is a total order over the contents, a heap
// rebuilt via build() from these events — in any order — drains
// identically; this is what lets a checkpoint store one membership bit
// per client instead of the heap's internal layout.
#pragma once

#include <cstdint>

#include "util/quad_heap.h"

namespace resmodel::engine {

/// One scheduled contact: the virtual day it fires and the (shard-local)
/// index of the client making it.
struct Event {
  double day = 0.0;
  std::uint32_t client = 0;
};

/// Strict total order of the event protocol: earlier virtual time first,
/// lower client index on ties.
inline bool fires_before(const Event& a, const Event& b) noexcept {
  return a.day < b.day || (a.day == b.day && a.client < b.client);
}

/// Flat 4-ary min-heap of Events under fires_before.
using EventHeap = util::QuadHeap<Event, fires_before>;

}  // namespace resmodel::engine
