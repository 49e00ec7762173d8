// The library's one 4-ary heap (util::QuadHeap), exercised through the
// engine's EventHeap alias and through a plain (key, id) entry like the
// dynamic-pull kernel's, against sorted and std::priority_queue oracles.
#include "engine/event_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/quad_heap.h"
#include "util/rng.h"

namespace resmodel::engine {
namespace {

std::vector<Event> random_events(std::size_t n, util::Rng& rng,
                                 int distinct_days) {
  // Days drawn from a small set so ties are common and the client
  // tie-break actually decides the order.
  std::vector<Event> events;
  events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double day =
        static_cast<double>(rng.uniform_index(distinct_days));
    events.push_back({day, i});
  }
  // Shuffle the client indices into the days so insertion order and
  // tie-break order disagree.
  std::shuffle(events.begin(), events.end(), rng);
  return events;
}

std::vector<Event> drain_all(EventHeap& heap) {
  std::vector<Event> popped;
  popped.reserve(heap.size());
  while (!heap.empty()) popped.push_back(heap.pop_min());
  return popped;
}

TEST(EventHeap, PopOrderMatchesSortedReference) {
  util::Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.uniform_index(400);
    std::vector<Event> events = random_events(n, rng, 7);

    EventHeap heap;
    for (const Event& e : events) heap.push(e);
    const std::vector<Event> popped = drain_all(heap);

    std::sort(events.begin(), events.end(), fires_before);
    ASSERT_EQ(popped.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(popped[i].day, events[i].day);
      EXPECT_EQ(popped[i].client, events[i].client);
    }
  }
}

TEST(EventHeap, PopSequenceIsStrictlyMonotone) {
  util::Rng rng(7);
  EventHeap heap;
  for (const Event& e : random_events(1000, rng, 5)) heap.push(e);
  const std::vector<Event> popped = drain_all(heap);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    // Strict (day, client) increase: distinct clients make equality
    // impossible, so fires_before is a total order over the popped run.
    EXPECT_TRUE(fires_before(popped[i - 1], popped[i]));
  }
}

TEST(EventHeap, TiesBreakOnClientIndex) {
  EventHeap heap;
  // Same day, clients pushed in descending order.
  for (std::uint32_t c = 10; c-- > 0;) heap.push({3.0, c});
  heap.push({1.0, 42});
  heap.push({5.0, 0});
  EXPECT_EQ(heap.pop_min().client, 42u);
  for (std::uint32_t c = 0; c < 10; ++c) {
    const Event e = heap.pop_min();
    EXPECT_EQ(e.day, 3.0);
    EXPECT_EQ(e.client, c);
  }
  EXPECT_EQ(heap.pop_min().day, 5.0);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, BuildMatchesIncrementalPush) {
  util::Rng rng(99);
  const std::vector<Event> events = random_events(777, rng, 11);

  EventHeap pushed;
  for (const Event& e : events) pushed.push(e);
  EventHeap built;
  built.build(events);

  ASSERT_EQ(built.size(), pushed.size());
  while (!pushed.empty()) {
    const Event a = pushed.pop_min();
    const Event b = built.pop_min();
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.client, b.client);
  }
}

TEST(EventHeap, ReplaceMinEqualsPopThenPush) {
  util::Rng rng(5);
  EventHeap fused;
  EventHeap reference;
  for (const Event& e : random_events(64, rng, 9)) {
    fused.push(e);
    reference.push(e);
  }
  // Drive both heaps through the engine's drain step: pop the minimum,
  // reschedule the client at a later day.
  for (int step = 0; step < 500; ++step) {
    const Event min = fused.min();
    const Event next{min.day + 0.25 + rng.uniform(), min.client};
    fused.replace_min(next);
    reference.pop_min();
    reference.push(next);
    ASSERT_EQ(fused.size(), reference.size());
    EXPECT_EQ(fused.min().day, reference.min().day);
    EXPECT_EQ(fused.min().client, reference.min().client);
  }
}

TEST(EventHeap, InterleavedPushPopAgainstReference) {
  util::Rng rng(123);
  EventHeap heap;
  std::vector<Event> reference;
  std::uint32_t next_client = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool push = reference.empty() || rng.uniform() < 0.55;
    if (push) {
      const Event e{static_cast<double>(rng.uniform_index(13)),
                    next_client++};
      heap.push(e);
      reference.push_back(e);
    } else {
      const Event popped = heap.pop_min();
      const auto it =
          std::min_element(reference.begin(), reference.end(), fires_before);
      EXPECT_EQ(popped.day, it->day);
      EXPECT_EQ(popped.client, it->client);
      reference.erase(it);
    }
    ASSERT_EQ(heap.size(), reference.size());
  }
}

/// A (key, id) entry under the key-then-id order — the shape of the pull
/// kernel's (free_at, host) entries.
struct Keyed {
  double key = 0.0;
  std::uint64_t id = 0;
};

bool key_then_id(const Keyed& a, const Keyed& b) noexcept {
  return a.key < b.key || (a.key == b.key && a.id < b.id);
}

using KeyedHeap = util::QuadHeap<Keyed, key_then_id>;

TEST(QuadHeap, EqualKeysBuiltInIdOrderPopInIdOrder) {
  // The pull kernel's cold start: every host idle at 0.
  std::vector<Keyed> seed(100);
  for (std::uint64_t h = 0; h < seed.size(); ++h) seed[h] = {0.0, h};
  KeyedHeap heap;
  heap.build(seed);
  for (std::uint64_t h = 0; h < 100; ++h) {
    const Keyed e = heap.pop_min();
    EXPECT_EQ(e.key, 0.0);
    EXPECT_EQ(e.id, h);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(QuadHeap, MatchesPriorityQueueOracle) {
  // Random interleaved push / pop / replace_min against the STL oracle,
  // with keys drawn from a tiny set so key ties (broken by id) are
  // constant.
  using OracleEntry = std::pair<double, std::uint64_t>;
  std::priority_queue<OracleEntry, std::vector<OracleEntry>, std::greater<>>
      oracle;
  KeyedHeap heap;
  util::Rng rng(21);
  std::uint64_t next_id = 0;
  const auto expect_pop = [&](const Keyed& got) {
    const OracleEntry want = oracle.top();
    oracle.pop();
    EXPECT_EQ(got.key, want.first);
    EXPECT_EQ(got.id, want.second);
  };
  for (int op = 0; op < 4000; ++op) {
    const double u = rng.uniform();
    const double key = static_cast<double>(rng.uniform_index(8));
    if (heap.empty() || u < 0.45) {
      heap.push({key, next_id});
      oracle.push({key, next_id});
      ++next_id;
    } else if (u < 0.75) {
      expect_pop(heap.pop_min());
    } else {
      // The pull drain step: the minimum re-enters with a later key.
      const Keyed top = heap.min();
      expect_pop(top);
      const Keyed next{top.key + key, top.id};
      heap.replace_min(next);
      oracle.push({next.key, next.id});
    }
    ASSERT_EQ(heap.size(), oracle.size());
  }
  while (!heap.empty()) expect_pop(heap.pop_min());
  EXPECT_TRUE(oracle.empty());
}

}  // namespace
}  // namespace resmodel::engine
