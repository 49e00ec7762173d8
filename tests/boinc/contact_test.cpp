// The grant FIFO of the contact kernel (boinc/contact.h): one head-cursor
// queue per host that completions, loss write-offs and expiries all drain
// from the front.
#include "boinc/contact.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace resmodel::boinc {
namespace {

TEST(GrantFifo, KeepsFifoOrderAcrossHeadCompaction) {
  // Two pushes per pop: the live tail never empties, so every 64th pop
  // compacts the dead prefix out from under live entries. Grant k carries
  // k units, so the units identify the insertion order.
  GrantFifo fifo;
  std::uint32_t pushed = 0;
  std::uint32_t popped = 0;
  for (int round = 0; round < 300; ++round) {
    for (int p = 0; p < 2; ++p) {
      ++pushed;
      fifo.push_back({static_cast<double>(pushed), pushed});
    }
    ASSERT_FALSE(fifo.empty());
    ASSERT_EQ(fifo.front().units, ++popped);
    fifo.pop_front();
  }
  ASSERT_EQ(fifo.live().size(), pushed - popped);
  for (const Grant& grant : fifo.live()) {
    EXPECT_EQ(grant.units, ++popped);
    EXPECT_EQ(grant.expiry_day, static_cast<double>(grant.units));
  }
  while (!fifo.empty()) fifo.pop_front();
  EXPECT_TRUE(fifo.live().empty());
}

TEST(GrantFifo, ConsumptionSpansEntries) {
  GrantFifo fifo;
  std::uint32_t queued = 0;
  for (const std::uint32_t units : {3u, 4u, 5u}) {
    fifo.push_back({10.0 + units, units});
    queued += units;
  }
  // Five units finish the 3-unit grant and two of the 4-unit one.
  EXPECT_EQ(consume_grants(queued, fifo, 5), 5u);
  EXPECT_EQ(queued, 7u);
  ASSERT_EQ(fifo.live().size(), 2u);
  EXPECT_EQ(fifo.front().expiry_day, 14.0);
  EXPECT_EQ(fifo.front().units, 2u);
  // Consuming exactly an entry's remainder drops it.
  EXPECT_EQ(consume_grants(queued, fifo, 2), 2u);
  ASSERT_EQ(fifo.live().size(), 1u);
  EXPECT_EQ(fifo.front().expiry_day, 15.0);
  // More than is queued takes only what is there.
  EXPECT_EQ(consume_grants(queued, fifo, 50), 5u);
  EXPECT_EQ(queued, 0u);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(consume_grants(queued, fifo, 1), 0u);
}

}  // namespace
}  // namespace resmodel::boinc
