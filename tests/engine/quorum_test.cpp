// The quorum overlay's barrier replay (engine/quorum.h) in isolation:
//
//  1. Order: apply_day promises the same outcome for any input order of a
//     day's records. Days large enough for the radix sort, with clients
//     and seqs past 2^16 so every 16-bit digit pass runs and matters, and
//     one day whose clients share their high digit so that pass is
//     skipped.
//  2. Refusal: the restoring constructor refuses a blob whose values
//     apply_day would use as out-of-range indices. The blob's CRC is
//     valid, so only the coordinator can catch these.
#include "engine/quorum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/radix_sort.h"

namespace resmodel::engine {
namespace {

constexpr std::size_t kClients = 200000;

sim::ReplicationConfig two_of_three() {
  sim::ReplicationConfig config;
  config.enabled = true;
  config.replicas = 3;
  config.quorum = 2;
  config.deadline_days = 4.0;
  return config;
}

/// A consistent stream of day records: every resolution pops units the
/// client holds from an earlier grant, on this day or a previous one.
class RecordSource {
 public:
  RecordSource() : in_flight_(kClients, 0), seq_(kClients) {
    // Seqs spread over three high digits. Odd clients start one below a
    // digit boundary, so their replay order rests on the seq high digit.
    for (std::size_t c = 0; c < kClients; ++c) {
      seq_[c] = static_cast<std::uint32_t>(65536 * (1 + c % 3) - c % 2);
    }
  }

  /// Records for the given clients, in (client, seq) order.
  std::vector<DayRecord> day(const std::vector<std::uint32_t>& clients) {
    std::vector<DayRecord> out;
    for (const std::uint32_t c : clients) {
      if (in_flight_[c] > 0) resolve(c, out);
      const std::uint32_t granted = 1 + static_cast<std::uint32_t>(rng_() % 3);
      out.push_back({c, seq_[c]++, granted, DayRecordKind::kGrant, false});
      in_flight_[c] += granted;
      if (rng_() % 4 == 0) resolve(c, out);
    }
    return out;
  }

 private:
  void resolve(std::uint32_t c, std::vector<DayRecord>& out) {
    const std::uint32_t units =
        1 + static_cast<std::uint32_t>(rng_() % in_flight_[c]);
    const std::uint32_t roll = static_cast<std::uint32_t>(rng_() % 10);
    DayRecord r{c, seq_[c]++, units, DayRecordKind::kReport, roll < 6};
    if (roll == 7) r.kind = DayRecordKind::kLoss;
    if (roll >= 8) r.kind = DayRecordKind::kExpiry;
    out.push_back(r);
    in_flight_[c] -= units;
  }

  std::mt19937_64 rng_{20110620};
  std::vector<std::uint32_t> in_flight_;
  std::vector<std::uint32_t> seq_;
};

std::vector<std::byte> state_of(const QuorumCoordinator& q) {
  std::vector<std::byte> blob;
  q.serialize_state(blob);
  return blob;
}

TEST(QuorumCoordinator, ReplayIsIndependentOfRecordOrder) {
  // Days 0 and 2 span client high digits 0..3; day 1's clients all lie in
  // [2^16, 2^17), so the top digit is constant and its pass is skipped.
  std::vector<std::vector<std::uint32_t>> days(3);
  for (std::uint32_t i = 0; i < 6000; ++i) {
    days[0].push_back(i * 33);
    days[1].push_back(65536 + i * 10);
    days[2].push_back(i * 33 + 1);
  }
  RecordSource source;
  QuorumCoordinator sorted_q(two_of_three(), kClients);
  QuorumCoordinator shuffled_q(two_of_three(), kClients);
  std::mt19937_64 shuffle_rng(7);
  for (const std::vector<std::uint32_t>& clients : days) {
    std::vector<DayRecord> records = source.day(clients);
    ASSERT_GE(records.size(), util::kRadixSortCutoff);
    std::vector<DayRecord> shuffled = records;
    std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
    sorted_q.apply_day(std::move(records));
    shuffled_q.apply_day(std::move(shuffled));
    ASSERT_EQ(state_of(sorted_q), state_of(shuffled_q));
  }
  const QuorumOutcome out = shuffled_q.finish();
  EXPECT_TRUE(out.conserves_tasks());
  EXPECT_TRUE(out.conserves_replicas());
  EXPECT_GT(out.tasks_validated, 0u);
  EXPECT_GT(out.tasks_invalid + out.tasks_missed_deadline, 0u);
  EXPECT_GT(out.tasks_pending, 0u);
}

/// A coordinator after one day of grants to clients 0..9: 30 replicas of
/// 10 tasks, all in flight.
std::vector<std::byte> one_grant_day_blob() {
  QuorumCoordinator q(two_of_three(), 16);
  std::vector<DayRecord> records;
  for (std::uint32_t c = 0; c < 10; ++c) {
    records.push_back({c, 0, 3, DayRecordKind::kGrant, false});
  }
  q.apply_day(std::move(records));
  return state_of(q);
}

constexpr std::size_t kTasks = 10;

/// Offset of task 0's byte in the k-th u8 task column (assigned,
/// accounted, returned, correct_count, state): the blob opens with the
/// task count, then each column is a u64 length and its bytes.
std::size_t task_column(std::size_t k) {
  return 8 + (k + 1) * 8 + k * kTasks;
}

TEST(QuorumCoordinator, RestoreRoundTripsAnIntactBlob) {
  const std::vector<std::byte> blob = one_grant_day_blob();
  ASSERT_EQ(std::to_integer<std::uint8_t>(blob[task_column(0)]), 3);
  const QuorumCoordinator restored(two_of_three(), 16, blob);
  EXPECT_EQ(state_of(restored), blob);
  EXPECT_EQ(restored.finish().replicas_in_flight, 30u);
}

TEST(QuorumCoordinator, RestoreRefusesFifoTaskOutOfRange) {
  std::vector<std::byte> blob = one_grant_day_blob();
  // The last FIFO entry sits just before the twelve u64 outcome counters.
  const std::uint32_t bogus = 0x40000000u;
  std::memcpy(blob.data() + blob.size() - 12 * 8 - 4, &bogus, 4);
  EXPECT_THROW(QuorumCoordinator(two_of_three(), 16, blob),
               std::runtime_error);
}

TEST(QuorumCoordinator, RestoreRefusesCountsBeyondReplicas) {
  for (std::size_t column = 0; column < 4; ++column) {
    std::vector<std::byte> blob = one_grant_day_blob();
    blob[task_column(column)] = std::byte{4};
    EXPECT_THROW(QuorumCoordinator(two_of_three(), 16, blob),
                 std::runtime_error)
        << "column " << column;
  }
}

TEST(QuorumCoordinator, RestoreRefusesMoreAccountedThanAssigned) {
  std::vector<std::byte> blob = one_grant_day_blob();
  blob[task_column(0)] = std::byte{1};  // assigned 1, accounted 2
  blob[task_column(1)] = std::byte{2};
  EXPECT_THROW(QuorumCoordinator(two_of_three(), 16, blob),
               std::runtime_error);
}

TEST(QuorumCoordinator, RestoreRefusesUnknownTaskState) {
  std::vector<std::byte> blob = one_grant_day_blob();
  blob[task_column(4)] = std::byte{4};
  EXPECT_THROW(QuorumCoordinator(two_of_three(), 16, blob),
               std::runtime_error);
}

TEST(QuorumCoordinator, RestoreRefusesFifoThatDisagreesWithCounts) {
  // Task 0 claims one resolved replica, but all three are still in FIFOs:
  // a later report of that replica would count it twice.
  std::vector<std::byte> blob = one_grant_day_blob();
  blob[task_column(1)] = std::byte{1};
  EXPECT_THROW(QuorumCoordinator(two_of_three(), 16, blob),
               std::runtime_error);
}

}  // namespace
}  // namespace resmodel::engine
