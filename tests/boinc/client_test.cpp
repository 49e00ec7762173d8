#include "boinc/client.h"

#include <gtest/gtest.h>

#include <cmath>

namespace resmodel::boinc {
namespace {

trace::HostRecord spec_host() {
  trace::HostRecord h;
  h.id = 5;
  h.created_day = 100;
  h.last_contact_day = 400;  // death day
  h.n_cores = 4;
  h.memory_mb = 4096;
  h.dhrystone_mips = 5000;
  h.whetstone_mips = 2500;
  h.disk_avail_gb = 80;
  h.disk_total_gb = 200;
  h.cpu = trace::CpuFamily::kIntelXeon;
  h.os = trace::OsFamily::kLinux;
  return h;
}

ClientConfig default_config() {
  ClientConfig c;
  c.mean_contact_interval_days = 2.0;
  return c;
}

TEST(VirtualClient, FirstContactAtBirth) {
  VirtualClient client(spec_host(), default_config(), util::Rng(1));
  EXPECT_TRUE(client.alive());
  const SchedulerRequest r = client.make_request();
  EXPECT_EQ(r.host_id, 5u);
  EXPECT_EQ(r.day, 100);
}

TEST(VirtualClient, ContactsAdvanceMonotonically) {
  VirtualClient client(spec_host(), default_config(), util::Rng(2));
  double prev = -1.0;
  for (int i = 0; i < 20 && client.alive(); ++i) {
    const double day = client.next_contact_day();
    EXPECT_GT(day, prev);
    prev = day;
    (void)client.make_request();
  }
}

TEST(VirtualClient, DiesAfterDeathDay) {
  trace::HostRecord spec = spec_host();
  spec.last_contact_day = 103;  // short life
  VirtualClient client(spec, default_config(), util::Rng(3));
  int contacts = 0;
  while (client.alive() && contacts < 1000) {
    (void)client.make_request();
    ++contacts;
  }
  EXPECT_FALSE(client.alive());
  EXPECT_LT(contacts, 50);  // ~3 days at mean interval 2
}

TEST(VirtualClient, MeasurementsJitterAroundSpec) {
  ClientConfig config = default_config();
  config.benchmark_jitter_sigma = 0.05;
  VirtualClient client(spec_host(), config, util::Rng(4));
  double sum = 0.0;
  int n = 0;
  while (client.alive() && n < 100) {
    const SchedulerRequest r = client.make_request();
    EXPECT_GT(r.measurement.dhrystone_mips, 5000.0 * 0.7);
    EXPECT_LT(r.measurement.dhrystone_mips, 5000.0 * 1.4);
    sum += r.measurement.dhrystone_mips;
    ++n;
  }
  ASSERT_GT(n, 30);
  EXPECT_NEAR(sum / n, 5000.0, 200.0);
}

TEST(VirtualClient, StaticHardwareFieldsUnchanged) {
  VirtualClient client(spec_host(), default_config(), util::Rng(5));
  for (int i = 0; i < 10 && client.alive(); ++i) {
    const SchedulerRequest r = client.make_request();
    EXPECT_EQ(r.measurement.n_cores, 4);
    EXPECT_DOUBLE_EQ(r.measurement.memory_mb, 4096.0);
    EXPECT_EQ(r.measurement.cpu, trace::CpuFamily::kIntelXeon);
    EXPECT_EQ(r.measurement.os, trace::OsFamily::kLinux);
  }
}

TEST(VirtualClient, DiskDriftsButStaysBounded) {
  ClientConfig config = default_config();
  config.disk_drift_sigma = 0.2;
  VirtualClient client(spec_host(), config, util::Rng(6));
  while (client.alive()) {
    const SchedulerRequest r = client.make_request();
    ASSERT_GE(r.measurement.disk_avail_gb, 0.01);
    ASSERT_LE(r.measurement.disk_avail_gb, 200.0);  // total disk
  }
}

TEST(VirtualClient, CompletesQueuedWorkOverTime) {
  VirtualClient client(spec_host(), default_config(), util::Rng(7));
  (void)client.make_request();
  SchedulerReply reply;
  reply.granted_work_units = 5;
  client.handle_reply(reply);
  std::uint32_t completed = 0;
  while (client.alive()) {
    completed += client.make_request().completed_work_units;
    if (completed >= 5) break;
  }
  EXPECT_EQ(completed, 5u);
}

TEST(VirtualClient, AvailabilityDefersContactsButKeepsOrder) {
  ClientConfig config = default_config();
  config.model_availability = true;
  trace::HostRecord spec = spec_host();
  spec.last_contact_day = 1000;
  VirtualClient client(spec, config, util::Rng(9));
  double prev = -1.0;
  int contacts = 0;
  while (client.alive() && contacts < 200) {
    const double day = client.next_contact_day();
    ASSERT_GT(day, prev);
    prev = day;
    (void)client.make_request();
    ++contacts;
  }
  EXPECT_GT(contacts, 10);
}

TEST(VirtualClient, AvailabilityStretchesContactIntervals) {
  // With OFF periods interleaved, the realized mean gap between contacts
  // must exceed the configured exponential mean.
  ClientConfig plain = default_config();
  ClientConfig with_avail = default_config();
  with_avail.model_availability = true;
  // Long outages to make the effect unambiguous.
  with_avail.availability.off_lognormal_mu = 0.0;  // median 1 day off

  trace::HostRecord spec = spec_host();
  spec.last_contact_day = 3000;

  const auto mean_gap = [&spec](const ClientConfig& config,
                                std::uint64_t seed) {
    VirtualClient client(spec, config, util::Rng(seed));
    double first = client.next_contact_day(), last = first;
    int contacts = 0;
    while (client.alive() && contacts < 300) {
      last = client.next_contact_day();
      (void)client.make_request();
      ++contacts;
    }
    return (last - first) / contacts;
  };
  EXPECT_GT(mean_gap(with_avail, 11), 1.25 * mean_gap(plain, 11));
}

TEST(VirtualClient, BenchmarksConstantWithinAvailabilitySession) {
  // Under the availability model the client benchmarks once per ON
  // session, not per contact: with sessions much longer than the contact
  // interval, consecutive contacts must repeat the exact benchmark pair,
  // and the value must still change across session boundaries eventually.
  ClientConfig config = default_config();
  config.model_availability = true;
  config.mean_contact_interval_days = 0.5;
  // Near-deterministic ~20-day sessions (Weibull k=5) with ~1-day gaps.
  config.availability.on_weibull_k = 5.0;
  config.availability.on_weibull_lambda = 20.0;
  config.availability.off_lognormal_mu = 0.0;
  config.availability.off_lognormal_sigma = 0.3;
  trace::HostRecord spec = spec_host();
  spec.last_contact_day = 3000;
  VirtualClient client(spec, config, util::Rng(17));
  int repeats = 0, changes = 0;
  double prev_dhry = 0.0, prev_whet = 0.0;
  for (int i = 0; i < 300 && client.alive(); ++i) {
    const SchedulerRequest r = client.make_request();
    if (i > 0) {
      const bool same = r.measurement.dhrystone_mips == prev_dhry &&
                        r.measurement.whetstone_mips == prev_whet;
      // The pair moves together or not at all — never one without the
      // other.
      EXPECT_EQ(r.measurement.dhrystone_mips == prev_dhry,
                r.measurement.whetstone_mips == prev_whet);
      same ? ++repeats : ++changes;
    }
    prev_dhry = r.measurement.dhrystone_mips;
    prev_whet = r.measurement.whetstone_mips;
  }
  // ~40 contacts per session: repeats dominate, but boundaries redraw.
  EXPECT_GT(repeats, 10 * changes);
  EXPECT_GT(changes, 0);
}

TEST(VirtualClient, PerContactJitterWithoutAvailabilityModel) {
  // Without the session structure the jitter stays per-contact: two
  // consecutive measurements are (almost surely) distinct.
  VirtualClient client(spec_host(), default_config(), util::Rng(18));
  const double first = client.make_request().measurement.dhrystone_mips;
  const double second = client.make_request().measurement.dhrystone_mips;
  EXPECT_NE(first, second);
}

TEST(VirtualClient, NoWorkReportedWithoutGrants) {
  VirtualClient client(spec_host(), default_config(), util::Rng(8));
  for (int i = 0; i < 5 && client.alive(); ++i) {
    EXPECT_EQ(client.make_request().completed_work_units, 0u);
  }
}

TEST(VirtualClient, OffIntervalDeferralAcrossDeathDayKillsHost) {
  // A contact that lands in an OFF interval straddling the death day is
  // deferred past last_contact_day: the host must report dead rather
  // than contact from beyond the grave, and the deferred day must still
  // be ordered after every prior contact.
  ClientConfig config = default_config();
  config.model_availability = true;
  // Near-permanent outages: median e^4 ~ 55 days off vs 1-day sessions,
  // so a short-lived host is all but guaranteed to defer past its death.
  config.availability.off_lognormal_mu = 4.0;
  trace::HostRecord spec = spec_host();
  spec.last_contact_day = 110;  // 10-day life
  bool saw_deferred_death = false;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    VirtualClient client(spec, config, util::Rng(seed));
    double prev = -1.0;
    int contacts = 0;
    while (client.alive() && contacts < 500) {
      ASSERT_GT(client.next_contact_day(), prev);
      prev = client.next_contact_day();
      (void)client.make_request();
      ++contacts;
    }
    ASSERT_FALSE(client.alive());
    ASSERT_LT(contacts, 500);
    // The killing deferral: the next (never-made) contact is beyond the
    // death day, strictly later than the last real contact.
    if (client.next_contact_day() > spec.last_contact_day + 1.0) {
      EXPECT_GT(client.next_contact_day(), prev - 1e-12);
      saw_deferred_death = true;
    }
  }
  EXPECT_TRUE(saw_deferred_death);
}

TEST(VirtualClient, ZeroRequestedWorkSecondsIsValidAndRequestsNothing) {
  ClientConfig config = default_config();
  config.work_request_seconds = 0.0;
  VirtualClient client(spec_host(), config, util::Rng(12));
  for (int i = 0; i < 5 && client.alive(); ++i) {
    EXPECT_DOUBLE_EQ(client.make_request().requested_work_seconds, 0.0);
  }
}

TEST(VirtualClient, ConfigValidationRejectsBadSigmasAndIntervals) {
  const auto reject = [](ClientConfig config) {
    EXPECT_THROW(VirtualClient(spec_host(), config, util::Rng(1)),
                 std::invalid_argument);
  };
  ClientConfig negative_jitter = default_config();
  negative_jitter.benchmark_jitter_sigma = -0.01;
  reject(negative_jitter);
  ClientConfig negative_drift = default_config();
  negative_drift.disk_drift_sigma = -1e-9;
  reject(negative_drift);
  ClientConfig zero_interval = default_config();
  zero_interval.mean_contact_interval_days = 0.0;
  reject(zero_interval);
  ClientConfig negative_request = default_config();
  negative_request.work_request_seconds = -1.0;
  reject(negative_request);
  ClientConfig sub_unit_slowdown = default_config();
  sub_unit_slowdown.straggler_slowdown = 0.5;
  reject(sub_unit_slowdown);
  // Crash faults need availability sessions to die at.
  ClientConfig crash_without_sessions = default_config();
  crash_without_sessions.fault = sim::FaultType::kCrash;
  reject(crash_without_sessions);
  // NaN sigmas must not sneak past the comparisons.
  ClientConfig nan_sigma = default_config();
  nan_sigma.benchmark_jitter_sigma = std::nan("");
  reject(nan_sigma);
}

TEST(VirtualClient, HonestClientShipsCanonicalDigest) {
  VirtualClient client(spec_host(), default_config(), util::Rng(13));
  (void)client.make_request();
  SchedulerReply reply;
  reply.granted_work_units = 8;
  client.handle_reply(reply);
  while (client.alive()) {
    const SchedulerRequest r = client.make_request();
    if (r.completed_work_units == 0) {
      EXPECT_EQ(r.result_digest, 0u);
      continue;
    }
    EXPECT_EQ(r.result_digest,
              sim::canonical_digest(
                  result_payload(r.host_id, r.completed_work_units)));
    break;
  }
}

TEST(VirtualClient, CorrupterClientShipsWrongDigest) {
  ClientConfig config = default_config();
  config.fault = sim::FaultType::kCorrupter;
  VirtualClient client(spec_host(), config, util::Rng(13));
  (void)client.make_request();
  SchedulerReply reply;
  reply.granted_work_units = 8;
  client.handle_reply(reply);
  while (client.alive()) {
    const SchedulerRequest r = client.make_request();
    if (r.completed_work_units == 0) continue;
    EXPECT_NE(r.result_digest,
              sim::canonical_digest(
                  result_payload(r.host_id, r.completed_work_units)));
    break;
  }
}

TEST(VirtualClient, StragglerCompletesSlowerThanHonestTwin) {
  // Same seed, same grants: the straggler's cumulative completions must
  // lag the honest client's at every contact (ties allowed early on).
  const auto total_completed = [](ClientConfig config) {
    VirtualClient client(spec_host(), config, util::Rng(21));
    (void)client.make_request();
    SchedulerReply reply;
    reply.granted_work_units = 16;
    std::uint32_t completed = 0;
    for (int i = 0; i < 40 && client.alive(); ++i) {
      client.handle_reply(reply);  // keep the queue topped up
      completed += client.make_request().completed_work_units;
    }
    return completed;
  };
  ClientConfig honest = default_config();
  ClientConfig slow = default_config();
  slow.fault = sim::FaultType::kStraggler;
  slow.straggler_slowdown = 8.0;
  EXPECT_LT(total_completed(slow), total_completed(honest));
  EXPECT_GT(total_completed(slow), 0u);
}

TEST(VirtualClient, CrashClientLosesQueueAcrossSessionDeath) {
  ClientConfig config = default_config();
  config.model_availability = true;
  config.fault = sim::FaultType::kCrash;
  // Short sessions and long outages force session deaths between
  // contacts.
  config.availability.on_weibull_lambda = 0.5;
  config.availability.off_lognormal_mu = 0.5;
  trace::HostRecord spec = spec_host();
  spec.last_contact_day = 2000;
  VirtualClient client(spec, config, util::Rng(31));
  SchedulerReply reply;
  reply.granted_work_units = 16;
  std::uint64_t lost = 0;
  for (int i = 0; i < 400 && client.alive(); ++i) {
    client.handle_reply(reply);
    const SchedulerRequest r = client.make_request();
    lost += r.lost_work_units;
    // A crash report is all-or-nothing: the batch that died completes 0.
    if (r.lost_work_units > 0) {
      EXPECT_EQ(r.completed_work_units, 0u);
    }
  }
  EXPECT_GT(lost, 0u);
}

}  // namespace
}  // namespace resmodel::boinc
