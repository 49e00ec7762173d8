// Columnar per-host ON/OFF interval store — the event substrate of the
// churn subsystem.
//
// synth::AvailabilityModel generates one host's alternating-renewal ON
// intervals as a vector<AvailabilityInterval>; a population-scale churn
// simulation needs a hundred thousand of those timelines queried millions
// of times from the scheduling hot loop. IntervalTimeline compiles them
// into a CSR-style columnar layout — per-host offsets into flat
// `start_day` / `end_day` columns — so a host's intervals are one
// contiguous, binary-searchable slice instead of a pointer-chased vector
// of structs:
//
//   offsets_:  [0, n_0, n_0+n_1, ...]          host h owns [offsets_[h], offsets_[h+1])
//   starts_:   [h0.s0, h0.s1, ... h1.s0, ...]  sorted ascending within a host
//   ends_:     [h0.e0, h0.e1, ... h1.e0, ...]  ends_[i] > starts_[i], disjoint
//   cum_ends_: running ON-day total through each interval's end (per host)
//
// The cum_ends column turns checkpoint-style accrual queries into a
// single binary search: "when has this host accumulated T ON-days?" is
// lower_bound over a prefix-sum instead of an interval-by-interval walk.
//
// Generation forks the caller's rng once per host, in host order, BEFORE
// any interval is sampled — the same consumption contract as the scalar
// availability derate in sim::compute_host_rates — so the per-host
// streams are a pure function of (rng state, host index) and the parallel
// fill is bit-identical for any thread count.
//
// Beyond-horizon convention: the timeline covers [start_day, end_day);
// from end_day onward every host counts as permanently ON. Schedules that
// outrun the generated horizon therefore stay finite and well-defined
// (and optimistic — grow the horizon if the tail matters).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "synth/availability.h"
#include "util/rng.h"
#include "util/uninit_vector.h"

namespace resmodel::churn {

class IntervalTimeline {
 public:
  IntervalTimeline() = default;

  /// Generates `host_count` timelines over [start_day, end_day) from one
  /// shared availability model. Forks `rng` once per host in host order,
  /// then fills hosts in parallel chunks straight into the CSR columns
  /// (threads == 0 uses the hardware concurrency; the result is
  /// identical for any thread count, and to from_intervals() over the
  /// same per-host draws).
  static IntervalTimeline generate(const synth::AvailabilityModel& model,
                                   std::size_t host_count, double start_day,
                                   double end_day, util::Rng& rng,
                                   synth::StartMode mode =
                                       synth::StartMode::kOnAtStart,
                                   int threads = 0);

  /// Per-host-parameter overload (the copula-coupled path): host h's
  /// intervals come from AvailabilityModel(params[h]). Same fork order
  /// and thread-count invariance as the shared-model overload.
  static IntervalTimeline generate(
      std::span<const synth::AvailabilityParams> params, double start_day,
      double end_day, util::Rng& rng,
      synth::StartMode mode = synth::StartMode::kOnAtStart, int threads = 0);

  /// Compiles an already-materialized vector-of-vectors representation
  /// (round-trip adapter; intervals must be sorted and disjoint per host).
  static IntervalTimeline from_intervals(
      const std::vector<std::vector<synth::AvailabilityInterval>>& per_host,
      double start_day, double end_day);

  std::size_t host_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t interval_count(std::size_t host) const noexcept {
    return static_cast<std::size_t>(offsets_[host + 1] - offsets_[host]);
  }
  std::size_t total_intervals() const noexcept { return starts_.size(); }
  double start_day() const noexcept { return start_; }
  double end_day() const noexcept { return end_; }

  /// Host h's interval-start / interval-end column slices.
  std::span<const double> starts(std::size_t host) const noexcept {
    return {starts_.data() + offsets_[host],
            starts_.data() + offsets_[host + 1]};
  }
  std::span<const double> ends(std::size_t host) const noexcept {
    return {ends_.data() + offsets_[host], ends_.data() + offsets_[host + 1]};
  }
  /// Cumulative ON days through the end of each of host's intervals
  /// (ascending; the last entry is the host's total generated ON time).
  std::span<const double> cum_ends(std::size_t host) const noexcept {
    return {cum_ends_.data() + offsets_[host],
            cum_ends_.data() + offsets_[host + 1]};
  }

  /// The advance cursor: index (into the host's slice) of the first
  /// interval with end_day > day — the interval containing `day`, or the
  /// next one after it; interval_count(host) when none remains. O(log n)
  /// binary search over the contiguous ends column.
  std::size_t advance(std::size_t host, double day) const noexcept;

  /// Earliest time >= day at which `host` is ON, under the beyond-horizon
  /// convention (always ON from end_day() onward, so the result is never
  /// missing). O(log n).
  double next_on(std::size_t host, double day) const noexcept;

  /// Fraction of [lo, hi) covered by host's ON intervals (0 for a
  /// degenerate window). The columnar twin of synth::availability_fraction.
  double fraction(std::size_t host, double lo, double hi) const noexcept;

  /// Host h's intervals as the AoS representation (round-trip adapter for
  /// tests and legacy consumers).
  std::vector<synth::AvailabilityInterval> host_intervals(
      std::size_t host) const;

 private:
  /// Shared body of both generate() overloads (`params` holds one entry
  /// when `shared_params`, else one per host).
  static IntervalTimeline generate_impl(
      std::span<const synth::AvailabilityParams> params, bool shared_params,
      std::size_t host_count, double start_day, double end_day,
      util::Rng& rng, synth::StartMode mode, int threads);

  std::vector<std::uint64_t> offsets_;  ///< host_count + 1 entries
  // Sized without a zero-fill: both builders write every slot, and
  // generate() does so in parallel, first-touching the pages.
  util::UninitVector<double> starts_;
  util::UninitVector<double> ends_;
  util::UninitVector<double> cum_ends_;
  double start_ = 0.0;
  double end_ = 0.0;
};

}  // namespace resmodel::churn
