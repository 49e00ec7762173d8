// Compiled with -fno-trapping-math (see src/CMakeLists.txt; the
// library-wide -ffp-contract=off applies too): the sweeps are branch-free
// FP selects that must if-convert and vectorize; every value this file
// produces is a pruning BOUND (consumers deflate by margin() before
// comparing), so contraction could not break correctness — the flags are
// uniform across the churn kernels for reproducibility between build
// configurations.
#include "churn/block_envelope.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace resmodel::churn {

// The dispatch kernels assume the gate's exact block and lookahead
// geometry (backend/kernels.h).
static_assert(backend::kKernelBlock == BoundGate::kBlock,
              "backend kernel block width != gate block width");
static_assert(backend::kGateMaxLevels == kMaxLookaheadLevels,
              "backend gate view level capacity != kMaxLookaheadLevels");

namespace {

constexpr float kInfF = std::numeric_limits<float>::infinity();

}  // namespace

void BoundGate::pack_lane(std::size_t pos, std::size_t host,
                          const sim::ScheduleState& state,
                          const CursorView& cursors) {
  inv_[pos] = static_cast<float>(state.ect_sorted_inv[pos]);
  // The comparison columns are PAD-INFLATED before conversion: a lane
  // that exactly fits its session (or exactly routes to level k) must
  // still take that arm after rounding, because that arm's value can
  // never exceed the true completion while a deeper arm's can. The pad
  // dwarfs both the conversion error and the w/target chain error, so
  // the inclusion direction is guaranteed; the spurious inclusions it
  // admits only lower the bound (sound).
  sess_[pos] = static_cast<float>(cursors.sess_rem[host] * kPadF32);
  ready_[pos] = static_cast<float>(cursors.ready[host]);
  next_[pos] = static_cast<float>(cursors.next_start[host]);
  accr_[pos] = static_cast<float>(cursors.accr[host]);
  const double* lv = cursors.levels.data() + host * 2 * levels_;
  for (std::size_t k = 0; k < levels_; ++k) {
    c_[k][pos] = static_cast<float>(lv[k] * kPadF32);
    phi_[k][pos] = static_cast<float>(lv[levels_ + k]);
  }
}

void BoundGate::eval_block(std::size_t blk, double task,
                           float* lb) const noexcept {
  // The sweep bodies live behind the backend dispatch table now
  // (src/backend/): the blocked arm is this function's former loop
  // nest, verbatim, in a TU with the same flags; the SIMD arms are
  // intrinsic twins that produce bit-identical lanes (kernels.h has the
  // exactness rules — the level routing and if-conversion notes moved
  // to kernels_blocked.cpp with the loops). This wrapper only assembles
  // the block's column view.
  const std::size_t lo = blk * kBlock;
  backend::GateBlockView view;
  view.inv = inv_.data() + lo;
  view.sess = sess_.data() + lo;
  view.ready = ready_.data() + lo;
  view.next = next_.data() + lo;
  view.accr = accr_.data() + lo;
  for (std::size_t k = 0; k < levels_; ++k) {
    view.c[k] = c_[k].data() + lo;
    view.phi[k] = phi_[k].data() + lo;
  }
  view.levels = levels_;
  view.checkpoint = policy_ == InterruptionPolicy::kCheckpoint;
  ops_->gate_sweep(view, static_cast<float>(task), lb);
}

std::pair<double, std::uint8_t> BoundGate::eval_block_min(
    std::size_t blk, double task) const noexcept {
  float lb[kBlock];
  eval_block(blk, task, lb);
  float m = lb[0];
  std::uint8_t arg = 0;
  for (std::size_t i = 1; i < kBlock; ++i) {
    if (lb[i] < m) {
      m = lb[i];
      arg = static_cast<std::uint8_t>(i);
    }
  }
  return {static_cast<double>(m), arg};
}

void BoundGate::rebuild_knots(std::size_t blk,
                              const sim::ScheduleState& state,
                              const CursorView& cursors) {
  const std::size_t lo = blk * kBlock;
  const std::size_t len = std::min(size_ - lo, kBlock);
  const double tmax = bucket_edges_.back();
  // Candidate knots = the block members' own breakpoints, in task-size
  // units: the fits->spill boundary at sess_rem / inv and (checkpoint
  // only) the level boundaries at (cum_k - accr) / inv. Positions are
  // sample points, nothing more — the values are evaluated at the
  // STORED (float-rounded) positions, so any rounding here is harmless.
  knot_scratch_.clear();
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t host = state.ect_order[lo + i];
    const double inv = state.ect_sorted_inv[lo + i];
    const double sess = cursors.sess_rem[host];
    if (std::isfinite(sess)) {
      const double t = sess / inv;
      if (t > 0.0 && t <= tmax) knot_scratch_.push_back(t);
    }
    if (policy_ != InterruptionPolicy::kCheckpoint) continue;
    const double accr = cursors.accr[host];
    const double* lv = cursors.levels.data() + host * 2 * levels_;
    for (std::size_t k = 0; k + 1 < levels_; ++k) {
      if (!std::isfinite(lv[k])) break;  // exhausted levels stay exhausted
      const double t = (lv[k] - accr) / inv;
      if (t > 0.0 && t <= tmax) knot_scratch_.push_back(t);
    }
  }
  std::sort(knot_scratch_.begin(), knot_scratch_.end());

  float* kt = knot_t_.data() + blk * kKnotCapacity;
  float* kv = knot_v_.data() + blk * kKnotCapacity;
  std::uint8_t* ka = knot_argmin_.data() + blk * kKnotCapacity;
  std::size_t count = 0;
  kt[count++] = 0.0f;  // universal anchor: min ready
  const std::size_t cands = knot_scratch_.size();
  const std::size_t take = std::min(cands, kKnotCapacity - 1);
  for (std::size_t j = 0; j < take; ++j) {
    // Even stride through the sorted candidates when over capacity.
    const std::size_t idx = cands <= kKnotCapacity - 1
                                ? j
                                : j * cands / take;
    const float t = static_cast<float>(knot_scratch_[idx]);
    if (t <= kt[count - 1]) continue;  // dedupe after rounding
    kt[count++] = t;
  }
  for (std::size_t k = 0; k < count; ++k) {
    const auto [v, arg] = eval_block_min(blk, static_cast<double>(kt[k]));
    kv[k] = static_cast<float>(v);
    ka[k] = arg;
  }
  knot_count_[blk] = static_cast<std::uint16_t>(count);
  stale_[blk] = 0;
}

void BoundGate::repair_knots(std::size_t blk, std::uint8_t lane) {
  // Only knots whose recorded minimum came from the reassigned lane can
  // be stale-low (the lane's completion function only moved up; every
  // other knot's stored minimum is untouched and still sound).
  const std::size_t base = blk * kKnotCapacity;
  const float* kt = knot_t_.data() + base;
  float* kv = knot_v_.data() + base;
  std::uint8_t* ka = knot_argmin_.data() + base;
  const std::size_t count = knot_count_[blk];
  for (std::size_t k = 0; k < count; ++k) {
    if (ka[k] != lane) continue;
    const auto [v, arg] = eval_block_min(blk, static_cast<double>(kt[k]));
    kv[k] = static_cast<float>(v);
    ka[k] = arg;
  }
}

void BoundGate::rebuild_coarse_row(std::size_t blk) {
  for (std::size_t k = 0; k < kBuckets; ++k) {
    coarse_[k * blocks_ + blk] = block_bound(blk, bucket_edges_[k]);
  }
}

void BoundGate::reset(const sim::ScheduleState& state,
                      const CursorView& cursors,
                      std::span<const double> tasks,
                      InterruptionPolicy policy) {
  policy_ = policy;
  blocks_ = state.block_count();
  size_ = state.size();
  bmin_inv_ = state.ect_block_min_inv.data();
  levels_ = cursors.levels_count;
  const std::size_t padded = blocks_ * kBlock;
  inv_.assign(padded, 0.0f);
  sess_.assign(padded, kInfF);
  ready_.assign(padded, kInfF);
  next_.assign(padded, kInfF);
  accr_.assign(padded, 0.0f);
  for (std::size_t k = 0; k < levels_; ++k) {
    c_[k].assign(padded, kInfF);
    phi_[k].assign(padded, kInfF);
  }
  for (std::size_t pos = 0; pos < size_; ++pos) {
    pack_lane(pos, state.ect_order[pos], state, cursors);
  }

  // Coarse edges: edge 0 is exactly 0 (its row entry is the min-ready
  // bound, valid for every positive task), the rest log-spaced over the
  // workload's size range.
  double tmin = std::numeric_limits<double>::infinity();
  double tmax = 0.0;
  for (const double t : tasks) {
    tmin = std::min(tmin, t);
    tmax = std::max(tmax, t);
  }
  if (!(tmin > 0.0) || !(tmax >= tmin)) {
    tmin = 1.0;
    tmax = 1.0;
  }
  bucket_edges_.resize(kBuckets);
  bucket_edges_[0] = 0.0;
  const double ratio = tmax / tmin;
  for (std::size_t k = 1; k < kBuckets; ++k) {
    bucket_edges_[k] =
        tmin * std::pow(ratio, static_cast<double>(k - 1) /
                                   static_cast<double>(kBuckets - 2));
  }

  coarse_.resize(kBuckets * blocks_);
  knot_t_.resize(blocks_ * kKnotCapacity);
  knot_v_.resize(blocks_ * kKnotCapacity);
  knot_argmin_.resize(blocks_ * kKnotCapacity);
  knot_count_.assign(blocks_, 0);
  stale_.assign(blocks_, 0);
  for (std::size_t b = 0; b < blocks_; ++b) {
    rebuild_knots(b, state, cursors);
    rebuild_coarse_row(b);
  }
}

void BoundGate::on_assign(std::size_t host, const sim::ScheduleState& state,
                          const CursorView& cursors) {
  const std::size_t pos = state.ect_pos[host];
  pack_lane(pos, host, state, cursors);
  const std::size_t blk = pos / kBlock;
  if (++stale_[blk] >= kStaleLimit) {
    // Lazy epoch: the knot positions have drifted from the block's
    // current breakpoints; re-derive them (values included).
    rebuild_knots(blk, state, cursors);
  } else {
    repair_knots(blk, static_cast<std::uint8_t>(pos - blk * kBlock));
  }
  rebuild_coarse_row(blk);
}

std::size_t BoundGate::bucket_of(double task) const noexcept {
  const auto it =
      std::upper_bound(bucket_edges_.begin(), bucket_edges_.end(), task);
  if (it == bucket_edges_.begin()) return 0;  // negative task: clamp
  return static_cast<std::size_t>(it - bucket_edges_.begin()) - 1;
}

double BoundGate::block_bound(std::size_t blk, double task) const noexcept {
  const float* kt = knot_t_.data() + blk * kKnotCapacity;
  const float* kv = knot_v_.data() + blk * kKnotCapacity;
  const std::size_t m = knot_count_[blk];
  const float t = static_cast<float>(task);
  // Last knot with position <= t. Knot 0 sits at exactly 0, so the
  // invariant kt[lo] <= t holds from the start (tasks are positive).
  std::size_t lo = 0;
  std::size_t hi = m;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (kt[mid] <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // (task - knot) can round a hair negative when float(task) snapped up
  // onto the knot; that only lowers the bound.
  return static_cast<double>(kv[lo]) +
         (task - static_cast<double>(kt[lo])) * bmin_inv_[blk];
}

void BoundGate::sweep_block(std::size_t blk, double task,
                            double* lb) const noexcept {
  float buf[kBlock];
  eval_block(blk, task, buf);
  for (std::size_t i = 0; i < kBlock; ++i) lb[i] = static_cast<double>(buf[i]);
}

double BoundGate::lane_bound(std::size_t pos, double task) const noexcept {
  double lb[kBlock];
  sweep_block(pos / kBlock, task, lb);
  return lb[pos % kBlock];
}

}  // namespace resmodel::churn
