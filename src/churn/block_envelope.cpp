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
static_assert(BoundGate::kGridSize <= 64,
              "one dirty bit per grid position in a 64-bit mask");

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

void BoundGate::eval_entry(std::size_t blk, std::size_t j) noexcept {
  float lb[kBlock];
  eval_block(blk, positions_[j], lb);
  float m = lb[0];
  std::uint8_t arg = 0;
  for (std::size_t i = 1; i < kBlock; ++i) {
    if (lb[i] < m) {
      m = lb[i];
      arg = static_cast<std::uint8_t>(i);
    }
  }
  grid_[j * blocks_ + blk] = static_cast<double>(m);
  argmin_[blk * kGridSize + j] = arg;
}

void BoundGate::eval_group(std::size_t g, std::size_t j) noexcept {
  const std::size_t lo = g * kGroup;
  const std::size_t len = std::min(blocks_ - lo, kGroup);
  gmin_[j * groups_ + g] = ops_->column_min(row(j) + lo, len);
}

bool BoundGate::refresh(std::size_t blk, std::size_t j) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << j;
  if ((dirty_[blk] & bit) == 0) return false;
  eval_entry(blk, j);
  eval_group(blk / kGroup, j);
  dirty_[blk] &= ~bit;
  return true;
}

std::size_t BoundGate::first_argmin_block(std::size_t j, double over,
                                          double* gb) const noexcept {
  // Both passes run through the dispatch table's first-argmin row
  // kernel, once over the group row and once per expanded group.
  const double* grow = row(j);
  double bounds[kGroup];
  std::size_t best = std::numeric_limits<std::size_t>::max();
  double m = std::numeric_limits<double>::infinity();
  const auto expand = [&](std::size_t g) {
    const std::size_t lo = g * kGroup;
    const std::size_t i = ops_->row_bounds_argmin(
        grow + lo, bmin_inv_.data() + lo, over,
        std::min(blocks_ - lo, kGroup), bounds);
    if (bounds[i] < m || (bounds[i] == m && lo + i < best)) {
      m = bounds[i];
      best = lo + i;
    }
  };
  // The tightest group usually holds the answer, but not always: its
  // bound mixes the minimum entry of one member with the minimum inv of
  // another. Every group whose bound does not exceed the incumbent may
  // hold a lower bound, or an equal one at a lower index, so each is
  // expanded too (<=, not <: the tie-break needs the equal ones).
  const std::size_t tightest = ops_->row_bounds_argmin(
      group_row(j), ginv_.data(), over, groups_, gb);
  expand(tightest);
  for (std::size_t g = 0; g < groups_; ++g) {
    if (g != tightest && gb[g] <= m) expand(g);
  }
  return best;
}

std::vector<double> BoundGate::grid_positions(std::span<const double> tasks) {
  std::vector<double> sorted;
  sorted.reserve(tasks.size());
  for (const double t : tasks) {
    // Positive and float-representable in range (drops NaN and inf).
    if (t > 0.0 && t <= std::numeric_limits<float>::max()) {
      sorted.push_back(t);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> positions = {0.0};  // anchors every task: min ready
  const std::size_t n = sorted.size();
  for (std::size_t k = 0; n > 0 && k + 1 < kGridSize; ++k) {
    const double q = sorted[k * n / (kGridSize - 1)];
    float f = static_cast<float>(q);
    if (static_cast<double>(f) > q) f = std::nextafter(f, 0.0f);
    const double p = static_cast<double>(f);
    if (p > positions.back()) positions.push_back(p);
  }
  return positions;
}

void BoundGate::reset(const sim::ScheduleState& state,
                      const CursorView& cursors,
                      std::span<const double> tasks,
                      InterruptionPolicy policy) {
  policy_ = policy;
  blocks_ = state.block_count();
  size_ = state.size();
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

  positions_ = grid_positions(tasks);
  grid_.resize(positions_.size() * blocks_);
  argmin_.assign(blocks_ * kGridSize, 0);
  dirty_.assign(blocks_, 0);
  for (std::size_t b = 0; b < blocks_; ++b) {
    for (std::size_t j = 0; j < positions_.size(); ++j) eval_entry(b, j);
  }

  groups_ = (blocks_ + kGroup - 1) / kGroup;
  bmin_inv_ = state.ect_block_min_inv;
  ginv_.resize(groups_);
  gmin_.resize(positions_.size() * groups_);
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::size_t lo = g * kGroup;
    ginv_[g] = ops_->column_min(bmin_inv_.data() + lo,
                                std::min(blocks_ - lo, kGroup));
    for (std::size_t j = 0; j < positions_.size(); ++j) eval_group(g, j);
  }
}

void BoundGate::on_assign(std::size_t host, const sim::ScheduleState& state,
                          const CursorView& cursors) {
  const std::size_t pos = state.ect_pos[host];
  pack_lane(pos, host, state, cursors);
  // Only entries whose recorded minimum came from the reassigned lane
  // can be stale-low (its completion function only moved up; every
  // other entry's minimum is untouched and still sound).
  const std::size_t blk = pos / kBlock;
  const auto lane = static_cast<std::uint8_t>(pos - blk * kBlock);
  const std::uint8_t* arg = argmin_.data() + blk * kGridSize;
  std::uint64_t mask = 0;
  for (std::size_t j = 0; j < positions_.size(); ++j) {
    mask |= static_cast<std::uint64_t>(arg[j] == lane) << j;
  }
  dirty_[blk] |= mask;
}

std::size_t BoundGate::position_of(double task) const noexcept {
  const auto it =
      std::upper_bound(positions_.begin(), positions_.end(), task);
  if (it == positions_.begin()) return 0;  // negative task: clamp
  return static_cast<std::size_t>(it - positions_.begin()) - 1;
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
