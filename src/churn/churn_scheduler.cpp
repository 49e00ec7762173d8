// Compiled with -ffp-contract=off (library-wide, src/CMakeLists.txt): the
// blocked and reference selection paths must produce bit-identical
// completion times, which rules out the compiler fusing a + b * c into an
// fma in one loop but not the other. The interval-walk primitives are
// shared functions, and every blocked survivor resolves through
// completion_for — the same code the reference runs — so the results are
// identical by construction regardless of the gate's float32 bounds.
#include "churn/churn_scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

namespace resmodel::churn {

std::string to_string(InterruptionPolicy policy) {
  switch (policy) {
    case InterruptionPolicy::kCheckpoint: return "checkpoint";
    case InterruptionPolicy::kRestart: return "restart";
    case InterruptionPolicy::kAbandon: return "abandon";
  }
  return "unknown";
}

double checkpoint_completion(const IntervalTimeline& timeline,
                             std::size_t host, double start_on,
                             double work) noexcept {
  if (start_on >= timeline.end_day()) return start_on + work;
  const std::span<const double> s = timeline.starts(host);
  const std::span<const double> e = timeline.ends(host);
  std::size_t i = timeline.advance(host, start_on);
  double cur = start_on;
  double remaining = work;
  while (i < s.size()) {
    if (cur < s[i]) cur = s[i];
    const double avail = e[i] - cur;
    if (remaining <= avail) return cur + remaining;
    remaining -= avail;
    ++i;
  }
  // Out of generated sessions: the region up to the horizon is OFF and
  // the host counts as permanently ON from end_day() onward.
  return std::max(cur, timeline.end_day()) + remaining;
}

RestartOutcome restart_completion(const IntervalTimeline& timeline,
                                  std::size_t host, double start_on,
                                  double work) noexcept {
  RestartOutcome out;
  if (start_on >= timeline.end_day()) {
    out.completion = start_on + work;
    out.worked_days = work;
    return out;
  }
  const std::span<const double> s = timeline.starts(host);
  const std::span<const double> e = timeline.ends(host);
  std::size_t i = timeline.advance(host, start_on);
  double cur = start_on;
  while (i < s.size()) {
    if (cur < s[i]) cur = s[i];
    const double avail = e[i] - cur;
    if (work <= avail) {
      out.completion = cur + work;
      out.worked_days += work;
      return out;
    }
    // The session dies under the task: the attempt burned its remainder.
    out.worked_days += avail;
    ++out.interruptions;
    ++i;
  }
  out.completion = std::max(cur, timeline.end_day()) + work;
  out.worked_days += work;
  return out;
}

namespace {

/// One kAbandon attempt of `work` contiguous days starting at the ON
/// instant `start_on`: either it fits the current session (completed at
/// `at`, `burned` == work) or the session ends first (abandoned at `at`
/// == session end, `burned` == the fruitless ON time).
struct AttemptOutcome {
  bool completed = false;
  double at = 0.0;
  double burned = 0.0;
};

AttemptOutcome abandon_attempt(const IntervalTimeline& timeline,
                               std::size_t host, double start_on,
                               double work) noexcept {
  if (start_on >= timeline.end_day()) return {true, start_on + work, work};
  const std::size_t i = timeline.advance(host, start_on);
  const std::span<const double> s = timeline.starts(host);
  const std::span<const double> e = timeline.ends(host);
  if (i == s.size()) {
    // OFF until the horizon, permanently ON after. (Unreachable when
    // start_on comes from next_on, which snaps this region to end_day().)
    return {true, timeline.end_day() + work, work};
  }
  double cur = start_on;
  if (cur < s[i]) cur = s[i];
  const double avail = e[i] - cur;
  if (work <= avail) return {true, cur + work, work};
  return {false, e[i], avail};
}

}  // namespace

ChurnScheduler::ChurnScheduler(sim::ScheduleState& state,
                               const IntervalTimeline& timeline,
                               const ChurnSchedulerConfig& config)
    : state_(state),
      timeline_(timeline),
      config_(config),
      resolved_(backend::resolve(config.backend)),
      ops_(&backend::kernel_ops(resolved_.simd)),
      gate_(resolved_.simd) {
  if (state.size() != timeline.host_count()) {
    throw std::invalid_argument(
        "ChurnScheduler: state and timeline host counts differ");
  }
  if (config.lookahead_levels == 0 ||
      config.lookahead_levels > kMaxLookaheadLevels) {
    throw std::invalid_argument(
        "ChurnScheduler: lookahead_levels must be in [1, " +
        std::to_string(kMaxLookaheadLevels) + "]");
  }
  const std::size_t n = state_.size();
  ready_.resize(n);
  sess_rem_.resize(n);
  next_start_.resize(n);
  accr_ready_.resize(n);
  sess_idx_.resize(n);
  levels_.resize(n * 2 * config_.lookahead_levels);
  for (std::size_t h = 0; h < n; ++h) update_cursor(h);
}

ChurnScheduler::ChurnScheduler(sim::ScheduleState& state,
                               const ChurnScheduler& seed)
    : state_(state),
      timeline_(seed.timeline_),
      config_(seed.config_),
      resolved_(backend::resolve(seed.config_.backend)),
      ops_(&backend::kernel_ops(resolved_.simd)),
      ready_(seed.ready_),
      sess_rem_(seed.sess_rem_),
      next_start_(seed.next_start_),
      accr_ready_(seed.accr_ready_),
      sess_idx_(seed.sess_idx_),
      levels_(seed.levels_),
      gate_(resolved_.simd) {
  if (state.size() != timeline_.host_count()) {
    throw std::invalid_argument(
        "ChurnScheduler: state and seed host counts differ");
  }
}

void ChurnScheduler::update_cursor(std::size_t host) noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t L = config_.lookahead_levels;
  const double free = state_.free_at[host];
  double* lv = levels_.data() + host * 2 * L;
  if (free >= timeline_.end_day()) {
    // Beyond the horizon: permanently ON.
    ready_[host] = free;
    sess_rem_[host] = kInf;
    next_start_[host] = kInf;
    accr_ready_[host] = 0.0;
    sess_idx_[host] = 0;
    for (std::size_t k = 0; k < 2 * L; ++k) lv[k] = 0.0;
    return;
  }
  const std::size_t i = timeline_.advance(host, free);
  const std::span<const double> s = timeline_.starts(host);
  const std::span<const double> e = timeline_.ends(host);
  if (i == s.size()) {
    // OFF until the horizon, permanently ON after (next_on's convention).
    ready_[host] = timeline_.end_day();
    sess_rem_[host] = kInf;
    next_start_[host] = kInf;
    accr_ready_[host] = 0.0;
    sess_idx_[host] = 0;
    for (std::size_t k = 0; k < 2 * L; ++k) lv[k] = 0.0;
    return;
  }
  const std::span<const double> cum = timeline_.cum_ends(host);
  const double ready = s[i] <= free ? free : s[i];
  ready_[host] = ready;
  sess_rem_[host] = e[i] - ready;
  next_start_[host] = i + 1 < s.size() ? s[i + 1] : timeline_.end_day();
  accr_ready_[host] = cum[i] - sess_rem_[host];
  sess_idx_[host] = static_cast<std::uint32_t>(i);
  // Lookahead levels: session i+1+k's (cum, phi). Once the sessions run
  // out, the accrual continues at the horizon — phi jumps to
  // end_day - total_on and stays there (the beyond-sessions completion
  // is target + that phi for every deeper target), with cum = +inf so
  // the first exhausted level catches all remaining targets.
  const double total_on = cum.back();
  const double phi_beyond = timeline_.end_day() - total_on;
  for (std::size_t k = 0; k < L; ++k) {
    const std::size_t j = i + 1 + k;
    if (j < s.size()) {
      lv[k] = cum[j];
      lv[L + k] = e[j] - cum[j];
    } else {
      lv[k] = kInf;
      lv[L + k] = phi_beyond;
    }
  }
}

double ChurnScheduler::checkpoint_spill(std::size_t host,
                                        double target) const noexcept {
  const std::span<const double> cum = timeline_.cum_ends(host);
  const std::span<const double> e = timeline_.ends(host);
  // First session past the current one whose cumulative ON total reaches
  // the target accrual; sessions before it are consumed whole, so the
  // completion lies `cum[j] - target` before its end.
  const double* first = cum.data() + sess_idx_[host] + 1;
  const double* last = cum.data() + cum.size();
  const double* it = std::lower_bound(first, last, target);
  if (it == last) {
    const double total_on = cum.empty() ? 0.0 : cum.back();
    return timeline_.end_day() + (target - total_on);
  }
  return e[static_cast<std::size_t>(it - cum.data())] - (*it - target);
}

double ChurnScheduler::completion_for(
    std::size_t host, double work, InterruptionPolicy policy) const noexcept {
  // Fits the current session (or the host is permanently ON): the
  // completion is the literal `ready + work` — the same expression in
  // the blocked and reference kernels, so both agree bit for bit.
  if (policy == InterruptionPolicy::kAbandon || work <= sess_rem_[host]) {
    return ready_[host] + work;
  }
  if (policy == InterruptionPolicy::kCheckpoint) {
    const std::size_t L = config_.lookahead_levels;
    const double target = accr_ready_[host] + work;
    const double* lv = levels_.data() + host * 2 * L;
    for (std::size_t k = 0; k < L; ++k) {
      if (target <= lv[k]) return target + lv[L + k];
    }
    return checkpoint_spill(host, target);
  }
  return restart_completion(timeline_, host, ready_[host], work).completion;
}

void ChurnScheduler::rebuild_sorted_cursors() {
  const std::size_t n = state_.size();
  const std::size_t stride = 2 * config_.lookahead_levels;
  sres_ready_.resize(n);
  sres_sess_.resize(n);
  sres_accr_.resize(n);
  sres_levels_.resize(n * stride);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t h = state_.ect_order[j];
    sres_ready_[j] = ready_[h];
    sres_sess_[j] = sess_rem_[h];
    sres_accr_[j] = accr_ready_[h];
    const double* src = levels_.data() + h * stride;
    double* dst = sres_levels_.data() + j * stride;
    for (std::size_t k = 0; k < stride; ++k) dst[k] = src[k];
  }
}

void ChurnScheduler::update_sorted_cursor(std::size_t host) {
  const std::size_t stride = 2 * config_.lookahead_levels;
  const std::size_t pos = state_.ect_pos[host];
  sres_ready_[pos] = ready_[host];
  sres_sess_[pos] = sess_rem_[host];
  sres_accr_[pos] = accr_ready_[host];
  const double* src = levels_.data() + host * stride;
  double* dst = sres_levels_.data() + pos * stride;
  for (std::size_t k = 0; k < stride; ++k) dst[k] = src[k];
}

void ChurnScheduler::prime_gate_for_test(std::span<const double> tasks,
                                         InterruptionPolicy policy) {
  state_.ensure_ect_caches();
  gate_.reset(state_, cursor_view(), tasks, policy);
}

template <bool kBlocked>
std::uint32_t ChurnScheduler::select_ect(double task) {
  const InterruptionPolicy policy = step_policy_;
  ChurnScheduleTotals& totals = step_totals_;
  std::vector<double>& bounds = step_bounds_;
  const std::size_t n = state_.size();
  std::uint32_t best = 0;
  double best_done = std::numeric_limits<double>::infinity();
  {
    if constexpr (!kBlocked) {
      // The oracle: walk EVERY host's intervals, first-strict-improvement
      // pick (== smallest index among the argmin set).
      for (std::size_t h = 0; h < n; ++h) {
        const double work = task * state_.inv_rates[h];
        const double done = completion_for(h, work, policy);
        if (done < best_done) {
          best_done = done;
          best = static_cast<std::uint32_t>(h);
        }
      }
    } else {
      constexpr std::size_t kBlock = sim::ScheduleState::kBlockSize;
      constexpr std::size_t kGroup = BoundGate::kGroup;
      constexpr double margin = BoundGate::margin();
      const double* inv = state_.ect_sorted_inv.data();
      const std::uint32_t* order = state_.ect_order.data();
      const std::size_t blocks = state_.block_count();
      // The gate's grid row at the last position <= task, extended by
      // (task - position) * block_min_inv, lower-bounds every completion
      // in each block; the group summary lower-bounds every member's
      // bound. The tightest block is the warm start: it is evaluated
      // first so the incumbent is near-optimal before any other block
      // is gated. (Processing order is result-neutral: pruning only
      // skips hosts that cannot win or tie.)
      const std::size_t j = gate_.position_of(task);
      const double over = task - gate_.positions()[j];
      // The warm search returns the FIRST block attaining the row
      // minimum, so the sweep order (and with it the swept_blocks
      // counter) is arm-invariant. A dirty entry is stale-low, so the
      // warm block is refreshed and the search repeated until its entry
      // is exact: every other entry is then at least as high, stale or
      // not, so this is the block a fully repaired row would pick.
      std::size_t warm = gate_.first_argmin_block(j, over, bounds.data());
      while (gate_.refresh(warm, j)) {
        warm = gate_.first_argmin_block(j, over, bounds.data());
      }
      const auto sweep = [&](std::size_t b) {
        double lb[kBlock];
        gate_.sweep_block(b, task, lb);
        ++totals.swept_blocks;
        const std::size_t lo = b * kBlock;
        // Reduce to per-8-lane chunk minima: min is exact and order-free,
        // the fixed-size trees vectorize, and the chunk minima let the
        // resolution pass skip lanes eight at a time (the gate pads tail
        // lanes to +inf).
        constexpr std::size_t kChunks = kBlock / 8;
        double cmin[kChunks];
        for (std::size_t c = 0; c < kChunks; ++c) {
          const double* q = lb + c * 8;
          const double m01 = std::min(q[0], q[1]);
          const double m23 = std::min(q[2], q[3]);
          const double m45 = std::min(q[4], q[5]);
          const double m67 = std::min(q[6], q[7]);
          cmin[c] = std::min(std::min(m01, m23), std::min(m45, m67));
        }
        double m = cmin[0];
        for (std::size_t c = 1; c < kChunks; ++c) m = std::min(m, cmin[c]);
        if (m * margin > best_done) return;
        for (std::size_t c = 0; c < kChunks; ++c) {
          if (cmin[c] * margin > best_done) continue;
          for (std::size_t i = c * 8; i < c * 8 + 8; ++i) {
            // A lane whose deflated bound exceeds the incumbent cannot
            // win or tie (the margin absorbs the bound chain's rounding
            // slack). Survivors resolve through the sorted-layout DOUBLE
            // cursor copies — value-identical to completion_for's
            // per-host expressions (exact gathered copies, identical
            // arithmetic), so the selection is bit-identical to the
            // oracle no matter how the bounds were computed, without a
            // per-host random gather on the hot path.
            if (lb[i] * margin > best_done) continue;
            const std::size_t sp = lo + i;
            const std::uint32_t h = order[sp];
            const double work = task * inv[sp];
            double done;
            if (work <= sres_sess_[sp]) {
              done = sres_ready_[sp] + work;
            } else if (policy == InterruptionPolicy::kCheckpoint) {
              const std::size_t L = config_.lookahead_levels;
              const double target = sres_accr_[sp] + work;
              const double* lv = sres_levels_.data() + sp * 2 * L;
              std::size_t k = 0;
              while (k < L && target > lv[k]) ++k;
              done = k < L ? target + lv[L + k]
                           : checkpoint_spill(h, target);
            } else {
              done = restart_completion(timeline_, h, sres_ready_[sp], work)
                         .completion;
            }
            ++totals.resolved_lanes;
            if (done < best_done) {
              best_done = done;
              best = h;
            } else if (done == best_done && h < best) {
              best = h;
            }
          }
        }
      };
      sweep(warm);
      // The regular pass walks the groups in index order. A group whose
      // bound (from the last search, taken before any refresh below)
      // prunes holds only blocks whose own test prunes: each member's
      // bound is at least the group's and best_done only falls. The
      // members of the other groups are tested exactly as a full row
      // pass would test them.
      const std::size_t groups = gate_.group_count();
      for (std::size_t g = 0; g < groups; ++g) {
        if (bounds[g] * margin > best_done) continue;
        const std::size_t hi = std::min(blocks, (g + 1) * kGroup);
        for (std::size_t b = g * kGroup; b < hi; ++b) {
          // The warm block is done: every warm lane that could still win
          // was resolved there, and best_done only falls.
          if (b == warm ||
              gate_.block_bound(j, b, over) * margin > best_done) {
            continue;
          }
          // Admitted on a dirty entry: repair it and gate again on the
          // exact minimum (a stale entry that already prunes needs no
          // repair, the exact one could only prune harder).
          if (gate_.refresh(b, j) &&
              gate_.block_bound(j, b, over) * margin > best_done) {
            continue;
          }
          sweep(b);
        }
      }
    }
  }
  return best;
}

ChurnScheduleTotals ChurnScheduler::run(std::span<const double> tasks,
                                        InterruptionPolicy policy) {
  return run_stepped(tasks, policy, /*force_reference=*/false);
}

ChurnScheduleTotals ChurnScheduler::run_reference(
    std::span<const double> tasks, InterruptionPolicy policy) {
  return run_stepped(tasks, policy, /*force_reference=*/true);
}

ChurnScheduleTotals ChurnScheduler::run_stepped(std::span<const double> tasks,
                                                InterruptionPolicy policy,
                                                bool force_reference) {
  if (state_.size() == 0) return {};  // step() would index host 0
  begin_stepping(tasks, policy, {}, force_reference);
  // FIFO of task costs: kAbandon's interrupted tasks re-enter at the
  // back, so every queued task is attempted before any retry. Terminates
  // because each failed attempt burns one ON session of one host; past
  // its last generated session a host is permanently ON and every attempt
  // succeeds.
  std::deque<double> queue(tasks.begin(), tasks.end());
  while (!queue.empty()) {
    const double task = queue.front();
    queue.pop_front();
    if (!step(task).completed) queue.push_back(task);
  }
  return step_totals_;
}

void ChurnScheduler::begin_stepping(std::span<const double> tasks,
                                    InterruptionPolicy policy,
                                    std::span<const double> slowdown,
                                    bool force_reference) {
  step_policy_ = policy;
  step_totals_ = {};
  step_tasks_.assign(tasks.begin(), tasks.end());
  step_slowdown_.assign(slowdown.begin(), slowdown.end());
  // The scalar arm (or an explicit reference request) steps through the
  // full-scan oracle selection, every other arm through the blocked one.
  step_blocked_ =
      !force_reference && resolved_.arm != backend::Backend::kScalar;
  if (!step_blocked_) return;
  state_.ensure_ect_caches();
  if (policy == InterruptionPolicy::kAbandon) {
    ready_select_.emplace(state_, *ops_);
    ready_select_->load(ready_);
  } else {
    gate_.reset(state_, cursor_view(), step_tasks_, policy);
    rebuild_sorted_cursors();
    step_bounds_.resize(gate_.group_count());
  }
}

ChurnScheduler::StepOutcome ChurnScheduler::step(double task) {
  StepOutcome out;
  if (step_policy_ == InterruptionPolicy::kAbandon) {
    // Selection key = ready + task*inv, the exact optimistic completion
    // of a single attempt — no interval walk until the attempt resolves.
    const std::uint32_t best =
        step_blocked_
            ? ready_select_->select(task).host
            : sim::ect_select_reference(ready_, state_.inv_rates, task).host;
    const double slowdown =
        step_slowdown_.empty() ? 1.0 : step_slowdown_[best];
    const double work = task * state_.inv_rates[best] * slowdown;
    out.host = best;
    out.start = ready_[best];
    const AttemptOutcome attempt =
        abandon_attempt(timeline_, best, ready_[best], work);
    state_.busy_days[best] += attempt.burned;
    state_.free_at[best] = attempt.at;
    out.completion = attempt.at;
    out.worked_days = attempt.burned;
    out.completed = attempt.completed;
    out.session_crossed = !attempt.completed;
    if (attempt.completed) {
      step_totals_.total_cpu_days += work;
      step_totals_.makespan_days =
          std::max(step_totals_.makespan_days, attempt.at);
    } else {
      step_totals_.wasted_cpu_days += attempt.burned;
      ++step_totals_.interruptions;
    }
    update_cursor(best);
    if (step_blocked_) ready_select_->set(best, ready_[best]);
    return out;
  }

  // kCheckpoint / kRestart: select on the nominal rate, commit the
  // slowed-down execution. The gate's bounds cover the nominal
  // completions the selection compares, so pruning soundness is
  // untouched by the commit-side inflation; on_assign re-keys the
  // winner from its post-commit cursor as usual.
  const std::uint32_t best =
      step_blocked_ ? select_ect<true>(task) : select_ect<false>(task);
  const double slowdown = step_slowdown_.empty() ? 1.0 : step_slowdown_[best];
  const double work = task * state_.inv_rates[best] * slowdown;
  out.host = best;
  out.start = ready_[best];
  // sess_rem_ is the current session's remaining ON time (+inf past the
  // horizon): the execution crosses a session boundary iff the scaled
  // work overflows it — exactly the checkpoint-spill / restart-burn
  // trigger, and the crash model's loss condition.
  out.session_crossed = work > sess_rem_[best];
  double worked = work;
  if (step_policy_ == InterruptionPolicy::kCheckpoint) {
    out.completion = completion_for(best, work, step_policy_);
  } else {
    const RestartOutcome r =
        restart_completion(timeline_, best, ready_[best], work);
    out.completion = r.completion;
    worked = r.worked_days;
    step_totals_.interruptions += r.interruptions;
  }
  const double busy_before = state_.busy_days[best];
  state_.busy_days[best] += worked;
  state_.free_at[best] = out.completion;
  out.worked_days = state_.busy_days[best] - busy_before;
  step_totals_.total_cpu_days += work;
  step_totals_.wasted_cpu_days += worked - work;
  step_totals_.makespan_days =
      std::max(step_totals_.makespan_days, out.completion);
  update_cursor(best);
  if (step_blocked_) {
    update_sorted_cursor(best);
    gate_.on_assign(best, state_, cursor_view());
  }
  return out;
}

void ChurnScheduler::advance_time(double now) {
  const std::size_t n = state_.size();
  for (std::size_t h = 0; h < n; ++h) {
    if (state_.free_at[h] < now) {
      state_.free_at[h] = now;
      update_cursor(h);
    }
  }
  if (!step_blocked_) return;
  if (step_policy_ == InterruptionPolicy::kAbandon) {
    ready_select_->load(ready_);
  } else {
    gate_.reset(state_, cursor_view(), step_tasks_, step_policy_);
    rebuild_sorted_cursors();
  }
}

}  // namespace resmodel::churn
