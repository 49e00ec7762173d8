#include "sim/allocator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/parallel.h"
#include "util/radix_sort.h"

namespace resmodel::sim {

namespace {

/// A preference entry packs a 32-bit monotone sort key (high half) with
/// the host index (low half), so ascending uint64 order IS "descending
/// score, then ascending host index" — one integer compare, 8-byte radix
/// scatters, and the deterministic tie-break built into the value.
constexpr std::uint64_t kIndexMask = 0xFFFFFFFFull;

/// Maps a score to a 32-bit key whose *ascending* unsigned order is the
/// *descending* float(score) order: the classic sign-flip transform,
/// complemented, with -0.0 normalized onto +0.0 first. double->float
/// rounding is monotone, so equal doubles always share a key and unequal
/// doubles can only collide when they round to the same float — those
/// rare runs are repaired by refine_ties() against the exact scores.
std::uint32_t descending_key(double score) noexcept {
  const float narrowed = static_cast<float>(score + 0.0);
  std::uint32_t bits;
  std::memcpy(&bits, &narrowed, sizeof(bits));
  bits = (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
  return ~bits;
}

/// Re-sorts every run of equal 32-bit keys by the exact rule (descending
/// double score, ascending host index). Within a run the packed low
/// halves are the indices, so once scores tie the plain uint64 compare
/// finishes the job.
void refine_ties(std::vector<std::uint64_t>& pref, const double* scores) {
  const std::size_t n = pref.size();
  std::size_t run = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (i < n && (pref[i] >> 32) == (pref[run] >> 32)) continue;
    if (i - run > 1) {
      std::sort(pref.begin() + run, pref.begin() + i,
                [scores](std::uint64_t x, std::uint64_t y) {
                  const double sx = scores[x & kIndexMask];
                  const double sy = scores[y & kIndexMask];
                  if (sx != sy) return sx > sy;
                  return x < y;
                });
    }
    run = i;
  }
}

/// Sorts the packed preference entries ascending (= descending score,
/// ascending index) with a stable radix sort over the key half only: the
/// low (index) half never needs a pass because entries enter in
/// ascending host index and the stable sort keeps them that way.
void sort_preferences(std::vector<std::uint64_t>& pref,
                      const double* scores) {
  util::radix_sort<32>(pref, [](std::uint64_t e) { return e >> 32; });
  refine_ties(pref, scores);
}

/// The shared greedy selection loop: applications take turns claiming the
/// best unassigned host from their sorted preference list. `index_at`
/// resolves preference position to host index; `utility_at` to the
/// Cobb-Douglas utility of that host.
template <typename IndexAt, typename UtilityAt>
AllocationResult select_round_robin(std::size_t a_count, std::size_t h_count,
                                    IndexAt index_at, UtilityAt utility_at) {
  AllocationResult result;
  result.total_utility.assign(a_count, 0.0);
  result.hosts_assigned.assign(a_count, 0);
  result.assignment.assign(h_count, a_count);  // sentinel: unassigned

  std::vector<std::size_t> cursor(a_count, 0);  // position in preference list
  std::size_t remaining = h_count;
  std::size_t turn = 0;
  while (remaining > 0) {
    const std::size_t a = turn % a_count;
    ++turn;
    std::size_t& pos = cursor[a];
    while (pos < h_count && result.assignment[index_at(a, pos)] != a_count) {
      ++pos;
    }
    if (pos >= h_count) continue;  // this app exhausted its list
    const std::size_t h = index_at(a, pos);
    result.assignment[h] = a;
    result.total_utility[a] += utility_at(a, pos);
    ++result.hosts_assigned[a];
    --remaining;
  }
  return result;
}

}  // namespace

AllocationResult allocate_round_robin(std::span<const ApplicationSpec> apps,
                                      const HostResourcesSoA& hosts,
                                      int threads,
                                      backend::Backend backend) {
  if (apps.empty()) {
    throw std::invalid_argument("allocate_round_robin: no applications");
  }
  if (backend::resolve(backend).arm == backend::Backend::kScalar) {
    // The scalar arm IS the retained pow-based oracle.
    const std::vector<HostResources> aos = hosts.to_hosts();
    return allocate_round_robin_reference(apps, aos);
  }
  const std::size_t a_count = apps.size();
  const std::size_t h_count = hosts.size();
  if (h_count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "allocate_round_robin: host count exceeds 32-bit preference index");
  }

  // The adapters precompute the log columns once per host set; a
  // hand-assembled SoA without them gets local log columns here (the raw
  // columns are never copied).
  std::vector<double> local_logs[5];
  const double* log_c;
  const double* log_m;
  const double* log_i;
  const double* log_f;
  const double* log_d;
  if (hosts.logs_ready()) {
    log_c = hosts.log_cores.data();
    log_m = hosts.log_memory_mb.data();
    log_i = hosts.log_dhrystone_mips.data();
    log_f = hosts.log_whetstone_mips.data();
    log_d = hosts.log_disk_avail_gb.data();
  } else {
    local_logs[0] = log_utility_column(hosts.cores);
    local_logs[1] = log_utility_column(hosts.memory_mb);
    local_logs[2] = log_utility_column(hosts.dhrystone_mips);
    local_logs[3] = log_utility_column(hosts.whetstone_mips);
    local_logs[4] = log_utility_column(hosts.disk_avail_gb);
    log_c = local_logs[0].data();
    log_m = local_logs[1].data();
    log_i = local_logs[2].data();
    log_f = local_logs[3].data();
    log_d = local_logs[4].data();
  }

  // Score+sort phase, one independent job per application; the work
  // depends only on the app, so the result is thread-count invariant.
  std::vector<std::vector<std::uint64_t>> preference(a_count);
  std::vector<std::vector<double>> scores(a_count);
  util::parallel_for(a_count, threads, [&](std::size_t a) {
    const ApplicationSpec& app = apps[a];
    scores[a].resize(h_count);
    preference[a].resize(h_count);
    // The fused sweep (autovectorized): five contiguous columns in, one
    // packed entry out, summed left to right. The exponents are hoisted
    // into locals so the stores cannot alias them.
    const double w0 = app.alpha;
    const double w1 = app.beta;
    const double w2 = app.gamma;
    const double w3 = app.delta;
    const double w4 = app.epsilon;
    double* score = scores[a].data();
    std::uint64_t* pref = preference[a].data();
    for (std::size_t h = 0; h < h_count; ++h) {
      const double s = w0 * log_c[h] + w1 * log_m[h] + w2 * log_i[h] +
                       w3 * log_f[h] + w4 * log_d[h];
      score[h] = s;
      pref[h] = (static_cast<std::uint64_t>(descending_key(s)) << 32) |
                static_cast<std::uint64_t>(h);
    }
    sort_preferences(preference[a], score);
  });

  // exp only on the hosts an application actually wins.
  return select_round_robin(
      a_count, h_count,
      [&preference](std::size_t a, std::size_t pos) {
        return static_cast<std::size_t>(preference[a][pos] & kIndexMask);
      },
      [&preference, &scores](std::size_t a, std::size_t pos) {
        return std::exp(scores[a][preference[a][pos] & kIndexMask]);
      });
}

AllocationResult allocate_round_robin_reference(
    std::span<const ApplicationSpec> apps,
    std::span<const HostResources> hosts) {
  if (apps.empty()) {
    throw std::invalid_argument("allocate_round_robin: no applications");
  }
  const std::size_t a_count = apps.size();
  const std::size_t h_count = hosts.size();

  // The pre-SoA algorithm: a dense utility matrix (five std::pow per
  // pair) and per-application comparator sorts of index arrays, with the
  // host-index tie-break the SoA path guarantees.
  std::vector<std::vector<double>> utility(a_count,
                                           std::vector<double>(h_count));
  std::vector<std::vector<std::size_t>> preference(a_count);
  for (std::size_t a = 0; a < a_count; ++a) {
    for (std::size_t h = 0; h < h_count; ++h) {
      utility[a][h] = cobb_douglas_utility(apps[a], hosts[h]);
    }
    preference[a].resize(h_count);
    std::iota(preference[a].begin(), preference[a].end(), std::size_t{0});
    std::sort(preference[a].begin(), preference[a].end(),
              [&u = utility[a]](std::size_t x, std::size_t y) {
                if (u[x] != u[y]) return u[x] > u[y];
                return x < y;
              });
  }
  return select_round_robin(
      a_count, h_count,
      [&preference](std::size_t a, std::size_t pos) {
        return preference[a][pos];
      },
      [&preference, &utility](std::size_t a, std::size_t pos) {
        return utility[a][preference[a][pos]];
      });
}

}  // namespace resmodel::sim
