// The AVX-512 arm: 8-wide double intrinsic versions of the ECT sweep,
// column min and row-bounds argmin. Its gate sweep is the AVX2 one: a
// 16-wide float gate did not clear the 1.1x keep rule over it
// (src/backend/README.md). Compiled with -mavx512f -mavx512dq -mavx512bw
// -mavx512vl (plus the library-wide -ffp-contract=off; src/CMakeLists.txt)
// and only ever CALLED when resolve() saw those CPUID bits — nothing in
// this TU runs at static initialization, so linking it into a baseline
// binary is safe.
//
// Bit-identity notes (the contract is in kernels.h):
//  - every a * b + c is _mm512_mul + _mm512_add — NEVER _mm512_fmadd:
//    one rounding per operation, exactly like the -ffp-contract=off
//    scalar and blocked arms;
//  - min/compare/select are exact lane-wise operations, and the data is
//    NaN-free (all inputs finite or +inf with no inf-minus-inf chains),
//    so the lane-wise min == std::min lane for lane and the horizontal
//    reduction matches any sequential min order;
//  - the smallest-original-index tie-break masks the order column with
//    a UINT32_MAX sentinel (_mm256_mask_mov_epi32 — a blend, NOT a
//    maskz load: 0 is a valid host index) and min-reduces unsigned, so
//    unmatched lanes can never win.
#include "backend/kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>

namespace resmodel::backend {

namespace {

constexpr std::uint32_t kNoIndex = std::numeric_limits<std::uint32_t>::max();

// GCC 12's unmasked _mm512_min_pd and _mm512_extractf64x4_pd (and with
// them _mm512_reduce_min_pd) merge into _mm512_undefined_pd(), which
// -Wmaybe-uninitialized misreports once inlined. The all-lanes masked
// forms below are the same instructions with a defined merge source.
inline __m512d min_pd(__m512d a, __m512d b) noexcept {
  return _mm512_mask_min_pd(a, 0xFF, a, b);
}

inline double reduce_min_pd(__m512d v) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d m4 =
      _mm256_min_pd(_mm512_mask_extractf64x4_pd(zero, 0xF, v, 0),
                    _mm512_mask_extractf64x4_pd(zero, 0xF, v, 1));
  __m128d m = _mm_min_pd(_mm256_castpd256_pd128(m4),
                         _mm256_extractf128_pd(m4, 1));
  m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(m);
}

inline std::uint32_t reduce_min_epu32(__m256i v) noexcept {
  __m128i m = _mm_min_epu32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(m));
}

EctBlockMin ect_block_sweep_avx512(const double* vals, const double* inv,
                                   const std::uint32_t* order,
                                   std::size_t len, double task,
                                   double best_done) {
  if (len != kKernelBlock) {
    // Only the final partial block lands here; the scalar-epilogue cost
    // is once per task, not per block.
    return detail::blocked_ops().ect_block_sweep(vals, inv, order, len,
                                                 task, best_done);
  }
  const __m512d vt = _mm512_set1_pd(task);
  __m512d done[8];
  __m512d vm = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  for (std::size_t j = 0; j < 8; ++j) {
    const __m512d f = _mm512_loadu_pd(vals + j * 8);
    const __m512d iv = _mm512_loadu_pd(inv + j * 8);
    done[j] = _mm512_add_pd(f, _mm512_mul_pd(vt, iv));
    vm = min_pd(vm, done[j]);
  }
  const double m = reduce_min_pd(vm);
  if (m > best_done) return {m, kNoIndex};
  const __m512d vmin = _mm512_set1_pd(m);
  const __m256i sentinel = _mm256_set1_epi32(-1);  // kNoIndex
  __m256i best = sentinel;
  for (std::size_t j = 0; j < 8; ++j) {
    const __mmask8 eq = _mm512_cmp_pd_mask(done[j], vmin, _CMP_EQ_OQ);
    const __m256i ord = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(order + j * 8));
    best = _mm256_min_epu32(best, _mm256_mask_mov_epi32(sentinel, eq, ord));
  }
  return {m, reduce_min_epu32(best)};
}

double column_min_avx512(const double* x, std::size_t len) {
  std::size_t i = 0;
  double m;
  if (len >= 8) {
    __m512d vm = _mm512_loadu_pd(x);
    for (i = 8; i + 8 <= len; i += 8) {
      vm = min_pd(vm, _mm512_loadu_pd(x + i));
    }
    m = reduce_min_pd(vm);
  } else {
    m = x[0];
    i = 1;
  }
  for (; i < len; ++i) m = std::min(m, x[i]);
  return m;
}

std::uint32_t row_bounds_argmin_avx512(const double* row,
                                       const double* bmin_inv, double over,
                                       std::size_t n, double* bounds) {
  const __m512d vo = _mm512_set1_pd(over);
  __m512d vm = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d b = _mm512_add_pd(
        _mm512_loadu_pd(row + i),
        _mm512_mul_pd(vo, _mm512_loadu_pd(bmin_inv + i)));
    _mm512_storeu_pd(bounds + i, b);
    vm = min_pd(vm, b);
  }
  double tightest = reduce_min_pd(vm);
  for (; i < n; ++i) {
    const double b = row[i] + over * bmin_inv[i];
    bounds[i] = b;
    tightest = std::min(tightest, b);
  }
  // Second pass over the just-written (cache-hot) bounds: the first
  // index attaining the minimum — the same block the sequential
  // first-strict-improvement scan picks.
  const __m512d vt = _mm512_set1_pd(tightest);
  for (i = 0; i + 8 <= n; i += 8) {
    const __mmask8 eq =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(bounds + i), vt, _CMP_EQ_OQ);
    if (eq != 0) {
      return static_cast<std::uint32_t>(
          i + static_cast<std::size_t>(__builtin_ctz(eq)));
    }
  }
  for (; i < n; ++i) {
    if (bounds[i] == tightest) return static_cast<std::uint32_t>(i);
  }
  return 0;  // unreachable: tightest was read from bounds
}

constexpr KernelOps kAvx512Ops = {
    &ect_block_sweep_avx512,
    &column_min_avx512,
    &row_bounds_argmin_avx512,
    &detail::gate_sweep_avx2,
};

}  // namespace

namespace detail {
const KernelOps& avx512_ops() noexcept { return kAvx512Ops; }
}  // namespace detail

}  // namespace resmodel::backend

#else  // no AVX-512 at compile time (non-x86 target): fall back.

namespace resmodel::backend::detail {
const KernelOps& avx512_ops() noexcept { return blocked_ops(); }
}  // namespace resmodel::backend::detail

#endif
