// Compute-backend selection for the four hot columnar kernels
// (backend/kernels.h).
//
// PRs 1-5 turned the scheduling and allocation hot paths into branch-free
// column sweeps whose vectorization was left to the autovectorizer (at
// the build's baseline -march, i.e. SSE2). This layer names that choice
// and adds an explicit-SIMD alternative:
//
//   kScalar  — the retained reference oracles (full-scan scalar loops; no
//              blocking, no pruning gates). The golden baseline every
//              other arm must match bit for bit.
//   kBlocked — the PR-3/5 blocked kernels as compiled at the tree's
//              baseline flags (autovectorized sweeps over 64-lane
//              blocks). Runs on any target.
//   kSimd    — hand-written AVX2 intrinsics for the same block sweeps,
//              selected by CPUID at runtime. Falls back to kBlocked when
//              the hardware lacks AVX2.
//   kAuto    — kSimd when available, else kBlocked (the default).
//
// BIT-IDENTITY CONTRACT. Every arm must produce bit-identical schedules,
// allocations and kernel-shape counters. The kernels are specified as
// contraction-free mul/add/min/select chains in a fixed association
// order: the scalar and blocked arms compile with -ffp-contract=off, and
// the SIMD arm uses explicit _mm256_mul/_mm256_add intrinsics — never
// fused multiply-add — so equality holds by construction, not by
// instruction selection. Horizontal min reductions resolve ties as the
// smallest original index via lane-order masks (see kernels.h); exact
// min over NaN-free data is associative, so lane order never leaks into
// results.
//
// Runtime masking: the RESMODEL_SIMD environment variable takes "off"
// (pretend AVX2 does not exist) or "native" (the default: no mask). CI's
// "off" leg sets it so every kAuto/kSimd dispatch runs the blocked arm on
// machines that do have AVX2; the scalar oracles are a separate request
// (kScalar, `sweep --backend=scalar`).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace resmodel::backend {

/// Requested backend (configs, CLI). kAuto resolves at runtime.
enum class Backend {
  kAuto,
  kScalar,
  kBlocked,
  kSimd,
};

/// Instruction-set arm the SIMD backend dispatches to.
enum class SimdLevel {
  kNone,  ///< blocked fallback (baseline autovectorized kernels)
  kAvx2,  ///< 256-bit: 4 doubles / 8 floats per op
};

/// What the CPU offers for the kSimd arm.
struct CpuFeatures {
  bool avx2 = false;
};

/// CPUID detection masked by the RESMODEL_SIMD environment variable
/// (read once per process): "off" masks AVX2; unset or "native" masks
/// nothing. Any other value also masks nothing — this function cannot
/// refuse it, so BackendResolve.SimdMaskIsAKnownValue fails instead.
CpuFeatures effective_cpu() noexcept;

/// A fully resolved selection: `arm` is never kAuto, and `simd` is
/// kNone unless arm == kSimd.
struct ResolvedBackend {
  Backend arm = Backend::kBlocked;
  SimdLevel simd = SimdLevel::kNone;
};

/// Resolves a request against effective_cpu(): kScalar and kBlocked pass
/// through; kSimd picks kAvx2 and falls back to kBlocked without it;
/// kAuto is kSimd-else-kBlocked.
ResolvedBackend resolve(Backend requested) noexcept;

std::string to_string(Backend backend);
std::string to_string(SimdLevel level);
/// "auto|scalar|blocked|simd" — for usage strings.
std::string backend_names();
/// "avx2" or "none"; reflects effective_cpu().
std::string cpu_feature_string();

/// Parses a --backend= value; std::nullopt on anything unknown.
std::optional<Backend> parse_backend(std::string_view name);

}  // namespace resmodel::backend
