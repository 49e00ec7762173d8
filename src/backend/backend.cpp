#include "backend/backend.h"

#include <cstdlib>
#include <cstring>

namespace resmodel::backend {

CpuFeatures effective_cpu() noexcept {
  static const CpuFeatures cached = [] {
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    f.avx2 = __builtin_cpu_supports("avx2");
#endif
    // "off" masks AVX2; the variable can only narrow what CPUID reports —
    // it never fakes a missing extension.
    const char* env = std::getenv("RESMODEL_SIMD");
    if (env != nullptr && std::strcmp(env, "off") == 0) f.avx2 = false;
    return f;
  }();
  return cached;
}

ResolvedBackend resolve(Backend requested) noexcept {
  switch (requested) {
    case Backend::kScalar:
      return {Backend::kScalar, SimdLevel::kNone};
    case Backend::kBlocked:
      return {Backend::kBlocked, SimdLevel::kNone};
    case Backend::kSimd:
    case Backend::kAuto:
      if (effective_cpu().avx2) return {Backend::kSimd, SimdLevel::kAvx2};
      return {Backend::kBlocked, SimdLevel::kNone};
  }
  return {Backend::kBlocked, SimdLevel::kNone};
}

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kScalar: return "scalar";
    case Backend::kBlocked: return "blocked";
    case Backend::kSimd: return "simd";
  }
  return "unknown";
}

std::string to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kNone: return "none";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

std::string backend_names() { return "auto|scalar|blocked|simd"; }

std::string cpu_feature_string() {
  return effective_cpu().avx2 ? "avx2" : "none";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "auto") return Backend::kAuto;
  if (name == "scalar") return Backend::kScalar;
  if (name == "blocked") return Backend::kBlocked;
  if (name == "simd") return Backend::kSimd;
  return std::nullopt;
}

}  // namespace resmodel::backend
