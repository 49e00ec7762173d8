// Arm accessors behind backend::kernel_ops — one per TU so each arm can
// be compiled with its own -march flags (src/CMakeLists.txt) without
// leaking wide instructions into baseline code. Accessed through
// functions (not extern tables) so there is no cross-TU static
// initialization order to worry about, and so the AVX TUs can fall back
// to blocked_ops() when built for a non-x86 target.
#pragma once

#include "backend/kernels.h"

namespace resmodel::backend::detail {

const KernelOps& blocked_ops() noexcept;
const KernelOps& avx2_ops() noexcept;
const KernelOps& avx512_ops() noexcept;

/// The AVX2 gate sweep, shared by the AVX2 and AVX-512 tables (defined
/// in kernels_avx2.cpp; only referenced where AVX2 is compiled in).
void gate_sweep_avx2(const GateBlockView& view, float task, float* lb);

}  // namespace resmodel::backend::detail
