// Arm accessors behind backend::kernel_ops — one per TU so the AVX2 arm
// can be compiled with its own -m flag (src/CMakeLists.txt) without
// leaking wide instructions into baseline code. Accessed through
// functions (not extern tables) so there is no cross-TU static
// initialization order to worry about, and so the AVX2 TU can fall back
// to blocked_ops() when built for a non-x86 target.
#pragma once

#include "backend/kernels.h"

namespace resmodel::backend::detail {

const KernelOps& blocked_ops() noexcept;
const KernelOps& avx2_ops() noexcept;

}  // namespace resmodel::backend::detail
