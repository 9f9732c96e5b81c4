// Internal entry points of the GEMM behind tensor::matmul_nt_blocked, so
// tests and benches can pin one kernel instead of the one the CPU picks.
// Not part of the runtime's API: production code calls matmul_nt_blocked.
#pragma once

#include <cstdint>

#include "lmo/tensor/tensor.hpp"

namespace lmo::tensor::detail {

enum class GemmKernel {
  kSse2,  ///< 4 rows × packed 8-column B panel, 128-bit vectors
  kAvx2,  ///< 8 packed Aᵀ rows × 8 in-place B rows, 256-bit vectors
};

/// True when this CPU (and OS) can run the AVX2 kernel. Checked once.
bool cpu_has_avx2();

/// matmul_nt_blocked through `kernel` at any m (no small-m shortcut).
/// Same summation order, so the result is bytewise equal to
/// matmul_nt_blocked's. kAvx2 requires cpu_has_avx2().
Tensor matmul_nt_with(GemmKernel kernel, const Tensor& a, const Tensor& b,
                      std::int64_t block = 64);

}  // namespace lmo::tensor::detail
