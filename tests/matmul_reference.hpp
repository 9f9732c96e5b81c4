// Scalar reference for tensor::matmul_nt_blocked: the plain i/j/k-block
// loop that defines the kernel's summation order. Tests compare the tiled
// kernel against it byte for byte; bench_tensor_kernels times both.
#pragma once

#include <algorithm>
#include <cstdint>

#include "lmo/tensor/tensor.hpp"

namespace lmo::tensor::testing {

/// C[m,n] = A[m,k] · Bᵀ (B is [n,k]). Per element: from 0.0f, add each
/// `block`-wide k-block's partial sum in ascending k.
inline Tensor reference_matmul_nt(const Tensor& a, const Tensor& b,
                                  std::int64_t block = 64) {
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[0];
  Tensor c = Tensor::zeros({m, n});
  const float* pa = a.f32().data();
  const float* pb = b.f32().data();
  float* pc = c.f32().data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t k0 = 0; k0 < k; k0 += block) {
        const std::int64_t k1 = std::min(k0 + block, k);
        float acc = 0.0f;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          acc += pa[i * k + kk] * pb[j * k + kk];
        }
        pc[i * n + j] += acc;
      }
    }
  }
  return c;
}

}  // namespace lmo::tensor::testing
