// Transformer compute primitives, f32 only. These are the "real execution"
// kernels the runtime uses; they favour clarity and exact, order-defined
// results over peak throughput (the paper-scale experiments run on the
// simulator, not here).
#pragma once

#include <cstdint>
#include <span>

#include "lmo/tensor/tensor.hpp"

namespace lmo::tensor {

/// C[m,n] = A[m,k] · Bᵀ where B is [n,k] (projection with row-major
/// weights). Each output element is summed in a fixed order: from 0.0f, add
/// the partial sum of each `block`-wide k-block in ascending k, where a
/// partial sum starts at 0.0f and adds its products in ascending k. The
/// result is therefore independent of m and of how rows are batched — a
/// row of a stacked [B·T, k] product is bit-identical to the same row
/// computed alone — but equals a single-chain dot product only for
/// k ≤ block. Calls with m ≥ 4 run a register-tiled kernel: on CPUs with
/// AVX2, 8 rows of Aᵀ packed per k-block against 8 B rows read in place
/// (8 × 8 outputs per tile); otherwise SSE2 4-row tiles over packed
/// 8-column panels of B. Both keep the order above, so the choice never
/// shows in a result. Smaller calls skip packing.
Tensor matmul_nt_blocked(const Tensor& a, const Tensor& b,
                         std::int64_t block = 64);

/// Floats of packing scratch matmul_nt_cols needs at inner extent k.
std::int64_t matmul_nt_scratch_floats(std::int64_t k, std::int64_t block = 64);

/// Output columns [col_begin, col_end) of matmul_nt_blocked(a, b), added
/// into the same columns of `c` ([m, n], zeroed by the caller), with
/// `scratch` (≥ matmul_nt_scratch_floats(k, block) floats) as the kernel's
/// packing buffer. Runs the kernel matmul_nt_blocked picks for m, so every
/// element is bytewise equal to matmul_nt_blocked's; allocates nothing, and
/// calls over disjoint column ranges may run concurrently (the runtime
/// splits a GEMM on 8-column panel boundaries across its compute lanes).
void matmul_nt_cols(const Tensor& a, const Tensor& b, Tensor& c,
                    std::int64_t col_begin, std::int64_t col_end,
                    std::span<float> scratch, std::int64_t block = 64);

/// out = a + b, elementwise, matching shapes.
Tensor add(const Tensor& a, const Tensor& b);

/// out[i,j] = a[i,j] + bias[j]; bias is rank-1 of extent a.dim(last).
Tensor add_bias(const Tensor& a, const Tensor& bias);

/// Scale in place: a *= s.
void scale_inplace(Tensor& a, float s);

/// Row-wise numerically-stable softmax over the last dimension (rank 2).
Tensor softmax_rows(const Tensor& a);

/// LayerNorm over the last dimension with learned gamma/beta (rank-1).
Tensor layer_norm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                  float epsilon = 1e-5f);

/// Elementwise tanh-approximation GELU.
Tensor gelu(const Tensor& a);

/// gelu / relu / silu in place over a range of elements: the per-element
/// code of the Tensor versions, so a caller may split one tensor into
/// element ranges across threads and get the same bytes.
void gelu_inplace(std::span<float> x);
void relu_inplace(std::span<float> x);
void silu_inplace(std::span<float> x);

/// Elementwise ReLU (OPT uses ReLU in its MLP).
Tensor relu(const Tensor& a);

/// Elementwise SiLU / swish, x·sigmoid(x) (LLaMA's activation).
Tensor silu(const Tensor& a);

/// Transpose a rank-2 tensor.
Tensor transpose2d(const Tensor& a);

/// Concatenate two rank-2 tensors along axis 0 (KV-cache append).
Tensor concat_rows(const Tensor& a, const Tensor& b);

/// Take rows [begin, end) of a rank-2 tensor (copy).
Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end);

/// Index of the max element of a rank-1 tensor (greedy decoding).
std::int64_t argmax(const Tensor& a);

/// Total FLOPs of matmul([m,k],[k,n]) — used to cross-check compute models.
double matmul_flops(std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace lmo::tensor
