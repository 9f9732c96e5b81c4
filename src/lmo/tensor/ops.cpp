#include "lmo/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "lmo/tensor/ops_detail.hpp"
#include "lmo/util/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LMO_X86 1
#endif

namespace lmo::tensor {
namespace {

void require_rank2(const Tensor& t, const char* name) {
  LMO_CHECK_MSG(t.shape().rank() == 2,
                std::string(name) + " must be rank 2, got " +
                    t.shape().to_string());
}

// Register-tiled kernels for matmul_nt_blocked. Every output element is
// summed in one fixed order — start from 0.0f, add each k-block's partial
// sum (itself accumulated from 0.0f in ascending k) — so the scalar, SSE2
// and AVX2 paths produce bit-identical results. The tiles only change
// which elements are in flight at once, never the order within one
// element. lmo_tensor builds with -ffp-contract=off, so no multiply-add
// is ever fused behind the order's back.
using v4sf = float __attribute__((vector_size(16)));

constexpr std::int64_t kPanelCols = 8;  // B columns per packed panel
constexpr std::int64_t kTileRows = 4;   // A rows per register tile

v4sf load4(const float* p) {
  v4sf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store4(float* p, v4sf v) { std::memcpy(p, &v, sizeof(v)); }

// C[R rows, cols] += A[R rows, kb] · panel, where `panel` holds kb rows of
// kPanelCols packed B columns (zero past `cols`).
template <int R>
void tile(const float* a, std::int64_t lda, const float* panel,
          std::int64_t kb, float* c, std::int64_t ldc, std::int64_t cols) {
  v4sf lo[R], hi[R];
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = v4sf{};
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const v4sf b_lo = load4(panel + kk * kPanelCols);
    const v4sf b_hi = load4(panel + kk * kPanelCols + 4);
    for (int r = 0; r < R; ++r) {
      const float x = a[r * lda + kk];
      const v4sf ax = {x, x, x, x};
      lo[r] += ax * b_lo;
      hi[r] += ax * b_hi;
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    if (cols == kPanelCols) {
      store4(crow, load4(crow) + lo[r]);
      store4(crow + 4, load4(crow + 4) + hi[r]);
    } else {
      float sums[kPanelCols] = {};
      store4(sums, lo[r]);
      store4(sums + 4, hi[r]);
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += sums[j];
    }
  }
}

// Fewer rows than a tile: packing B would cost as much as the product, so
// each row instead runs kPanelCols independent scalar chains over B's rows.
void small_m(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, std::int64_t ldc,
             std::int64_t block, float* /*scratch*/) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * ldc;
    std::int64_t j = 0;
    for (; j + kPanelCols <= n; j += kPanelCols) {
      const float* brow = b + j * k;
      for (std::int64_t k0 = 0; k0 < k; k0 += block) {
        const std::int64_t k1 = std::min(k0 + block, k);
        float s[kPanelCols] = {};
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float x = arow[kk];
          for (std::int64_t jj = 0; jj < kPanelCols; ++jj) {
            s[jj] += x * brow[jj * k + kk];
          }
        }
        for (std::int64_t jj = 0; jj < kPanelCols; ++jj) crow[j + jj] += s[jj];
      }
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      for (std::int64_t k0 = 0; k0 < k; k0 += block) {
        const std::int64_t k1 = std::min(k0 + block, k);
        float acc = 0.0f;
        for (std::int64_t kk = k0; kk < k1; ++kk) acc += arow[kk] * brow[kk];
        crow[j] += acc;
      }
    }
  }
}

// SSE2 kernel: 4-row tiles over panels of 8 B columns, each panel packed
// transposed to [kb][kPanelCols] into `scratch` once and reused by every
// row tile.
void gemm_sse2(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t ldc,
               std::int64_t block, float* scratch) {
  const std::span<float> panel(
      scratch, static_cast<std::size_t>(kPanelCols * std::min(block, k)));
  for (std::int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const std::int64_t cols = std::min(kPanelCols, n - j0);
    for (std::int64_t k0 = 0; k0 < k; k0 += block) {
      const std::int64_t kb = std::min(block, k - k0);
      if (cols < kPanelCols) std::fill(panel.begin(), panel.end(), 0.0f);
      for (std::int64_t jj = 0; jj < cols; ++jj) {
        const float* brow = b + (j0 + jj) * k + k0;
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          panel[kk * kPanelCols + jj] = brow[kk];
        }
      }
      std::int64_t i = 0;
      for (; i + kTileRows <= m; i += kTileRows) {
        tile<kTileRows>(a + i * k + k0, k, panel.data(), kb,
                        c + i * ldc + j0, ldc, cols);
      }
      for (; i < m; ++i) {
        tile<1>(a + i * k + k0, k, panel.data(), kb, c + i * ldc + j0, ldc,
                cols);
      }
    }
  }
}

#ifdef LMO_X86
constexpr std::int64_t kWide = 8;  // A rows and B rows per AVX2 tile

// AVX2 kernel: Aᵀ of 8 rows × one k-block is packed into `scratch` so that
// one ymm holds column k of all 8 rows; B is read in place. For each group
// of 8 B rows, accumulator jj collects Aᵀ[kk] · B[j0+jj][k0+kk] over the
// k-block (lane r = C[i0+r][j0+jj]), then the 8×8 block is transposed and
// added into C.
// Multiplies and adds stay separate instructions (no FMA) so each product
// rounds exactly as in the scalar reference. Rows past m are zero lanes
// and B rows past n re-read the last row; both are dropped on write-back.
__attribute__((target("avx2")))
void gemm_avx2(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t ldc,
               std::int64_t block, float* scratch) {
  const std::span<float> packed(
      scratch, static_cast<std::size_t>(kWide * std::min(block, k)));
  for (std::int64_t i0 = 0; i0 < m; i0 += kWide) {
    const std::int64_t rows = std::min(kWide, m - i0);
    for (std::int64_t k0 = 0; k0 < k; k0 += block) {
      const std::int64_t kb = std::min(block, k - k0);
      if (rows < kWide) std::fill(packed.begin(), packed.end(), 0.0f);
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* arow = a + (i0 + r) * k + k0;
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          packed[static_cast<std::size_t>(kk * kWide + r)] = arow[kk];
        }
      }
      for (std::int64_t j0 = 0; j0 < n; j0 += kWide) {
        const std::int64_t cols = std::min(kWide, n - j0);
        const float* brow[kWide] = {};
        for (std::int64_t jj = 0; jj < kWide; ++jj) {
          brow[jj] = b + std::min(j0 + jj, n - 1) * k + k0;
        }
        __m256 acc[kWide] = {};
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          const __m256 at = _mm256_loadu_ps(packed.data() + kk * kWide);
#pragma GCC unroll 8
          for (std::int64_t jj = 0; jj < kWide; ++jj) {
            acc[jj] = _mm256_add_ps(
                acc[jj], _mm256_mul_ps(at, _mm256_broadcast_ss(brow[jj] + kk)));
          }
        }
        // 8×8 transpose: row r of the result holds C[i0+r][j0 .. j0+7].
        const __m256 t0 = _mm256_unpacklo_ps(acc[0], acc[1]);
        const __m256 t1 = _mm256_unpackhi_ps(acc[0], acc[1]);
        const __m256 t2 = _mm256_unpacklo_ps(acc[2], acc[3]);
        const __m256 t3 = _mm256_unpackhi_ps(acc[2], acc[3]);
        const __m256 t4 = _mm256_unpacklo_ps(acc[4], acc[5]);
        const __m256 t5 = _mm256_unpackhi_ps(acc[4], acc[5]);
        const __m256 t6 = _mm256_unpacklo_ps(acc[6], acc[7]);
        const __m256 t7 = _mm256_unpackhi_ps(acc[6], acc[7]);
        const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
        const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
        const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
        const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
        const __m256 out[kWide] = {
            _mm256_permute2f128_ps(u0, u4, 0x20),
            _mm256_permute2f128_ps(u1, u5, 0x20),
            _mm256_permute2f128_ps(u2, u6, 0x20),
            _mm256_permute2f128_ps(u3, u7, 0x20),
            _mm256_permute2f128_ps(u0, u4, 0x31),
            _mm256_permute2f128_ps(u1, u5, 0x31),
            _mm256_permute2f128_ps(u2, u6, 0x31),
            _mm256_permute2f128_ps(u3, u7, 0x31)};
        float* cblock = c + i0 * ldc + j0;
        if (cols == kWide) {
          for (std::int64_t r = 0; r < rows; ++r) {
            float* crow = cblock + r * ldc;
            _mm256_storeu_ps(crow,
                             _mm256_add_ps(_mm256_loadu_ps(crow), out[r]));
          }
        } else {
          for (std::int64_t r = 0; r < rows; ++r) {
            float sums[kWide];
            _mm256_storeu_ps(sums, out[r]);
            float* crow = cblock + r * ldc;
            for (std::int64_t j = 0; j < cols; ++j) crow[j] += sums[j];
          }
        }
      }
    }
  }
}
#endif

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                       std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                       float*);

GemmFn kernel_fn(detail::GemmKernel kernel) {
  if (kernel == detail::GemmKernel::kAvx2) {
    LMO_CHECK_MSG(detail::cpu_has_avx2(),
                  "AVX2 GEMM kernel on a CPU without AVX2");
#ifdef LMO_X86
    return gemm_avx2;
#endif
  }
  return gemm_sse2;
}

// The kernel matmul_nt_blocked runs for an m-row product.
GemmFn default_kernel(std::int64_t m) {
  if (m < kTileRows) return small_m;
  return kernel_fn(detail::cpu_has_avx2() ? detail::GemmKernel::kAvx2
                                          : detail::GemmKernel::kSse2);
}

// C = A · Bᵀ into a fresh zeroed C through `kernel`, after validating the
// operands.
Tensor run_gemm(const Tensor& a, const Tensor& b, std::int64_t block,
                GemmFn kernel) {
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[0];
  Tensor c = Tensor::zeros({m, n});
  if (m > 0 && n > 0) {
    std::vector<float> scratch(
        kernel == small_m
            ? 0
            : static_cast<std::size_t>(matmul_nt_scratch_floats(k, block)));
    kernel(a.f32().data(), b.f32().data(), c.f32().data(), m, k, n, n, block,
           scratch.data());
  }
  return c;
}

void check_operands(const Tensor& a, const Tensor& b, std::int64_t block) {
  require_rank2(a, "matmul_nt_blocked lhs");
  require_rank2(b, "matmul_nt_blocked rhs");
  LMO_CHECK_GT(block, 0);
  LMO_CHECK_EQ(b.shape()[1], a.shape()[1]);
}

}  // namespace

namespace detail {

bool cpu_has_avx2() {
#ifdef LMO_X86
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

Tensor matmul_nt_with(GemmKernel kernel, const Tensor& a, const Tensor& b,
                      std::int64_t block) {
  check_operands(a, b, block);
  return run_gemm(a, b, block, kernel_fn(kernel));
}

}  // namespace detail

Tensor matmul_nt_blocked(const Tensor& a, const Tensor& b,
                         std::int64_t block) {
  check_operands(a, b, block);
  return run_gemm(a, b, block, default_kernel(a.shape()[0]));
}

std::int64_t matmul_nt_scratch_floats(std::int64_t k, std::int64_t block) {
  return kPanelCols * std::min(block, k);  // kPanelCols == kWide
}

void matmul_nt_cols(const Tensor& a, const Tensor& b, Tensor& c,
                    std::int64_t col_begin, std::int64_t col_end,
                    std::span<float> scratch, std::int64_t block) {
  check_operands(a, b, block);
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[0];
  require_rank2(c, "matmul_nt_cols output");
  LMO_CHECK_EQ(c.shape()[0], m);
  LMO_CHECK_EQ(c.shape()[1], n);
  LMO_CHECK_GE(col_begin, 0);
  LMO_CHECK_LE(col_begin, col_end);
  LMO_CHECK_LE(col_end, n);
  LMO_CHECK_GE(static_cast<std::int64_t>(scratch.size()),
               matmul_nt_scratch_floats(k, block));
  if (m == 0 || col_begin == col_end) return;
  default_kernel(m)(a.f32().data(), b.f32().data() + col_begin * k,
                    c.f32().data() + col_begin, m, k, col_end - col_begin, n,
                    block, scratch.data());
}

Tensor add(const Tensor& a, const Tensor& b) {
  LMO_CHECK(a.shape() == b.shape());
  Tensor out = a.clone();
  auto po = out.f32();
  auto pb = b.f32();
  for (std::size_t i = 0; i < po.size(); ++i) po[i] += pb[i];
  return out;
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  require_rank2(a, "add_bias input");
  LMO_CHECK_EQ(bias.shape().rank(), 1u);
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  LMO_CHECK_EQ(bias.shape()[0], cols);

  Tensor out = a.clone();
  auto po = out.f32();
  auto pbias = bias.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = po.data() + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) row[j] += pbias[j];
  }
  return out;
}

void scale_inplace(Tensor& a, float s) {
  for (float& x : a.f32()) x *= s;
}

Tensor softmax_rows(const Tensor& a) {
  require_rank2(a, "softmax input");
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  LMO_CHECK_GT(cols, 0);

  Tensor out = a.clone();
  auto p = out.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = p.data() + i * cols;
    float mx = row[0];
    for (std::int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
  return out;
}

Tensor layer_norm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                  float epsilon) {
  require_rank2(a, "layer_norm input");
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  LMO_CHECK_EQ(gamma.shape()[0], cols);
  LMO_CHECK_EQ(beta.shape()[0], cols);

  Tensor out = a.clone();
  auto p = out.f32();
  auto pg = gamma.f32();
  auto pb = beta.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = p.data() + i * cols;
    double mean = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) mean += row[j];
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const double d = row[j] - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = (row[j] - static_cast<float>(mean)) * inv * pg[j] + pb[j];
    }
  }
  return out;
}

void gelu_inplace(std::span<float> x) {
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  for (float& v : x) {
    v = 0.5f * v * (1.0f + std::tanh(c * (v + 0.044715f * v * v * v)));
  }
}

void relu_inplace(std::span<float> x) {
  for (float& v : x) v = std::max(v, 0.0f);
}

void silu_inplace(std::span<float> x) {
  for (float& v : x) v = v / (1.0f + std::exp(-v));
}

Tensor gelu(const Tensor& a) {
  Tensor out = a.clone();
  gelu_inplace(out.f32());
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out = a.clone();
  relu_inplace(out.f32());
  return out;
}

Tensor silu(const Tensor& a) {
  Tensor out = a.clone();
  silu_inplace(out.f32());
  return out;
}

Tensor transpose2d(const Tensor& a) {
  require_rank2(a, "transpose input");
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  Tensor out = Tensor::zeros({cols, rows});
  auto pa = a.f32();
  auto po = out.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      po[static_cast<std::size_t>(j * rows + i)] =
          pa[static_cast<std::size_t>(i * cols + j)];
    }
  }
  return out;
}

Tensor concat_rows(const Tensor& a, const Tensor& b) {
  require_rank2(a, "concat lhs");
  require_rank2(b, "concat rhs");
  LMO_CHECK_EQ(a.shape()[1], b.shape()[1]);
  const std::int64_t cols = a.shape()[1];
  Tensor out = Tensor::zeros({a.shape()[0] + b.shape()[0], cols});
  std::memcpy(out.raw().data(), a.raw().data(), a.raw().size());
  std::memcpy(out.raw().data() + a.raw().size(), b.raw().data(),
              b.raw().size());
  return out;
}

Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end) {
  require_rank2(a, "slice input");
  LMO_CHECK_GE(begin, 0);
  LMO_CHECK_LE(begin, end);
  LMO_CHECK_LE(end, a.shape()[0]);
  const std::int64_t cols = a.shape()[1];
  Tensor out = Tensor::zeros({end - begin, cols});
  std::memcpy(out.raw().data(),
              a.raw().data() + begin * cols * sizeof(float),
              static_cast<std::size_t>((end - begin) * cols) * sizeof(float));
  return out;
}

std::int64_t argmax(const Tensor& a) {
  LMO_CHECK_EQ(a.shape().rank(), 1u);
  auto p = a.f32();
  LMO_CHECK(!p.empty());
  std::int64_t best = 0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (p[i] > p[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

double matmul_flops(std::int64_t m, std::int64_t k, std::int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

}  // namespace lmo::tensor
