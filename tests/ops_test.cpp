#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "matmul_reference.hpp"

#include "lmo/tensor/ops.hpp"
#include "lmo/tensor/ops_detail.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/rng.hpp"

namespace lmo::tensor {
namespace {

using util::CheckError;

TEST(Ops, MatmulNtKnownValues) {
  // [1 2; 3 4] · [5 7; 6 8]ᵀ = [19 22; 43 50]
  Tensor a = Tensor::from_values({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_values({2, 2}, {5, 6, 7, 8});
  Tensor c = matmul_nt_blocked(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 17.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 23.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 39.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 53.0f);
}

TEST(Ops, MatmulNtShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4, 2});
  EXPECT_THROW(matmul_nt_blocked(a, b), CheckError);
}

TEST(Ops, MatmulNtIdentity) {
  util::Xoshiro256 rng(2);
  for (int m : {1, 4, 6}) {
    Tensor a = Tensor::uniform({m, 4}, rng);
    Tensor eye = Tensor::zeros({4, 4});
    for (int i = 0; i < 4; ++i) eye.set({i, i}, 1.0f);
    EXPECT_EQ(matmul_nt_blocked(a, eye).max_abs_diff(a), 0.0f) << m;
  }
}

// Every kernel behind matmul_nt_blocked, by name: the public entry point
// (which picks one per call), the SSE2 kernel, and the AVX2 kernel.
enum class Kernel { kDispatched, kSse2, kAvx2 };

Tensor matmul_via(Kernel kernel, const Tensor& a, const Tensor& b,
                  std::int64_t block = 64) {
  switch (kernel) {
    case Kernel::kSse2:
      return detail::matmul_nt_with(detail::GemmKernel::kSse2, a, b, block);
    case Kernel::kAvx2:
      return detail::matmul_nt_with(detail::GemmKernel::kAvx2, a, b, block);
    case Kernel::kDispatched:
      break;
  }
  return matmul_nt_blocked(a, b, block);
}

class MatmulKernel : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Kernel::kAvx2 && !detail::cpu_has_avx2()) {
      GTEST_SKIP() << "CPU has no AVX2";
    }
  }
};

// Each kernel is bit-identical to the scalar reference loop across tile
// edges: row counts on both sides of the 4- and 8-row tiles (and the
// unpacked m < 4 path), k around the block width, n off the 8-column
// panel and the 8-row B group.
TEST_P(MatmulKernel, MatchesReferenceBytewise) {
  util::Xoshiro256 rng(21);
  for (std::int64_t block : {7, 32, 64}) {
    for (std::int64_t m : {0, 1, 3, 4, 5, 8, 9, 33, 256}) {
      for (std::int64_t k : {1, 63, 64, 65, 130}) {
        for (std::int64_t n : {1, 7, 8, 13, 30}) {
          const Tensor a = Tensor::normal({m, k}, rng, 1.0f);
          const Tensor b = Tensor::normal({n, k}, rng, 1.0f);
          const Tensor want = testing::reference_matmul_nt(a, b, block);
          const Tensor got = matmul_via(GetParam(), a, b, block);
          ASSERT_EQ(got.shape(), want.shape());
          EXPECT_TRUE(want.raw().empty() ||
                      std::memcmp(got.raw().data(), want.raw().data(),
                                  want.raw().size()) == 0)
              << "m=" << m << " k=" << k << " n=" << n << " block=" << block;
        }
      }
    }
  }
}

// Stacking rows never changes a row's result: the property batched decode
// relies on. A lone row goes through matmul_nt_blocked's m < 4 path, so
// this also pins each wide kernel to the small-m order.
TEST_P(MatmulKernel, RowsIndependentOfBatch) {
  util::Xoshiro256 rng(22);
  const Tensor a = Tensor::normal({9, 130}, rng, 1.0f);
  const Tensor b = Tensor::normal({21, 130}, rng, 1.0f);
  const Tensor stacked = matmul_via(GetParam(), a, b);
  for (std::int64_t i = 0; i < 9; ++i) {
    const Tensor alone = matmul_nt_blocked(slice_rows(a, i, i + 1), b);
    EXPECT_EQ(std::memcmp(alone.raw().data(),
                          stacked.raw().data() + alone.raw().size() * i,
                          alone.raw().size()),
              0)
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, MatmulKernel,
                         ::testing::Values(Kernel::kDispatched, Kernel::kSse2,
                                           Kernel::kAvx2),
                         [](const ::testing::TestParamInfo<Kernel>& info) {
                           switch (info.param) {
                             case Kernel::kSse2:
                               return "Sse2";
                             case Kernel::kAvx2:
                               return "Avx2";
                             case Kernel::kDispatched:
                               break;
                           }
                           return "Dispatched";
                         });

// Column ranges assembled into one output equal the whole product byte for
// byte — on 8-column panel boundaries (the runtime's split) and off them,
// through the small-m path and the wide kernels — and a range writes no
// column outside itself.
TEST(Ops, MatmulNtColsAssemblesTheBlockedProduct) {
  util::Xoshiro256 rng(23);
  for (std::int64_t m : {1, 3, 4, 9, 64}) {
    for (std::int64_t k : {65, 130}) {
      for (std::int64_t n : {13, 30, 64}) {
        const Tensor a = Tensor::normal({m, k}, rng, 1.0f);
        const Tensor b = Tensor::normal({n, k}, rng, 1.0f);
        const Tensor want = matmul_nt_blocked(a, b);
        std::vector<float> scratch(
            static_cast<std::size_t>(matmul_nt_scratch_floats(k)));
        for (std::int64_t cut : {std::int64_t{8}, std::int64_t{5}}) {
          Tensor got = Tensor::zeros({m, n});
          for (std::int64_t j = 0; j < n; j += cut) {
            matmul_nt_cols(a, b, got, j, std::min(n, j + cut), scratch);
          }
          EXPECT_EQ(std::memcmp(got.raw().data(), want.raw().data(),
                                want.raw().size()),
                    0)
              << "m=" << m << " k=" << k << " n=" << n << " cut=" << cut;
        }
        Tensor part = Tensor::zeros({m, n});
        matmul_nt_cols(a, b, part, 8, std::min<std::int64_t>(n, 16), scratch);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            if (j < 8 || j >= 16) {
              EXPECT_EQ(part.at({i, j}), 0.0f);
            }
          }
        }
      }
    }
  }
  Tensor c = Tensor::zeros({2, 8});
  std::vector<float> small(4), enough(64);
  EXPECT_THROW(matmul_nt_cols(Tensor::zeros({2, 64}), Tensor::zeros({8, 64}),
                              c, 0, 8, small),
               CheckError);
  EXPECT_THROW(matmul_nt_cols(Tensor::zeros({2, 3}), Tensor::zeros({8, 3}),
                              c, 0, 9, enough),
               CheckError);
}

TEST(Ops, ActivationRangesMatchTheWholeTensor) {
  util::Xoshiro256 rng(24);
  const Tensor x = Tensor::normal({3, 37}, rng, 2.0f);
  const struct {
    Tensor (*whole)(const Tensor&);
    void (*range)(std::span<float>);
  } kinds[] = {{gelu, gelu_inplace}, {relu, relu_inplace}, {silu, silu_inplace}};
  for (const auto& kind : kinds) {
    Tensor split = x.clone();
    const std::span<float> all = split.f32();
    kind.range(all.first(50));
    kind.range(all.subspan(50));
    const Tensor want = kind.whole(x);
    EXPECT_EQ(std::memcmp(split.raw().data(), want.raw().data(),
                          want.raw().size()),
              0);
  }
}

TEST(Ops, MatmulNtWithValidatesOperands) {
  const Tensor a = Tensor::zeros({4, 3});
  EXPECT_THROW(detail::matmul_nt_with(detail::GemmKernel::kSse2, a,
                                      Tensor::zeros({4, 2})),
               CheckError);
  EXPECT_THROW(detail::matmul_nt_with(detail::GemmKernel::kSse2, a,
                                      Tensor::zeros({4, 3}), 0),
               CheckError);
}

TEST(Ops, MatmulNtBlockedValidatesBlock) {
  Tensor a = Tensor::zeros({2, 2});
  Tensor b = Tensor::zeros({2, 2});
  EXPECT_THROW(matmul_nt_blocked(a, b, 0), util::CheckError);
}

TEST(Ops, AddAndAddBias) {
  Tensor a = Tensor::from_values({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_values({2, 2}, {10, 20, 30, 40});
  Tensor s = add(a, b);
  EXPECT_FLOAT_EQ(s.at({1, 1}), 44.0f);

  Tensor bias = Tensor::from_values({2}, {100, 200});
  Tensor ab = add_bias(a, bias);
  EXPECT_FLOAT_EQ(ab.at({0, 0}), 101.0f);
  EXPECT_FLOAT_EQ(ab.at({1, 1}), 204.0f);
}

TEST(Ops, ScaleInplace) {
  Tensor a = Tensor::full({3}, 2.0f);
  scale_inplace(a, -0.5f);
  EXPECT_FLOAT_EQ(a.at({0}), -1.0f);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrderPreserved) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, -1, -1, -1});
  Tensor s = softmax_rows(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += s.at({r, c});
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(s.at({0, 2}), s.at({0, 1}));
  EXPECT_NEAR(s.at({1, 0}), 1.0f / 3.0f, 1e-6f);  // uniform row
}

TEST(Ops, SoftmaxNumericallyStableForLargeInputs) {
  Tensor a = Tensor::from_values({1, 2}, {1000.0f, 1001.0f});
  Tensor s = softmax_rows(a);
  EXPECT_FALSE(std::isnan(s.at({0, 0})));
  EXPECT_NEAR(s.at({0, 0}) + s.at({0, 1}), 1.0f, 1e-6f);
}

TEST(Ops, LayerNormZeroMeanUnitVariance) {
  util::Xoshiro256 rng(7);
  Tensor a = Tensor::uniform({4, 64}, rng, -5.0f, 5.0f);
  Tensor gamma = Tensor::full({64}, 1.0f);
  Tensor beta = Tensor::zeros({64});
  Tensor n = layer_norm(a, gamma, beta);
  for (int r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (int c = 0; c < 64; ++c) mean += n.at({r, c});
    mean /= 64.0;
    for (int c = 0; c < 64; ++c) {
      var += (n.at({r, c}) - mean) * (n.at({r, c}) - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Ops, LayerNormAppliesGammaBeta) {
  Tensor a = Tensor::from_values({1, 2}, {0.0f, 2.0f});
  Tensor gamma = Tensor::from_values({2}, {2.0f, 2.0f});
  Tensor beta = Tensor::from_values({2}, {1.0f, 1.0f});
  Tensor n = layer_norm(a, gamma, beta);
  // normalized = {-1, 1} → ×2 + 1 = {-1, 3}
  EXPECT_NEAR(n.at({0, 0}), -1.0f, 1e-4f);
  EXPECT_NEAR(n.at({0, 1}), 3.0f, 1e-4f);
}

TEST(Ops, GeluMatchesReferencePoints) {
  Tensor a = Tensor::from_values({3}, {-1.0f, 0.0f, 1.0f});
  Tensor g = gelu(a.reshaped({1, 3})).reshaped({3});
  EXPECT_NEAR(g.at({0}), -0.1588f, 1e-3f);
  EXPECT_FLOAT_EQ(g.at({1}), 0.0f);
  EXPECT_NEAR(g.at({2}), 0.8412f, 1e-3f);
}

TEST(Ops, ReluClampsNegative) {
  Tensor a = Tensor::from_values({3}, {-2.0f, 0.0f, 2.0f});
  Tensor r = relu(a);
  EXPECT_FLOAT_EQ(r.at({0}), 0.0f);
  EXPECT_FLOAT_EQ(r.at({2}), 2.0f);
}

TEST(Ops, TransposeInvolution) {
  util::Xoshiro256 rng(9);
  Tensor a = Tensor::uniform({3, 5}, rng);
  EXPECT_EQ(transpose2d(transpose2d(a)).max_abs_diff(a), 0.0f);
  EXPECT_EQ(transpose2d(a).shape(), Shape({5, 3}));
}

TEST(Ops, ConcatAndSliceRows) {
  Tensor a = Tensor::full({2, 3}, 1.0f);
  Tensor b = Tensor::full({1, 3}, 2.0f);
  Tensor c = concat_rows(a, b);
  EXPECT_EQ(c.shape(), Shape({3, 3}));
  EXPECT_FLOAT_EQ(c.at({2, 0}), 2.0f);

  Tensor s = slice_rows(c, 1, 3);
  EXPECT_EQ(s.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(s.at({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(s.at({1, 0}), 2.0f);
  EXPECT_THROW(slice_rows(c, 2, 5), util::CheckError);
}

TEST(Ops, ArgmaxFindsFirstMaximum) {
  Tensor a = Tensor::from_values({5}, {0.1f, 3.0f, -1.0f, 3.0f, 2.0f});
  EXPECT_EQ(argmax(a), 1);  // first of the ties
}

TEST(Ops, MatmulFlopsFormula) {
  EXPECT_DOUBLE_EQ(matmul_flops(2, 3, 4), 48.0);
}

}  // namespace
}  // namespace lmo::tensor
