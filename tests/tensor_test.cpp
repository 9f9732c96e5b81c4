#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "lmo/tensor/dtype.hpp"
#include "lmo/tensor/shape.hpp"
#include "lmo/tensor/tensor.hpp"
#include "lmo/util/check.hpp"

namespace lmo::tensor {
namespace {

using util::CheckError;

// ---------------------------------------------------------------- dtype --

TEST(DType, BitsAndBytes) {
  EXPECT_EQ(bits_of(DType::kF32), 32u);
  EXPECT_EQ(bits_of(DType::kF16), 16u);
  EXPECT_EQ(bits_of(DType::kI8), 8u);
  EXPECT_EQ(bits_of(DType::kI4), 4u);
  EXPECT_EQ(bytes_for(DType::kF32, 3), 12u);
  EXPECT_EQ(bytes_for(DType::kI4, 2), 1u);
  EXPECT_EQ(bytes_for(DType::kI4, 3), 2u);  // rounds up to whole bytes
}

TEST(DType, NameRoundTrip) {
  for (DType d : {DType::kF32, DType::kF16, DType::kI8, DType::kU8,
                  DType::kI4}) {
    EXPECT_EQ(dtype_from_string(to_string(d)), d);
  }
  EXPECT_THROW(dtype_from_string("f64"), CheckError);
}

// ----------------------------------------------------------------- half --

TEST(Half, ExactSmallValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.25f, 1024.0f}) {
    EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(v)), v) << v;
  }
}

TEST(Half, RoundTripErrorWithinHalfPrecision) {
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1000.0, 1000.0));
    const float back = f16_bits_to_f32(f32_to_f16_bits(v));
    // fp16 has 11 significand bits → relative error ≤ 2^-11.
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * (1.0f / 2048.0f) + 1e-7f)
        << v;
  }
}

TEST(Half, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(inf)), inf);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      f16_bits_to_f32(f32_to_f16_bits(std::nanf("")))));
  // Overflow saturates to infinity.
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(1e30f)), inf);
  // Values below the smallest subnormal flush to zero.
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(1e-30f)), 0.0f);
}

TEST(Half, SubnormalsPreserved) {
  const float sub = 6.0e-8f;  // within fp16 subnormal range
  const float back = f16_bits_to_f32(f32_to_f16_bits(sub));
  EXPECT_NEAR(back, sub, 6.0e-8f);
  EXPECT_GT(back, 0.0f);
}

TEST(Half, SignPreservedForNegativeZero) {
  const std::uint16_t bits = f32_to_f16_bits(-0.0f);
  EXPECT_EQ(bits, 0x8000u);
}

// ---------------------------------------------------------------- shape --

TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.stride(0), 12);
  EXPECT_EQ(s.stride(1), 4);
  EXPECT_EQ(s.stride(2), 1);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, EqualityAndMutation) {
  Shape a{2, 3};
  Shape b{2, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Shape({3, 2}));
  EXPECT_EQ(a.with_dim(1, 5), Shape({2, 5}));
  EXPECT_EQ(a.appended(7), Shape({2, 3, 7}));
}

TEST(Shape, RankZeroNumelIsOne) {
  Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, OutOfRangeAxisThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), CheckError);
  EXPECT_THROW(s.stride(5), CheckError);
}

// --------------------------------------------------------------- tensor --

TEST(Tensor, ZerosInitialized) {
  Tensor t = Tensor::zeros({4, 5});
  for (float x : t.f32()) EXPECT_EQ(x, 0.0f);
  EXPECT_EQ(t.byte_size(), 80u);
}

TEST(Tensor, FullAndAt) {
  Tensor t = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(t.at({1, 1}), 3.5f);
  t.set({0, 1}, -1.0f);
  EXPECT_EQ(t.at({0, 1}), -1.0f);
  EXPECT_EQ(t.at({0, 0}), 3.5f);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a = Tensor::full({3}, 1.0f);
  Tensor b = a.clone();
  b.set({0}, 9.0f);
  EXPECT_EQ(a.at({0}), 1.0f);
}

TEST(Tensor, ReshapedSharesStorage) {
  Tensor a = Tensor::full({2, 3}, 2.0f);
  Tensor b = a.reshaped({3, 2});
  b.set({0, 0}, 5.0f);
  EXPECT_EQ(a.at({0, 0}), 5.0f);  // same storage
  EXPECT_THROW(a.reshaped({4, 2}), CheckError);
}

TEST(Tensor, CastF16RoundTripAccuracy) {
  util::Xoshiro256 rng(5);
  Tensor a = Tensor::uniform({64, 64}, rng, -2.0f, 2.0f);
  Tensor half = a.cast(DType::kF16);
  EXPECT_EQ(half.byte_size(), a.byte_size() / 2);
  Tensor back = half.cast(DType::kF32);
  EXPECT_LE(a.max_abs_diff(back), 2.0f / 1024.0f);
}

// The vectorized f16 → f32 cast is bit-identical to f16_bits_to_f32 on all
// 65,536 half patterns: zeros, subnormals, normals, infinities and NaNs
// (signalling ones included, payload kept). The patterns are laid out by
// an odd-multiplier permutation, so neighbours differ in class; 65,533
// elements leave a tail shorter than one vector step for the scalar path.
TEST(Tensor, CastF16ToF32ExhaustiveBitExact) {
  for (const std::int64_t n : {65536, 65533}) {
    Tensor half({n}, DType::kF16);
    auto* bits = reinterpret_cast<std::uint16_t*>(half.raw().data());
    for (std::int64_t i = 0; i < n; ++i) {
      bits[i] = static_cast<std::uint16_t>((i * 40503) & 0xffff);
    }
    const Tensor got = half.cast(DType::kF32);
    std::vector<float> want(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      want[static_cast<std::size_t>(i)] = f16_bits_to_f32(bits[i]);
    }
    ASSERT_EQ(got.byte_size(), want.size() * sizeof(float));
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(got.raw().data() + i * sizeof(float),
                            &want[static_cast<std::size_t>(i)], sizeof(float)),
                0)
          << "n=" << n << " half bits 0x" << std::hex << bits[i];
    }
  }
}

TEST(Tensor, RandomFactoriesDeterministic) {
  util::Xoshiro256 rng1(9), rng2(9);
  Tensor a = Tensor::normal({16}, rng1);
  Tensor b = Tensor::normal({16}, rng2);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
}

TEST(Tensor, IndexBoundsChecked) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_THROW(t.at({2, 0}), CheckError);
  EXPECT_THROW(t.at({0}), CheckError);  // wrong rank
}

TEST(Tensor, MeanAndMaxAbs) {
  Tensor t = Tensor::from_values({4}, {1.0f, -3.0f, 2.0f, 0.0f});
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
  EXPECT_EQ(t.max_abs(), 3.0f);
}

TEST(Tensor, FromValuesRequiresMatchingCount) {
  EXPECT_THROW(Tensor::from_values({3}, {1.0f, 2.0f}), CheckError);
}

}  // namespace
}  // namespace lmo::tensor
