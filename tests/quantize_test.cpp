// Tests for the group-wise quantizer (paper Algorithm 2, Eqs. 10-11),
// including parameterized property sweeps over bit widths, group sizes and
// tensor shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "lmo/tensor/quantize.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/rng.hpp"

namespace lmo::tensor {
namespace {

using util::CheckError;

TEST(QuantConfig, Validation) {
  EXPECT_NO_THROW((QuantConfig{4, 64}.validate()));
  EXPECT_NO_THROW((QuantConfig{8, 33}.validate()));
  EXPECT_THROW((QuantConfig{3, 64}.validate()), CheckError);
  EXPECT_THROW((QuantConfig{4, 0}.validate()), CheckError);
  EXPECT_THROW((QuantConfig{4, 33}.validate()), CheckError);  // odd 4-bit
}

TEST(Quantize, RejectsNonF32Input) {
  util::Xoshiro256 rng(1);
  Tensor t = Tensor::uniform({8}, rng).cast(DType::kF16);
  EXPECT_THROW(quantize(t, QuantConfig{8, 4}), CheckError);
}

TEST(Quantize, ConstantTensorIsExact) {
  Tensor t = Tensor::full({5, 5}, 3.25f);
  const auto q = quantize(t, QuantConfig{4, 10});
  const Tensor back = dequantize(q);
  EXPECT_EQ(t.max_abs_diff(back), 0.0f);
}

TEST(Quantize, GroupExtremesAreExact) {
  // min and max of each group map to codes 0 and 2^b-1 exactly.
  Tensor t = Tensor::from_values({4}, {-1.0f, 0.1f, 0.2f, 3.0f});
  const auto q = quantize(t, QuantConfig{8, 4});
  const Tensor back = dequantize(q);
  EXPECT_FLOAT_EQ(back.at({0}), -1.0f);
  EXPECT_FLOAT_EQ(back.at({3}), 3.0f);
}

TEST(Quantize, PayloadSizeHalvesWith4Bit) {
  util::Xoshiro256 rng(2);
  Tensor t = Tensor::uniform({128}, rng);
  const auto q8 = quantize(t, QuantConfig{8, 32});
  const auto q4 = quantize(t, QuantConfig{4, 32});
  EXPECT_EQ(q8.payload().size(), 128u);
  EXPECT_EQ(q4.payload().size(), 64u);
  EXPECT_EQ(q4.num_groups(), 4);
  EXPECT_EQ(q4.group_min().size(), 4u);
}

TEST(Quantize, PaddingStrippedOnDequantize) {
  util::Xoshiro256 rng(3);
  Tensor t = Tensor::uniform({2, 7}, rng);  // 14 elements, group 8 → pad 16
  const auto q = quantize(t, QuantConfig{8, 8});
  EXPECT_EQ(q.padded_numel(), 16);
  const Tensor back = dequantize(q);
  EXPECT_EQ(back.shape(), t.shape());
}

TEST(Quantize, CompressionRatioVsF16) {
  util::Xoshiro256 rng(4);
  Tensor t = Tensor::uniform({1024, 64}, rng);
  const auto q4 = quantize(t, QuantConfig{4, 64});
  // 4-bit payload + per-group fp32 (min, scale): ratio ≈ 16/(4 + 64/64·8·...)
  EXPECT_GT(q4.compression_ratio_vs_f16(), 3.0);
  EXPECT_LT(q4.compression_ratio_vs_f16(), 4.0);
}

TEST(Quantize, ProfiledPhasesSumToTotalAndAreNonNegative) {
  util::Xoshiro256 rng(5);
  Tensor t = Tensor::uniform({512, 256}, rng);
  QuantPhaseTimes times;
  const auto q = quantize_profiled(t, QuantConfig{4, 64}, &times);
  EXPECT_TRUE(q.defined());
  EXPECT_GE(times.pad, 0.0);
  EXPECT_GE(times.minmax, 0.0);
  EXPECT_GE(times.normalize, 0.0);
  EXPECT_GE(times.pack, 0.0);
  EXPECT_GT(times.total(), 0.0);
}

TEST(Quantize, IntoSpansMatchesQuantizeBytewise) {
  // quantize_into writes the bytes quantize() returns, padding included:
  // ragged element counts, negative-only groups (the zero padding sets the
  // max) and constant groups (zero scale).
  util::Xoshiro256 rng(17);
  for (const int bits : {8, 4}) {
    for (const std::int64_t n : {1, 7, 8, 33, 64, 100}) {
      for (const float lo : {-1.0f, -3.0f}) {
        const float hi = lo < -2.0f ? -2.0f : 1.0f;
        const Tensor input = Tensor::uniform({n}, rng, lo, hi);
        for (const Tensor& t : {input, Tensor::full({n}, 0.5f)}) {
          const QuantConfig config{bits, 8};
          const QuantizedTensor q = quantize(t, config);
          std::vector<float> mins(q.group_min().size(), -9.0f);
          std::vector<float> scales(mins.size(), -9.0f);
          std::vector<std::uint8_t> codes(q.payload().size(), 0xAB);
          quantize_into(t.f32(), config, mins, scales, codes);
          EXPECT_EQ(std::memcmp(mins.data(), q.group_min().data(),
                                mins.size() * sizeof(float)),
                    0);
          EXPECT_EQ(std::memcmp(scales.data(), q.group_scale().data(),
                                scales.size() * sizeof(float)),
                    0);
          EXPECT_EQ(codes, q.payload()) << bits << " bits, n " << n;
        }
      }
    }
  }
}

TEST(Quantize, DequantizeIntoMatchesEq11Bytewise) {
  // Every byte value as codes (both nibble orders at 4 bits), ragged last
  // groups, and ranges that start on an odd nibble or cross group
  // boundaries: each element must be exactly code · scale + min, with the
  // product and the sum rounded separately, and nothing past the range
  // may be written.
  util::Xoshiro256 rng(23);
  std::vector<std::uint8_t> codes(256);
  for (int b = 0; b < 256; ++b) codes[static_cast<std::size_t>(b)] =
      static_cast<std::uint8_t>(b * 7 % 256);  // every value, shuffled
  for (const int bits : {4, 8}) {
    const std::int64_t capacity = bits == 4 ? 512 : 256;
    for (const std::int64_t gs : {8, 34, 64}) {
      const std::int64_t groups = (capacity + gs - 1) / gs;
      std::vector<float> mins, scales;
      for (std::int64_t g = 0; g < groups; ++g) {
        mins.push_back(static_cast<float>(rng.uniform(-3.0, 1.0)));
        scales.push_back(static_cast<float>(rng.uniform(0.0, 0.4)) /
                         static_cast<float>((1 << bits) - 1));
      }
      const auto eq11 = [&](std::int64_t i) {
        const int code =
            bits == 4 ? (codes[static_cast<std::size_t>(i / 2)] >>
                         (4 * (i % 2))) & 0x0f
                      : codes[static_cast<std::size_t>(i)];
        const auto g = static_cast<std::size_t>(i / gs);
        const float product = static_cast<float>(code) * scales[g];
        return product + mins[g];
      };
      // A ragged tail (capacity - 5 is no multiple of any group size) and
      // every range of up to 80 elements starting in the first 100.
      std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
          {0, capacity}, {0, capacity - 5}, {3, capacity - 5}};
      for (std::int64_t begin = 0; begin < 100; ++begin) {
        for (std::int64_t len = 0; len <= 80; len += begin % 2 ? 3 : 1) {
          ranges.emplace_back(begin, len);
        }
      }
      for (const auto& [begin, len] : ranges) {
        std::vector<float> out(static_cast<std::size_t>(len) + 4, -7.0f);
        dequantize_into(codes, mins, scales, bits, gs, begin,
                        std::span(out).first(static_cast<std::size_t>(len)));
        for (std::int64_t i = 0; i < len; ++i) {
          const float want = eq11(begin + i);
          ASSERT_EQ(std::memcmp(&out[static_cast<std::size_t>(i)], &want,
                                sizeof(float)),
                    0)
              << bits << " bits, group " << gs << ", range [" << begin
              << ", " << begin + len << "), element " << begin + i;
        }
        for (std::size_t i = static_cast<std::size_t>(len); i < out.size();
             ++i) {
          ASSERT_EQ(out[i], -7.0f) << "wrote past the range";
        }
      }
    }
  }
  // A range past the codes is rejected.
  std::vector<float> out(4);
  EXPECT_THROW(dequantize_into(std::span(codes).first(2), std::vector<float>{0},
                               std::vector<float>{1}, 4, 8, 2, out),
               CheckError);
}

TEST(Quantize, MaxQuantErrorHelper) {
  EXPECT_DOUBLE_EQ(max_quant_error(0.0, 15.0, 4), 0.5);
  EXPECT_DOUBLE_EQ(max_quant_error(0.0, 255.0, 8), 0.5);
  EXPECT_DOUBLE_EQ(max_quant_error(-1.0, 1.0, 4), 1.0 / 15.0);
}

// ------------------------------------------------ parameterized properties

struct QuantCase {
  int bits;
  std::int64_t group;
  std::int64_t rows;
  std::int64_t cols;
};

class QuantProperty : public ::testing::TestWithParam<QuantCase> {};

TEST_P(QuantProperty, RoundTripErrorWithinTheoreticalBound) {
  const auto param = GetParam();
  util::Xoshiro256 rng(17);
  Tensor t = Tensor::uniform({param.rows, param.cols}, rng, -3.0f, 5.0f);
  const auto q = quantize(t, QuantConfig{param.bits, param.group});
  const Tensor back = dequantize(q);

  // Per-group error bound: half a step of that group's range, padding
  // zeros included in the range. Check element-wise against the group's
  // own bound.
  const auto src = t.f32();
  const auto rec = back.f32();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const auto g = static_cast<std::size_t>(
        static_cast<std::int64_t>(i) / param.group);
    const float scale = q.group_scale()[g];
    // Max rounding error is half a step (+ float32 arithmetic slack).
    EXPECT_LE(std::fabs(src[i] - rec[i]), scale * 0.5f + 1e-5f)
        << "element " << i;
  }
}

TEST_P(QuantProperty, DeterministicAndIdempotent) {
  const auto param = GetParam();
  util::Xoshiro256 rng(29);
  Tensor t = Tensor::uniform({param.rows, param.cols}, rng);
  const auto q1 = quantize(t, QuantConfig{param.bits, param.group});
  const auto q2 = quantize(t, QuantConfig{param.bits, param.group});
  EXPECT_EQ(q1.payload(), q2.payload());
  // Re-quantizing the dequantized tensor reproduces identical codes
  // (fixed-point of the quantizer).
  const auto q3 =
      quantize(dequantize(q1), QuantConfig{param.bits, param.group});
  EXPECT_EQ(dequantize(q3).max_abs_diff(dequantize(q1)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    BitWidthsAndShapes, QuantProperty,
    ::testing::Values(QuantCase{4, 32, 16, 64}, QuantCase{4, 64, 7, 33},
                      QuantCase{8, 32, 16, 64}, QuantCase{8, 16, 128, 5},
                      QuantCase{4, 128, 1, 1000}, QuantCase{8, 256, 3, 100}),
    [](const ::testing::TestParamInfo<QuantCase>& info) {
      return "b" + std::to_string(info.param.bits) + "_g" +
             std::to_string(info.param.group) + "_" +
             std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols);
    });

// 8-bit error is strictly tighter than 4-bit on the same data.
TEST(Quantize, MoreBitsMeanLessError) {
  util::Xoshiro256 rng(31);
  Tensor t = Tensor::uniform({256, 64}, rng, -1.0f, 1.0f);
  const float err4 = t.max_abs_diff(dequantize(quantize(t, {4, 64})));
  const float err8 = t.max_abs_diff(dequantize(quantize(t, {8, 64})));
  EXPECT_LT(err8, err4);
}

TEST(Quantize, OutliersBlowUpTheirGroupOnly) {
  // Group-wise quantization's known failure mode: a single outlier widens
  // its group's range and crushes that group's resolution — but leaves
  // every other group untouched. This locality is why group-wise beats
  // per-tensor scaling on LLM weights.
  util::Xoshiro256 rng(43);
  Tensor t = Tensor::uniform({256}, rng, -1.0f, 1.0f);
  t.set({10}, 1000.0f);  // outlier in group 0 (group size 64)
  const auto q = quantize(t, QuantConfig{4, 64});
  const Tensor back = dequantize(q);

  float worst_in_group0 = 0.0f;
  float worst_elsewhere = 0.0f;
  auto a = t.f32();
  auto b = back.f32();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i == 10) continue;  // the outlier itself reproduces exactly-ish
    const float err = std::fabs(a[i] - b[i]);
    (i < 64 ? worst_in_group0 : worst_elsewhere) =
        std::max(i < 64 ? worst_in_group0 : worst_elsewhere, err);
  }
  // With a 1001-wide range and 15 levels, every normal value in the
  // outlier's group collapses to the group minimum: error ≈ the full data
  // spread (~2), vs a ~0.07 step in clean groups.
  EXPECT_GT(worst_in_group0, 1.0f);
  EXPECT_LT(worst_elsewhere, 0.08f);  // other groups unaffected
}

TEST(Quantize, PerTensorEquivalentViaHugeGroup) {
  // One group spanning the whole tensor = per-tensor min-max quantization;
  // the same outlier now poisons everything.
  util::Xoshiro256 rng(47);
  Tensor t = Tensor::uniform({256}, rng, -1.0f, 1.0f);
  t.set({10}, 1000.0f);
  const Tensor back = dequantize(quantize(t, QuantConfig{4, 256}));
  float worst_tail = 0.0f;
  for (std::int64_t i = 64; i < 256; ++i) {
    worst_tail = std::max(worst_tail, std::fabs(t.at({i}) - back.at({i})));
  }
  EXPECT_GT(worst_tail, 1.0f);  // global range ruined the far elements
}

// Smaller groups adapt better to value ranges → no larger max error.
TEST(Quantize, SmallerGroupsNoWorse) {
  util::Xoshiro256 rng(37);
  // Values with a strong trend so group-local ranges differ a lot.
  Tensor t = Tensor::zeros({1024});
  auto p = t.f32();
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<float>(i) * 0.01f +
           static_cast<float>(rng.uniform(-0.1, 0.1));
  }
  const float err_small = t.max_abs_diff(dequantize(quantize(t, {4, 32})));
  const float err_large = t.max_abs_diff(dequantize(quantize(t, {4, 512})));
  EXPECT_LE(err_small, err_large);
}

}  // namespace
}  // namespace lmo::tensor
