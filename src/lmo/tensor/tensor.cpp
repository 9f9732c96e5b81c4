#include "lmo/tensor/tensor.hpp"

#include <cmath>
#include <cstring>

#include "lmo/util/check.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace lmo::tensor {
namespace {

// f16 → f32 for a whole buffer, bit-identical to f16_bits_to_f32 on every
// pattern. Eight halves per step, branchless: widen to 32 bits, shift the
// exponent and mantissa into place and rebias the exponent by 127 - 15.
// Inf/NaN lanes get the rest of the way to exponent 255 (payload and
// signalling bit kept, as in the scalar path). Zero/subnormal lanes are
// built as 2^-14 · (1 + m/1024) and have 2^-14 subtracted, which leaves
// exactly m · 2^-24.
void f16_to_f32(const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  const __m128i magnitude = _mm_set1_epi32(0x7fff);
  const __m128i sign = _mm_set1_epi32(0x8000);
  const __m128i exp_mask = _mm_set1_epi32(0x7c00 << 13);
  const __m128i rebias = _mm_set1_epi32((127 - 15) << 23);
  const __m128i special_rebias = _mm_set1_epi32((128 - 16) << 23);
  const __m128i exp_one = _mm_set1_epi32(1 << 23);
  const __m128 subnormal_base = _mm_castsi128_ps(_mm_set1_epi32(113 << 23));
  const auto widen = [&](__m128i h) {
    const __m128i bits = _mm_slli_epi32(_mm_and_si128(h, magnitude), 13);
    const __m128i exp = _mm_and_si128(bits, exp_mask);
    __m128i o = _mm_add_epi32(bits, rebias);
    o = _mm_add_epi32(
        o, _mm_and_si128(_mm_cmpeq_epi32(exp, exp_mask), special_rebias));
    const __m128i tiny = _mm_cmpeq_epi32(exp, zero);
    const __m128i renormalized = _mm_castps_si128(_mm_sub_ps(
        _mm_castsi128_ps(_mm_add_epi32(o, exp_one)), subnormal_base));
    o = _mm_or_si128(_mm_and_si128(tiny, renormalized),
                     _mm_andnot_si128(tiny, o));
    return _mm_castsi128_ps(
        _mm_or_si128(o, _mm_slli_epi32(_mm_and_si128(h, sign), 16)));
  };
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_ps(dst + i, widen(_mm_unpacklo_epi16(h, zero)));
    _mm_storeu_ps(dst + i + 4, widen(_mm_unpackhi_epi16(h, zero)));
  }
#endif
  for (; i < n; ++i) dst[i] = f16_bits_to_f32(src[i]);
}

}  // namespace

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(shape),
      dtype_(dtype),
      storage_(std::make_shared<std::vector<std::byte>>(
          bytes_for(dtype, static_cast<std::size_t>(shape.numel())))) {}

Tensor Tensor::zeros(Shape shape, DType dtype) { return Tensor(shape, dtype); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(shape, DType::kF32);
  for (float& x : t.f32()) x = value;
  return t;
}

Tensor Tensor::uniform(Shape shape, util::Xoshiro256& rng, float lo,
                       float hi) {
  Tensor t(shape, DType::kF32);
  for (float& x : t.f32()) {
    x = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::normal(Shape shape, util::Xoshiro256& rng, float stddev) {
  Tensor t(shape, DType::kF32);
  for (float& x : t.f32()) {
    x = static_cast<float>(rng.normal() * stddev);
  }
  return t;
}

Tensor Tensor::from_values(Shape shape, std::vector<float> values) {
  LMO_CHECK_EQ(static_cast<std::int64_t>(values.size()), shape.numel());
  Tensor t(shape, DType::kF32);
  std::memcpy(t.raw().data(), values.data(), values.size() * sizeof(float));
  return t;
}

std::size_t Tensor::byte_size() const {
  return storage_ ? storage_->size() : 0;
}

std::span<const std::byte> Tensor::raw() const {
  LMO_CHECK(defined());
  return {storage_->data(), storage_->size()};
}

std::span<std::byte> Tensor::raw() {
  LMO_CHECK(defined());
  return {storage_->data(), storage_->size()};
}

std::span<const float> Tensor::f32() const {
  LMO_CHECK(defined());
  LMO_CHECK(dtype_ == DType::kF32);
  return {reinterpret_cast<const float*>(storage_->data()),
          static_cast<std::size_t>(numel())};
}

std::span<float> Tensor::f32() {
  LMO_CHECK(defined());
  LMO_CHECK(dtype_ == DType::kF32);
  return {reinterpret_cast<float*>(storage_->data()),
          static_cast<std::size_t>(numel())};
}

std::int64_t Tensor::flat_index(
    std::initializer_list<std::int64_t> index) const {
  LMO_CHECK_EQ(index.size(), shape_.rank());
  std::int64_t flat = 0;
  std::size_t axis = 0;
  for (std::int64_t i : index) {
    LMO_CHECK_GE(i, 0);
    LMO_CHECK_LT(i, shape_.dim(axis));
    flat += i * shape_.stride(axis);
    ++axis;
  }
  return flat;
}

float Tensor::at(std::initializer_list<std::int64_t> index) const {
  return f32()[static_cast<std::size_t>(flat_index(index))];
}

void Tensor::set(std::initializer_list<std::int64_t> index, float value) {
  f32()[static_cast<std::size_t>(flat_index(index))] = value;
}

Tensor Tensor::cast(DType target) const {
  LMO_CHECK(defined());
  if (target == dtype_) return clone();
  LMO_CHECK_MSG(dtype_ == DType::kF32 || dtype_ == DType::kF16,
                "cast supports f32<->f16 only; quantized types go through "
                "the quantizer");
  LMO_CHECK_MSG(target == DType::kF32 || target == DType::kF16,
                "cast supports f32<->f16 only");

  Tensor out(shape_, target);
  const std::size_t n = static_cast<std::size_t>(numel());
  if (dtype_ == DType::kF32 && target == DType::kF16) {
    const float* src = reinterpret_cast<const float*>(storage_->data());
    auto* dst = reinterpret_cast<std::uint16_t*>(out.raw().data());
    for (std::size_t i = 0; i < n; ++i) dst[i] = f32_to_f16_bits(src[i]);
  } else {
    f16_to_f32(reinterpret_cast<const std::uint16_t*>(storage_->data()),
               reinterpret_cast<float*>(out.raw().data()), n);
  }
  return out;
}

Tensor Tensor::clone() const {
  LMO_CHECK(defined());
  Tensor out(shape_, dtype_);
  std::memcpy(out.raw().data(), storage_->data(), storage_->size());
  return out;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  LMO_CHECK(defined());
  LMO_CHECK_EQ(new_shape.numel(), shape_.numel());
  Tensor out = *this;  // shares storage
  out.shape_ = new_shape;
  return out;
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float x : f32()) m = std::max(m, std::fabs(x));
  return m;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  LMO_CHECK(shape_ == other.shape_);
  auto a = f32();
  auto b = other.f32();
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

double Tensor::mean() const {
  double sum = 0.0;
  for (float x : f32()) sum += x;
  const std::int64_t n = numel();
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace lmo::tensor
