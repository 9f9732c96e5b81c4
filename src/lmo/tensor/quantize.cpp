#include "lmo/tensor/quantize.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "lmo/util/check.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace lmo::tensor {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Eq. 11 over the codes [begin, end) of one group, written from out[0]:
// x = code · scale + min (scale already folds in (max-min)/(2^b-1)). Each
// product and sum is rounded on its own (this library builds with
// -ffp-contract=off), so the SSE2 lanes, the scalar edges and any slice
// of a row write the same floats as the one-element formula. A 4-bit
// group starts on a byte; a slice may start on its odd (high) nibble.
template <int Bits>
void decode_group(const std::uint8_t* codes, std::int64_t begin,
                  std::int64_t end, float scale, float mn, float* out) {
  const auto code = [codes](std::int64_t i) -> int {
    if constexpr (Bits == 4) {
      return (codes[i / 2] >> (4 * (i % 2))) & 0x0f;
    } else {
      return codes[i];
    }
  };
  std::int64_t i = begin;
  if (Bits == 4 && i % 2 != 0 && i < end) {
    *out++ = static_cast<float>(code(i++)) * scale + mn;
  }
#if defined(__SSE2__)
  // Sixteen codes per step: unpack the bytes (4-bit: low nibble, then high
  // nibble, of each byte) to 32-bit lanes and convert — exact for codes.
  const __m128 s = _mm_set1_ps(scale);
  const __m128 m = _mm_set1_ps(mn);
  const __m128i zero = _mm_setzero_si128();
  const auto store4 = [&](__m128i lanes) {
    _mm_storeu_ps(out, _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(lanes), s), m));
    out += 4;
  };
  for (; i + 16 <= end; i += 16) {
    __m128i bytes;
    if constexpr (Bits == 4) {
      const __m128i nibble = _mm_set1_epi8(0x0f);
      const __m128i packed =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i / 2));
      bytes = _mm_unpacklo_epi8(
          _mm_and_si128(packed, nibble),
          _mm_and_si128(_mm_srli_epi16(packed, 4), nibble));
    } else {
      bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    }
    const __m128i lo = _mm_unpacklo_epi8(bytes, zero);
    const __m128i hi = _mm_unpackhi_epi8(bytes, zero);
    store4(_mm_unpacklo_epi16(lo, zero));
    store4(_mm_unpackhi_epi16(lo, zero));
    store4(_mm_unpacklo_epi16(hi, zero));
    store4(_mm_unpackhi_epi16(hi, zero));
  }
#endif
  for (; i < end; ++i) *out++ = static_cast<float>(code(i)) * scale + mn;
}

}  // namespace

void QuantConfig::validate() const {
  LMO_CHECK_MSG(bits == 4 || bits == 8, "quantization bits must be 4 or 8");
  LMO_CHECK_GT(group_size, 0);
  if (bits == 4) {
    LMO_CHECK_MSG(group_size % 2 == 0,
                  "4-bit groups must have even size for byte packing");
  }
}

std::size_t QuantizedTensor::byte_size() const {
  return payload_.size() + (group_min_.size() + group_scale_.size()) *
                               sizeof(float);
}

double QuantizedTensor::compression_ratio_vs_f16() const {
  if (!defined()) return 0.0;
  const double original =
      static_cast<double>(original_shape_.numel()) * sizeof(Half);
  return original / static_cast<double>(byte_size());
}

QuantizedTensor QuantizedTensor::from_parts(Shape original_shape,
                                            QuantConfig config,
                                            std::int64_t padded_numel,
                                            std::vector<std::uint8_t> payload,
                                            std::vector<float> group_min,
                                            std::vector<float> group_scale) {
  config.validate();
  LMO_CHECK_GT(padded_numel, 0);
  LMO_CHECK_EQ(padded_numel % config.group_size, 0);
  LMO_CHECK_GE(padded_numel, original_shape.numel());
  LMO_CHECK_LT(padded_numel - config.group_size, original_shape.numel());
  const std::size_t groups =
      static_cast<std::size_t>(padded_numel / config.group_size);
  LMO_CHECK_EQ(group_min.size(), groups);
  LMO_CHECK_EQ(group_scale.size(), groups);
  const std::size_t expected_payload = static_cast<std::size_t>(
      config.bits == 4 ? padded_numel / 2 : padded_numel);
  LMO_CHECK_EQ(payload.size(), expected_payload);

  QuantizedTensor out;
  out.original_shape_ = std::move(original_shape);
  out.config_ = config;
  out.padded_numel_ = padded_numel;
  out.payload_ = std::move(payload);
  out.group_min_ = std::move(group_min);
  out.group_scale_ = std::move(group_scale);
  return out;
}

QuantizedTensor quantize(const Tensor& input, const QuantConfig& config) {
  return quantize_profiled(input, config, nullptr);
}

QuantizedTensor quantize_profiled(const Tensor& input,
                                  const QuantConfig& config,
                                  QuantPhaseTimes* times) {
  LMO_CHECK(input.defined());
  LMO_CHECK_MSG(input.dtype() == DType::kF32,
                "quantizer input must be f32 (compute precision)");
  config.validate();

  QuantizedTensor out;
  out.original_shape_ = input.shape();
  out.config_ = config;

  const std::int64_t numel = input.numel();
  const std::int64_t gs = config.group_size;
  const std::int64_t padded = (numel + gs - 1) / gs * gs;
  out.padded_numel_ = padded;
  const std::int64_t num_groups = padded / gs;

  // Phase 1: pad — copy into a padded working buffer (Lines 5-6 of Alg. 2).
  auto t0 = Clock::now();
  std::vector<float> work(static_cast<std::size_t>(padded), 0.0f);
  {
    auto src = input.f32();
    std::memcpy(work.data(), src.data(), src.size() * sizeof(float));
  }
  if (times) times->pad = elapsed(t0);

  // Phase 2: per-group min/max (Lines 9-10).
  t0 = Clock::now();
  out.group_min_.resize(static_cast<std::size_t>(num_groups));
  out.group_scale_.resize(static_cast<std::size_t>(num_groups));
  const int levels = (1 << config.bits) - 1;
  for (std::int64_t g = 0; g < num_groups; ++g) {
    const float* p = work.data() + g * gs;
    float mn = p[0];
    float mx = p[0];
    for (std::int64_t i = 1; i < gs; ++i) {
      mn = std::min(mn, p[i]);
      mx = std::max(mx, p[i]);
    }
    out.group_min_[static_cast<std::size_t>(g)] = mn;
    out.group_scale_[static_cast<std::size_t>(g)] =
        (mx - mn) / static_cast<float>(levels);
  }
  if (times) times->minmax = elapsed(t0);

  // Phase 3: min-max normalization + clamp (Eq. 10, Lines 12 and 14).
  t0 = Clock::now();
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(padded));
  for (std::int64_t g = 0; g < num_groups; ++g) {
    const float mn = out.group_min_[static_cast<std::size_t>(g)];
    const float scale = out.group_scale_[static_cast<std::size_t>(g)];
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    const float* p = work.data() + g * gs;
    std::uint8_t* c = codes.data() + g * gs;
    for (std::int64_t i = 0; i < gs; ++i) {
      const float normalized = (p[i] - mn) * inv;
      const int q = static_cast<int>(std::lround(normalized));
      c[i] = static_cast<std::uint8_t>(std::clamp(q, 0, levels));
    }
  }
  if (times) times->normalize = elapsed(t0);

  // Phase 4: pack + reshape (Lines 16 and 18).
  t0 = Clock::now();
  if (config.bits == 8) {
    out.payload_ = std::move(codes);
  } else {
    out.payload_.resize(static_cast<std::size_t>(padded / 2));
    for (std::int64_t i = 0; i < padded; i += 2) {
      out.payload_[static_cast<std::size_t>(i / 2)] = static_cast<std::uint8_t>(
          (codes[static_cast<std::size_t>(i)] & 0x0f) |
          (codes[static_cast<std::size_t>(i + 1)] << 4));
    }
  }
  if (times) times->pack = elapsed(t0);

  return out;
}

void quantize_into(std::span<const float> input, const QuantConfig& config,
                   std::span<float> group_min, std::span<float> group_scale,
                   std::span<std::uint8_t> codes) {
  config.validate();
  const auto numel = static_cast<std::int64_t>(input.size());
  const std::int64_t gs = config.group_size;
  const std::int64_t num_groups = (numel + gs - 1) / gs;
  const bool packed4 = config.bits == 4;
  LMO_CHECK_EQ(static_cast<std::int64_t>(group_min.size()), num_groups);
  LMO_CHECK_EQ(static_cast<std::int64_t>(group_scale.size()), num_groups);
  LMO_CHECK_EQ(static_cast<std::int64_t>(codes.size()),
               num_groups * gs / (packed4 ? 2 : 1));
  const int levels = (1 << config.bits) - 1;
  for (std::int64_t g = 0; g < num_groups; ++g) {
    // The same arithmetic as quantize_profiled, with the zero padding of
    // the last group read as 0.0f instead of copied into a buffer.
    const float* p = input.data() + g * gs;
    const std::int64_t count = std::min(gs, numel - g * gs);
    float mn = p[0];
    float mx = p[0];
    for (std::int64_t i = 1; i < count; ++i) {
      mn = std::min(mn, p[i]);
      mx = std::max(mx, p[i]);
    }
    if (count < gs) {
      mn = std::min(mn, 0.0f);
      mx = std::max(mx, 0.0f);
    }
    const float scale = (mx - mn) / static_cast<float>(levels);
    group_min[static_cast<std::size_t>(g)] = mn;
    group_scale[static_cast<std::size_t>(g)] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    const auto code = [&](std::int64_t i) {
      const float normalized = ((i < count ? p[i] : 0.0f) - mn) * inv;
      const int q = static_cast<int>(std::lround(normalized));
      return static_cast<std::uint8_t>(std::clamp(q, 0, levels));
    };
    if (packed4) {
      std::uint8_t* out = codes.data() + g * gs / 2;
      for (std::int64_t i = 0; i < gs; i += 2) {
        out[i / 2] = static_cast<std::uint8_t>((code(i) & 0x0f) |
                                               (code(i + 1) << 4));
      }
    } else {
      std::uint8_t* out = codes.data() + g * gs;
      for (std::int64_t i = 0; i < gs; ++i) out[i] = code(i);
    }
  }
}

void dequantize_into(std::span<const std::uint8_t> codes,
                     std::span<const float> group_min,
                     std::span<const float> group_scale, int bits,
                     std::int64_t group_size, std::int64_t begin,
                     std::span<float> out) {
  const std::int64_t end = begin + static_cast<std::int64_t>(out.size());
  LMO_CHECK(bits == 4 || bits == 8);
  LMO_CHECK_GE(begin, 0);
  LMO_CHECK_GE(static_cast<std::int64_t>(codes.size()) * (bits == 4 ? 2 : 1),
               end);
  LMO_CHECK_GE(static_cast<std::int64_t>(group_min.size()) * group_size,
               end);
  LMO_CHECK_EQ(group_min.size(), group_scale.size());
  float* dst = out.data();
  for (std::int64_t g = begin / group_size; g * group_size < end; ++g) {
    const std::int64_t lo = std::max(begin, g * group_size);
    const std::int64_t hi = std::min(end, (g + 1) * group_size);
    dequantize_group(codes.data(), bits, lo, hi,
                     group_scale[static_cast<std::size_t>(g)],
                     group_min[static_cast<std::size_t>(g)], dst);
    dst += hi - lo;
  }
}

void dequantize_group(const std::uint8_t* codes, int bits, std::int64_t begin,
                      std::int64_t end, float scale, float min, float* out) {
  if (bits == 4) {
    decode_group<4>(codes, begin, end, scale, min, out);
  } else {
    decode_group<8>(codes, begin, end, scale, min, out);
  }
}

void dequantize_into(const QuantizedTensor& quantized, float* out) {
  LMO_CHECK(quantized.defined());
  dequantize_into(quantized.payload(), quantized.group_min(),
                  quantized.group_scale(), quantized.bits(),
                  quantized.group_size(), 0,
                  std::span<float>(out, static_cast<std::size_t>(
                                            quantized.original_shape().numel())));
}

Tensor dequantize(const QuantizedTensor& quantized) {
  LMO_CHECK(quantized.defined());
  Tensor out = Tensor::zeros(quantized.original_shape());
  dequantize_into(quantized, out.f32().data());
  return out;
}

double max_quant_error(double min, double max, int bits) {
  const double levels = static_cast<double>((1 << bits) - 1);
  return (max - min) / levels * 0.5;
}

}  // namespace lmo::tensor
