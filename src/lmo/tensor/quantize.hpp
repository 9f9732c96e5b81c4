// Group-wise min-max quantization, reproducing the paper's Algorithm 2:
//
//   pad → per-group min/max → min-max normalization (Eq. 10) → clamp →
//   bit-pack → reshape
//
// and dequantization (Eq. 11). Groups are formed along the innermost
// dimension after flattening; the tensor is zero-padded so the element count
// is a multiple of the group size (the "pad" phase). 4-bit payloads are
// genuinely packed two-per-byte.
//
// The paper profiles the four phases and reports that min/max + normalization
// + post-processing account for ~95% of quantization time; quantize_profiled
// exposes per-phase wall-clock durations so bench_quant_kernel can reproduce
// that claim.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lmo/tensor/tensor.hpp"

namespace lmo::tensor {

struct QuantConfig {
  int bits = 4;                 ///< 4 or 8
  std::int64_t group_size = 64; ///< elements per quantization group

  /// Symmetric validation helper; throws CheckError on bad values.
  void validate() const;
};

/// A quantized tensor: packed payload + per-group (min, scale) metadata.
/// scale = (max - min) / (2^bits - 1); x ≈ q * scale + min.
class QuantizedTensor {
 public:
  QuantizedTensor() = default;

  const Shape& original_shape() const { return original_shape_; }
  int bits() const { return config_.bits; }
  std::int64_t group_size() const { return config_.group_size; }
  std::int64_t padded_numel() const { return padded_numel_; }
  std::int64_t num_groups() const {
    return padded_numel_ == 0 ? 0 : padded_numel_ / config_.group_size;
  }

  /// Packed payload bytes (the "data" the offloader actually moves).
  const std::vector<std::uint8_t>& payload() const { return payload_; }
  const std::vector<float>& group_min() const { return group_min_; }
  const std::vector<float>& group_scale() const { return group_scale_; }

  /// Total bytes: payload + per-group metadata. This is the I/O volume a
  /// transfer of this tensor costs.
  std::size_t byte_size() const;

  /// byte_size(fp16 original) / byte_size(quantized).
  double compression_ratio_vs_f16() const;

  bool defined() const { return padded_numel_ > 0; }

  /// Reassemble a quantized tensor from its serialized parts (checkpoint
  /// restore). Bit-exact: the payload and per-group metadata are adopted
  /// verbatim, so a round-tripped tensor dequantizes to the same values as
  /// the original — no re-quantization drift. Throws CheckError when the
  /// part sizes are mutually inconsistent.
  static QuantizedTensor from_parts(Shape original_shape, QuantConfig config,
                                    std::int64_t padded_numel,
                                    std::vector<std::uint8_t> payload,
                                    std::vector<float> group_min,
                                    std::vector<float> group_scale);

 private:
  friend QuantizedTensor quantize(const Tensor&, const QuantConfig&);
  friend struct QuantPhaseTimes;
  friend QuantizedTensor quantize_profiled(const Tensor&, const QuantConfig&,
                                           struct QuantPhaseTimes*);

  Shape original_shape_;
  QuantConfig config_;
  std::int64_t padded_numel_ = 0;
  std::vector<std::uint8_t> payload_;
  std::vector<float> group_min_;
  std::vector<float> group_scale_;
};

/// Wall-clock seconds spent in each Algorithm-2 phase.
struct QuantPhaseTimes {
  double pad = 0.0;
  double minmax = 0.0;
  double normalize = 0.0;  ///< normalization + clamp (Eq. 10)
  double pack = 0.0;       ///< bit-pack + reshape ("post-processing")

  double total() const { return pad + minmax + normalize + pack; }
};

/// Quantize an f32 tensor (Algorithm 2). Throws CheckError for non-f32 input
/// or invalid config.
QuantizedTensor quantize(const Tensor& input, const QuantConfig& config);

/// Same, recording per-phase wall-clock durations into *times (if non-null).
QuantizedTensor quantize_profiled(const Tensor& input,
                                  const QuantConfig& config,
                                  QuantPhaseTimes* times);

/// quantize() of `input` written straight into caller-owned storage (the
/// KV append path quantizes each row into its block): one min and one scale
/// per group, and the codes packed as quantize() packs them. The spans hold
/// ceil(input.size() / group_size) groups and the padded element count's
/// code bytes (half of it at 4 bits). Bytewise equal to quantize()'s
/// group_min(), group_scale() and payload(); allocates nothing.
void quantize_into(std::span<const float> input, const QuantConfig& config,
                   std::span<float> group_min, std::span<float> group_scale,
                   std::span<std::uint8_t> codes);

/// Reconstruct f32 with Eq. 11; padding is stripped, original shape restored.
Tensor dequantize(const QuantizedTensor& quantized);

/// Same values, written to `out[original_shape().numel()]` without
/// allocating.
void dequantize_into(const QuantizedTensor& quantized, float* out);

/// Eq. 11 over the elements [begin, begin + out.size()) of a quantized
/// tensor's parts wherever they are stored (attention decodes one head's
/// slice of each KV row straight from its block): `codes` packed as
/// quantize() packs them, one min and one scale per `group_size` elements.
/// Each element is code · scale + min, the product and the sum rounded
/// separately, so any range decodes to the bytes a whole-tensor decode
/// writes there. Allocates nothing.
void dequantize_into(std::span<const std::uint8_t> codes,
                     std::span<const float> group_min,
                     std::span<const float> group_scale, int bits,
                     std::int64_t group_size, std::int64_t begin,
                     std::span<float> out);

/// The loop dequantize_into runs per group, without its checks: Eq. 11
/// over the codes [begin, end) of one group whose scale and min are given,
/// written from out[0]. Requires bits 4 or 8 and [begin, end) inside one
/// group of `codes`. For a caller that decodes many short ranges of a
/// layout it validated once (attention decodes one head's slice of every
/// KV row it sees).
void dequantize_group(const std::uint8_t* codes, int bits, std::int64_t begin,
                      std::int64_t end, float scale, float min, float* out);

/// Worst-case absolute reconstruction error for a group spanning
/// [min, max]: half a quantization step.
double max_quant_error(double min, double max, int bits);

}  // namespace lmo::tensor
