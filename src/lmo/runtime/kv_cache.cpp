#include "lmo/runtime/kv_cache.hpp"

#include <chrono>
#include <cstring>
#include <span>

#include "lmo/util/check.hpp"
#include "lmo/util/checksum.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

// Bit-flip injection on KV rows as they are read back for attention.
constexpr const char* kKvFlipSite = "integrity.kv.flip";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The stored payload bytes a row's fingerprint covers.
std::span<const std::byte> row_payload(const KVCache::Row& row) {
  if (row.quantized.defined()) {
    const std::vector<std::uint8_t>& payload = row.quantized.payload();
    return std::as_bytes(
        std::span<const std::uint8_t>(payload.data(), payload.size()));
  }
  return row.plain.raw();
}

/// A deep copy of `row` with bit `flip` of its payload inverted — the
/// "wire" copy a bit-rot fault would deliver. The stored row (whose payload
/// clones share) is never mutated.
KVCache::Row flip_row(const KVCache::Row& row, std::int64_t flip) {
  KVCache::Row out;
  const auto byte_index = static_cast<std::size_t>(flip / 8);
  const auto mask = static_cast<std::uint8_t>(1u << (flip % 8));
  if (row.quantized.defined()) {
    std::vector<std::uint8_t> payload = row.quantized.payload();
    payload[byte_index] ^= mask;
    out.quantized = tensor::QuantizedTensor::from_parts(
        row.quantized.original_shape(),
        tensor::QuantConfig{row.quantized.bits(), row.quantized.group_size()},
        row.quantized.padded_numel(), std::move(payload),
        row.quantized.group_min(), row.quantized.group_scale());
  } else {
    out.plain = row.plain.clone();
    out.plain.raw()[byte_index] ^= static_cast<std::byte>(mask);
  }
  return out;
}

}  // namespace

KVCache::KVCache(std::int64_t hidden, int bits, std::int64_t group_size,
                 MemoryPool& pool)
    : hidden_(hidden), bits_(bits), group_size_(group_size), pool_(&pool) {
  LMO_CHECK_GT(hidden, 0);
  LMO_CHECK(bits == 16 || bits == 8 || bits == 4);
  LMO_CHECK_GT(group_size, 0);
}

KVCache::~KVCache() {
  if (pool_ != nullptr && stored_bytes_ > 0) {
    pool_->release(stored_bytes_);
  }
}

KVCache::Row KVCache::make_row(const tensor::Tensor& row) {
  LMO_CHECK_EQ(row.shape().rank(), 1u);
  LMO_CHECK_EQ(row.shape()[0], hidden_);
  Row out;
  if (bits_ == 16) {
    out.plain = row.clone();
  } else {
    const auto start = std::chrono::steady_clock::now();
    out.quantized =
        tensor::quantize(row, tensor::QuantConfig{bits_, group_size_});
    quantize_seconds_ += seconds_since(start);
  }
  return out;
}

std::size_t KVCache::row_bytes(const Row& row) const {
  return row.quantized.defined() ? row.quantized.byte_size()
                                 : row.plain.byte_size();
}

void KVCache::append(const tensor::Tensor& k_row,
                     const tensor::Tensor& v_row) {
  Row k = make_row(k_row);
  Row v = make_row(v_row);
  const std::size_t bytes = row_bytes(k) + row_bytes(v);
  pool_->charge(bytes);
  stored_bytes_ += bytes;
  if (integrity_ != nullptr && integrity_->enabled()) {
    k_crcs_.push_back(util::crc32(row_payload(k)));
    v_crcs_.push_back(util::crc32(row_payload(v)));
  }
  k_rows_.push_back(std::move(k));
  v_rows_.push_back(std::move(v));
  ++length_;
}

void KVCache::set_integrity(integrity::ChecksumRegistry* registry,
                            std::string region) {
  LMO_CHECK_MSG(length_ == 0,
                "set_integrity must precede appends so every row gets a "
                "fingerprint");
  integrity_ = registry;
  region_ = std::move(region);
}

tensor::Tensor KVCacheBase::copy_plane(KVPlane plane) const {
  KVRowView view;
  read_rows(plane, view);
  const std::int64_t h = hidden();
  tensor::Tensor out = tensor::Tensor::zeros(
      {static_cast<std::int64_t>(view.rows.size()), h});
  float* dst = out.f32().data();
  for (std::size_t i = 0; i < view.rows.size(); ++i) {
    std::memcpy(dst + static_cast<std::int64_t>(i) * h, view.rows[i],
                static_cast<std::size_t>(h) * sizeof(float));
  }
  return out;
}

void KVCache::read_rows(KVPlane plane, KVRowView& view) const {
  const bool keys = plane == KVPlane::kKeys;
  const std::vector<Row>& rows = keys ? k_rows_ : v_rows_;
  const std::vector<std::uint32_t>& crcs = keys ? k_crcs_ : v_crcs_;
  auto& injector = util::FaultInjector::instance();
  const bool inject = injector.enabled();
  const bool check =
      integrity_ != nullptr && integrity_->enabled() && !crcs.empty();
  view.rows.resize(static_cast<std::size_t>(length_));
  // Row i decodes into scratch slot i, so earlier pointers stay valid.
  if (bits_ != 16 || inject) {
    view.scratch.resize(static_cast<std::size_t>(length_ * hidden_));
  }
  for (std::int64_t i = 0; i < length_; ++i) {
    const Row& stored = rows[static_cast<std::size_t>(i)];
    const Row* src = &stored;
    Row wire;
    if (inject) {
      // The read-back crosses the same fragile path the write took; model
      // bit rot on a copy — clones share the stored payload, which must
      // stay pristine.
      // The flip domain is the fingerprinted payload span — byte_size()
      // also counts quantization metadata the wire copy does not carry.
      const std::int64_t flip = injector.corrupt_bit(
          kKvFlipSite,
          8 * static_cast<std::uint64_t>(row_payload(stored).size()));
      if (flip >= 0) {
        wire = flip_row(stored, flip);
        src = &wire;
      }
    }
    if (check &&
        integrity_->config().should_verify(static_cast<std::uint64_t>(i)) &&
        !integrity_->verify_value(row_payload(*src),
                                  crcs[static_cast<std::size_t>(i)])) {
      // The stored row itself may be rot (not just the wire copy), so
      // re-reading cannot repair it; the Generator recomputes the cache
      // from the token history.
      throw util::DataCorruption("KV row " + std::to_string(i) + " of " +
                                 (region_.empty() ? "<unnamed>" : region_) +
                                 " failed verification");
    }
    const float* row = nullptr;
    if (src == &stored && stored.plain.defined()) {
      row = stored.plain.f32().data();  // in place: no copy
    } else {
      float* slot = view.scratch.data() + i * hidden_;
      if (src->quantized.defined()) {
        const auto start = std::chrono::steady_clock::now();
        tensor::dequantize_into(src->quantized, slot);
        dequantize_seconds_ += seconds_since(start);
      } else {
        std::memcpy(slot, src->plain.f32().data(),
                    static_cast<std::size_t>(hidden_) * sizeof(float));
      }
      row = slot;
    }
    view.rows[static_cast<std::size_t>(i)] = row;
  }
}

void KVCache::truncate(std::int64_t new_length) {
  LMO_CHECK_GE(new_length, 0);
  LMO_CHECK_LE(new_length, length_);
  while (length_ > new_length) {
    const std::size_t bytes =
        row_bytes(k_rows_.back()) + row_bytes(v_rows_.back());
    k_rows_.pop_back();
    v_rows_.pop_back();
    if (!k_crcs_.empty()) {
      k_crcs_.pop_back();
      v_crcs_.pop_back();
    }
    pool_->release(bytes);
    stored_bytes_ -= bytes;
    --length_;
  }
}

double KVCache::dequantize_seconds() const { return dequantize_seconds_; }

void KVCache::restore_rows(std::vector<Row> k, std::vector<Row> v) {
  LMO_CHECK_MSG(length_ == 0, "restore_rows requires an empty cache");
  LMO_CHECK_EQ(k.size(), v.size());
  std::size_t bytes = 0;
  for (const auto* rows : {&k, &v}) {
    for (const Row& row : *rows) {
      if (bits_ == 16) {
        LMO_CHECK_MSG(row.plain.defined() && !row.quantized.defined(),
                      "restored row compression does not match bits=16 cache");
        LMO_CHECK_EQ(row.plain.shape().rank(), 1u);
        LMO_CHECK_EQ(row.plain.shape()[0], hidden_);
      } else {
        LMO_CHECK_MSG(row.quantized.defined() && !row.plain.defined(),
                      "restored row compression does not match quantized cache");
        LMO_CHECK_EQ(row.quantized.bits(), bits_);
        LMO_CHECK_EQ(row.quantized.original_shape().numel(), hidden_);
      }
      bytes += row_bytes(row);
    }
  }
  pool_->charge(bytes);
  stored_bytes_ += bytes;
  length_ = static_cast<std::int64_t>(k.size());
  k_rows_ = std::move(k);
  v_rows_ = std::move(v);
  if (integrity_ != nullptr && integrity_->enabled()) {
    // Restored rows arrive CRC-protected by the checkpoint envelope;
    // re-fingerprint them so at-rest verification resumes seamlessly.
    k_crcs_.clear();
    v_crcs_.clear();
    for (const Row& row : k_rows_) k_crcs_.push_back(util::crc32(row_payload(row)));
    for (const Row& row : v_rows_) v_crcs_.push_back(util::crc32(row_payload(row)));
  }
}

std::unique_ptr<KVCacheBase> KVCache::clone() const {
  auto copy = std::make_unique<KVCache>(hidden_, bits_, group_size_, *pool_);
  // Rows hold shared-immutable payloads; copying the row vectors is a deep
  // logical copy. Charge the pool for the duplicate residency *before*
  // populating the copy: if the charge throws (pool pressure or fault
  // injection), the copy must not carry bytes its destructor would release
  // without ever having charged.
  pool_->charge(stored_bytes_);
  copy->k_rows_ = k_rows_;
  copy->v_rows_ = v_rows_;
  copy->length_ = length_;
  copy->stored_bytes_ = stored_bytes_;
  copy->integrity_ = integrity_;
  copy->region_ = region_;
  copy->k_crcs_ = k_crcs_;
  copy->v_crcs_ = v_crcs_;
  return copy;
}

}  // namespace lmo::runtime
