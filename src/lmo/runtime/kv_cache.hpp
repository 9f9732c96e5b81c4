// Real KV cache with optional at-rest compression. One instance per
// (layer, sequence). Appends quantize the incoming K/V rows with the real
// group-wise quantizer (matching the paper: "the KV cache is updated
// throughout token generation and quantized at each transformer layer");
// reads hand attention one f32 row pointer per token — stored f32 rows in
// place, quantized rows decoded into caller-owned scratch. Compute never
// runs on packed payloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/tensor/quantize.hpp"
#include "lmo/tensor/tensor.hpp"

namespace lmo::runtime {

/// Which half of a KV cache a read covers.
enum class KVPlane : std::uint8_t { kKeys, kValues };

/// One plane of a KV cache as one row pointer per visible token, oldest
/// first. The caller owns the view and reuses it across reads, so the
/// scratch that decoded rows land in is allocated once. Pointers stay valid
/// until the next read into the same view or the next mutation of the
/// cache.
struct KVRowView {
  std::vector<const float*> rows;
  std::vector<float> scratch;
};

/// Interface shared by the cache backends: append one token's K/V rows,
/// read a plane back as row pointers for the attention scan.
class KVCacheBase {
 public:
  virtual ~KVCacheBase() = default;
  virtual void append(const tensor::Tensor& k_row,
                      const tensor::Tensor& v_row) = 0;
  virtual std::int64_t length() const = 0;
  virtual std::int64_t hidden() const = 0;
  /// Point `view.rows` at `plane`'s length() rows of hidden() floats,
  /// oldest first. f32 rows are read in place; rows that need decoding
  /// (quantized at rest, or flipped in flight by fault injection) are
  /// decoded into `view.scratch`. Backends with an integrity layer verify
  /// rows here and throw util::DataCorruption on a mismatch.
  virtual void read_rows(KVPlane plane, KVRowView& view) const = 0;
  /// Roll the cache back to `new_length` tokens (speculative-decoding
  /// rejection, beam pruning). new_length ≤ length().
  virtual void truncate(std::int64_t new_length) = 0;
  /// Independent copy (beam forking): later writes to either side never
  /// show in the other. Dense and window copies charge their own pool
  /// bytes; a paged copy shares blocks until one side writes.
  virtual std::unique_ptr<KVCacheBase> clone() const = 0;

  /// Copies of the K (or V) plane as a [length, hidden] matrix, built on
  /// read_rows (same verification) — for tests and checkpoints; the
  /// attention scan reads rows in place instead.
  tensor::Tensor keys() const { return copy_plane(KVPlane::kKeys); }
  tensor::Tensor values() const { return copy_plane(KVPlane::kValues); }

 private:
  tensor::Tensor copy_plane(KVPlane plane) const;
};

class KVCache : public KVCacheBase {
 public:
  /// `bits` = 16 keeps rows in f32; 4/8 stores each appended row
  /// compressed. `pool` is charged with the stored bytes.
  KVCache(std::int64_t hidden, int bits, std::int64_t group_size,
          MemoryPool& pool);
  ~KVCache();
  /// Moves must null the source's pool handle: a defaulted move would
  /// leave both objects releasing the same bytes on destruction.
  KVCache(KVCache&& other) noexcept
      : hidden_(other.hidden_),
        bits_(other.bits_),
        group_size_(other.group_size_),
        pool_(other.pool_),
        k_rows_(std::move(other.k_rows_)),
        v_rows_(std::move(other.v_rows_)),
        length_(other.length_),
        stored_bytes_(other.stored_bytes_),
        quantize_seconds_(other.quantize_seconds_),
        dequantize_seconds_(other.dequantize_seconds_),
        integrity_(other.integrity_),
        region_(std::move(other.region_)),
        k_crcs_(std::move(other.k_crcs_)),
        v_crcs_(std::move(other.v_crcs_)) {
    other.pool_ = nullptr;
    other.stored_bytes_ = 0;
    other.length_ = 0;
  }
  KVCache(const KVCache&) = delete;
  KVCache& operator=(const KVCache&) = delete;

  /// Append one token's key and value rows (rank-1, extent = hidden).
  void append(const tensor::Tensor& k_row,
              const tensor::Tensor& v_row) override;

  std::int64_t length() const override { return length_; }
  std::int64_t hidden() const override { return hidden_; }
  int bits() const { return bits_; }
  std::int64_t group_size() const { return group_size_; }

  void read_rows(KVPlane plane, KVRowView& view) const override;
  void truncate(std::int64_t new_length) override;
  std::unique_ptr<KVCacheBase> clone() const override;

  /// Bytes currently charged to the pool.
  std::size_t stored_bytes() const { return stored_bytes_; }

  /// Cumulative time spent (de)quantizing rows, seconds.
  double quantize_seconds() const { return quantize_seconds_; }
  double dequantize_seconds() const;

  /// One stored token row: exactly one of the members is defined.
  struct Row {
    tensor::Tensor plain;               ///< f32 when bits == 16
    tensor::QuantizedTensor quantized;  ///< otherwise
  };

  /// Stored rows in append order — checkpoint serialization reads these
  /// directly so quantized rows round-trip bit-exactly (re-quantizing a
  /// dequantized row would drift).
  const std::vector<Row>& k_rows() const { return k_rows_; }
  const std::vector<Row>& v_rows() const { return v_rows_; }

  /// Adopt restored rows verbatim into an empty cache, charging the pool
  /// for their residency. Rows must match this cache's hidden size and
  /// compression mode; throws CheckError otherwise.
  void restore_rows(std::vector<Row> k, std::vector<Row> v);

  /// Attach the integrity layer (owned by the caller; may be null). Each
  /// appended row's stored payload is fingerprinted; read_rows() re-checks
  /// rows per the registry's policy (ordinal = row index) and throws
  /// DataCorruption on mismatch — the Generator repairs by recomputing the
  /// cache from the token history. `region` labels this cache in errors
  /// (e.g. "kv.seq0.layer3"). Must be called while the cache is empty.
  void set_integrity(integrity::ChecksumRegistry* registry,
                     std::string region);

 private:
  Row make_row(const tensor::Tensor& row);
  std::size_t row_bytes(const Row& row) const;

  std::int64_t hidden_;
  int bits_;
  std::int64_t group_size_;
  MemoryPool* pool_;
  std::vector<Row> k_rows_;
  std::vector<Row> v_rows_;
  std::int64_t length_ = 0;
  std::size_t stored_bytes_ = 0;
  double quantize_seconds_ = 0.0;
  mutable double dequantize_seconds_ = 0.0;
  integrity::ChecksumRegistry* integrity_ = nullptr;
  std::string region_;
  /// Per-row fingerprints of the stored payload bytes, recorded at append
  /// (empty when no integrity layer is attached).
  std::vector<std::uint32_t> k_crcs_, v_crcs_;
};

}  // namespace lmo::runtime
