// The runtime's one KV store: per-(layer, sequence) block tables over a
// shared, ref-counted KVBlockPool — the vLLM design (Kwon et al., SOSP'23)
// the paper's related work points at. A block holds `block_tokens` token
// rows of one layer, K rows first, then V rows, stored as f32 or — matching
// the paper's "the KV cache is updated throughout token generation and
// quantized at each transformer layer" — group-quantized at append time.
//
// Every KV feature acts on the block: a beam fork or a published prefix is
// a reference on a sequence's blocks, a write into a block someone else
// still references copies it first, a sliding window drops a block once
// all of its rows have left the window, and the cross-request prefix cache
// (kvshare::PrefixCache) keeps cached prefixes as references on the blocks
// of the sequence that computed them. Reads hand attention one stored-row
// pointer per visible token plus the row format; attention reads f32 rows
// in place and decodes the head slice of a quantized row it needs into
// scratch of its own compute lane. No read decodes a whole context.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/tensor/tensor.hpp"

namespace lmo::kvshare {
class PrefixLease;
}  // namespace lmo::kvshare

namespace lmo::runtime {

/// Which half of a KV cache a read covers.
enum class KVPlane : std::uint8_t { kKeys, kValues };

/// How a KV row is stored: f32 (bits 16), or group-quantized as the
/// tensor::quantize codes behind their per-group mins and scales.
struct KVRowFormat {
  int bits = 16;
  std::int64_t group_size = 0;
  std::int64_t groups = 0;  ///< quantization groups per row (0 for f32)
  std::size_t payload_bytes = 0;  ///< f32 row, or the packed codes

  bool quantized() const { return bits != 16; }
  /// Elements [begin, begin + width) of each stored row in `rows` as f32,
  /// row after row into out[rows.size() · width]: copied from f32 rows,
  /// decoded (Eq. 11) from quantized ones. The range is checked once, not
  /// per row.
  void decode(std::span<const std::byte* const> rows, std::int64_t begin,
              std::int64_t width, float* out) const;
};

/// One plane of a KV cache as one stored-row pointer per visible token,
/// oldest first. The caller owns the view and reuses it across reads.
/// Pointers stay valid until the next read into the same view or the next
/// mutation of the cache.
struct KVRowView {
  std::vector<const std::byte*> rows;
  KVRowFormat format;
  /// Copies of rows fault injection flipped in flight (rows point into it
  /// for them); empty on a clean read.
  std::vector<std::byte> wire;
};

/// Which rows attention sees. The value is the checkpoint fingerprint's
/// flavor byte; 1 was a paged flavor, now identical to kDense.
enum class KVFlavor : std::uint8_t {
  kDense = 0,   ///< every row (full attention)
  kWindow = 2,  ///< the last RuntimeConfig::window_tokens rows
};

const char* to_string(KVFlavor flavor);

/// Parse a flavor name ("dense" | "window"), as spelled by the CLI's --kv
/// flag and by to_string. Throws util::ConfigError otherwise.
KVFlavor kv_flavor_from_string(const std::string& name);

/// At-rest bytes one token's K + V rows occupy: 2 · hidden · bits / 8,
/// floored at 1. The formula the serving simulator's pool accounting and
/// the prefix cache's block charging share.
std::size_t kv_bytes_per_token(std::int64_t hidden, int bits);

struct KVBlockPoolConfig {
  std::int64_t block_tokens = 16;
  /// Row width. 0 = accounting-only blocks with no payload (the serving
  /// simulator's prefix cache).
  std::int64_t hidden = 0;
  /// Accounting mode only: modelled bytes charged per block.
  std::size_t bytes_per_block = 0;
  /// Hard byte budget; 0 = bounded only by the memory pool.
  std::size_t capacity_bytes = 0;
  /// Row storage: 16 keeps f32 rows; 8 or 4 stores each row group-wise
  /// quantized (tensor::quantize's codes plus per-group min and scale).
  int bits = 16;
  std::int64_t group_size = 32;
};

/// Ref-counted allocator of fixed-size KV blocks, charged to a MemoryPool
/// (nullable) so KV residency competes with every other host allocation
/// and fault-injected pool denials apply. Thread-safe; the memory-pool
/// charge runs outside the internal lock, so a pressure callback that
/// frees blocks (the prefix cache evicting) may re-enter the pool.
class KVBlockPool {
 public:
  KVBlockPool(const KVBlockPoolConfig& config, MemoryPool* pool);
  ~KVBlockPool();
  KVBlockPool(const KVBlockPool&) = delete;
  KVBlockPool& operator=(const KVBlockPool&) = delete;

  std::int64_t block_tokens() const { return config_.block_tokens; }
  std::int64_t hidden() const { return config_.hidden; }
  int bits() const { return config_.bits; }
  std::int64_t group_size() const { return config_.group_size; }
  bool materialized() const { return config_.hidden > 0; }
  std::size_t block_bytes() const { return block_bytes_; }
  MemoryPool* memory_pool() const { return pool_; }

  /// Bytes of one stored row. An f32 row is hidden floats; a quantized row
  /// is its per-group mins, then its per-group scales, then its packed
  /// codes, padded to a float boundary.
  std::size_t row_bytes() const { return row_bytes_; }
  /// Quantization groups per row (0 for f32 rows).
  std::int64_t row_groups() const { return row_groups_; }
  KVRowFormat row_format() const {
    return {config_.bits, config_.group_size, row_groups_, payload_bytes_};
  }
  /// The bytes of a row a fingerprint covers and a bit flip may hit: the
  /// whole f32 row, or a quantized row's packed codes.
  std::size_t row_payload_bytes() const { return payload_bytes_; }

  /// Allocate a zeroed block with refcount 1. Returns -1 when the byte
  /// budget is spent or the memory pool declines the charge.
  std::int64_t try_allocate();
  /// As try_allocate, but a refusal throws util::ResourceExhausted.
  std::int64_t allocate();
  void ref(std::int64_t id);
  /// Drop one reference; returns true when that freed the block (and
  /// released its bytes).
  bool unref(std::int64_t id);
  int refcount(std::int64_t id) const;

  /// Block payload: K rows from data(id), V rows block_tokens rows later.
  /// Stable while the block is live; nullptr in accounting mode.
  float* data(std::int64_t id);

  std::size_t live_blocks() const;

 private:
  struct Block {
    std::vector<float> data;
    int refs = 0;
  };

  /// Reserve budget, charge the memory pool (throwing or not), then take
  /// a slot. -1 on a refusal when !throw_on_refusal.
  std::int64_t allocate_impl(bool throw_on_refusal);
  Block& live_block(std::int64_t id);

  const KVBlockPoolConfig config_;
  std::int64_t row_groups_ = 0;
  std::size_t payload_bytes_ = 0;
  std::size_t row_bytes_ = 0;
  std::size_t block_bytes_;
  MemoryPool* pool_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::int64_t> free_;
  std::size_t live_ = 0;  ///< allocated plus reserved mid-allocation
};

/// Whether a cache draws integrity.kv.flip faults on its reads and keeps
/// per-row fingerprints (once set_integrity attaches a registry). The
/// Generator turns them off where a detected corruption could not be
/// repaired row for row: blocks the prefix cache may publish (it
/// fingerprints whole blocks itself) and window caches.
enum class RowChecks : std::uint8_t { kOn, kOff };

/// One sequence's KV cache for one layer: a block table plus the number of
/// tokens appended. A full-attention cache sees every row; a window cache
/// sees the last `window` rows and drops each block whose rows have all
/// left the window.
class KVCache {
 public:
  /// `window` = 0: full attention; otherwise the window in tokens.
  explicit KVCache(KVBlockPool& pool, std::int64_t window = 0,
                   RowChecks checks = RowChecks::kOn);
  /// Starts as `layer`'s rows of the lease's matched prefix, sharing the
  /// chain's blocks (no row is copied). Full attention, no row checks.
  KVCache(const kvshare::PrefixLease& lease, std::int64_t layer);
  ~KVCache();
  KVCache(KVCache&& other) noexcept;
  KVCache& operator=(KVCache&& other) noexcept;
  KVCache(const KVCache&) = delete;
  KVCache& operator=(const KVCache&) = delete;

  /// Append one token's key and value rows (hidden floats each), copied
  /// into the tail block or, when the pool stores quantized rows, quantized
  /// straight into it. Allocates only when a block is taken.
  void append(std::span<const float> k_row, std::span<const float> v_row);
  /// The same for rank-1 tensors of extent hidden.
  void append(const tensor::Tensor& k_row, const tensor::Tensor& v_row);
  /// Append one token's rows as stored bytes (row_bytes() each), adopted
  /// verbatim: a checkpoint restore never re-quantizes.
  void append_stored(std::span<const std::byte> k_row,
                     std::span<const std::byte> v_row);

  /// Rows attention sees.
  std::int64_t length() const { return appended_ - first_; }
  /// Tokens ever appended (≥ length()).
  std::int64_t appended() const { return appended_; }
  std::int64_t hidden() const { return pool_->hidden(); }
  int bits() const { return pool_->bits(); }
  KVBlockPool& pool() const { return *pool_; }

  /// Point `view.rows` at `plane`'s length() stored rows, oldest first,
  /// and set `view.format`. Nothing is decoded or copied, except a row
  /// flipped in flight by fault injection, which is read from its copy in
  /// `view.wire`. With an integrity registry attached, rows are verified
  /// here, in row order, and a mismatch throws util::DataCorruption.
  void read_rows(KVPlane plane, KVRowView& view) const;
  /// The stored bytes of visible row `index` (0 = oldest visible).
  std::span<const std::byte> stored_row(KVPlane plane,
                                        std::int64_t index) const;
  /// Prepare an empty cache to take the visible rows of one that had
  /// `appended` tokens appended (a checkpoint restore). A window cache
  /// starts at that cache's block phase — the rows that slid out count as
  /// appended and their blocks as dropped — so it allocates and drops
  /// blocks on the same appends the original would have; a full-attention
  /// cache sees every row and is left as it is.
  void resume_at(std::int64_t appended);
  /// Drop the newest rows so that `new_length` ≤ length() stay visible
  /// (speculative-decoding rejection, beam pruning). Blocks no visible row
  /// uses any more are released; shared blocks are never written.
  void truncate(std::int64_t new_length);
  /// Copy for a beam fork: shares every block until one side writes.
  KVCache clone() const;

  /// Copies of the K (or V) plane as a [length, hidden] matrix, built on
  /// read_rows (same verification) and KVRowFormat::decode — for tests;
  /// attention reads rows in place and decodes only head slices.
  tensor::Tensor keys() const { return copy_plane(KVPlane::kKeys); }
  tensor::Tensor values() const { return copy_plane(KVPlane::kValues); }

  /// Pool ids by block index (token t lives in entry t / block_tokens);
  /// -1 for a block a window cache has dropped.
  const std::vector<std::int64_t>& block_table() const { return blocks_; }
  /// Bytes of the blocks only this cache references.
  std::size_t private_bytes() const;

  /// Cumulative time spent (de)quantizing rows, seconds: quantizing in
  /// append, decoding in keys()/values() and, as reported through
  /// add_dequantize_seconds, in attention.
  double quantize_seconds() const { return quantize_seconds_; }
  double dequantize_seconds() const { return dequantize_seconds_; }
  /// Credit time spent decoding this cache's rows outside it (attention
  /// decodes head slices on the compute lanes and folds their time here).
  void add_dequantize_seconds(double seconds) {
    dequantize_seconds_ += seconds;
  }

  /// Attach the integrity layer (owned by the caller; may be null). Each
  /// appended row's payload is fingerprinted; read_rows() re-checks rows
  /// per the registry's policy (ordinal = row index) and throws
  /// DataCorruption on a mismatch — the Generator repairs by recomputing
  /// the cache from the token history. `region` labels this cache in
  /// errors (e.g. "kv.layer3"). Must be called while the cache is empty.
  void set_integrity(integrity::ChecksumRegistry* registry,
                     std::string region);

 private:
  void release_blocks();
  /// Make the block for token `appended_` writable: a fresh block when the
  /// table has none for it yet, a private copy of a shared tail block.
  std::byte* writable_slot();
  std::byte* row_ptr(std::int64_t token, KVPlane plane) const;
  /// The fingerprinted part of stored row `row` (row_payload_bytes()).
  const std::byte* payload_of(const std::byte* row) const;
  void note_appended();
  tensor::Tensor copy_plane(KVPlane plane) const;

  KVBlockPool* pool_ = nullptr;
  std::int64_t window_ = 0;
  RowChecks checks_ = RowChecks::kOn;
  std::vector<std::int64_t> blocks_;
  std::vector<std::byte*> data_;  ///< payload of each block_table() entry
  std::int64_t appended_ = 0;
  std::int64_t first_ = 0;  ///< oldest visible token
  double quantize_seconds_ = 0.0;
  mutable double dequantize_seconds_ = 0.0;
  integrity::ChecksumRegistry* integrity_ = nullptr;
  std::string region_;
  /// Per-token fingerprints of the stored row payloads, recorded at
  /// append (empty when no integrity layer is attached).
  std::vector<std::uint32_t> k_crcs_, v_crcs_;
};

/// All KV caches for one sequence, one per layer.
using SequenceCache = std::vector<KVCache>;

}  // namespace lmo::runtime
