// Paged KV cache over one ref-counted block pool — the vLLM design (Kwon et
// al., SOSP'23) the paper's related work points at. Token slots live in
// fixed-size blocks allocated on demand from a shared KVBlockPool;
// sequences of very different lengths share the pool without
// per-sequence over-reservation, and freeing a sequence returns whole
// blocks. The same pool backs the cross-request prefix cache
// (kvshare::PrefixCache): a cached prefix is a reference on the blocks of
// the sequence that computed it, a beam fork is a reference on every block
// of its parent, and a write into a block that someone else still
// references copies that block first.
//
// This substrate quantifies the memory-utilization argument: contiguous
// per-sequence reservations waste capacity on short sequences, blocks
// waste at most (block_tokens − 1) slots per sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/tensor/tensor.hpp"

namespace lmo::kvshare {
class PrefixLease;
}  // namespace lmo::kvshare

namespace lmo::runtime {

struct KVBlockPoolConfig {
  std::int64_t block_tokens = 16;
  /// Row width. A block holds one layer's f32 rows of `block_tokens`
  /// tokens: [{K,V} × block_tokens × hidden]. 0 = accounting-only blocks
  /// with no payload (the serving simulator's prefix cache).
  std::int64_t hidden = 0;
  /// Accounting mode only: modelled bytes charged per block.
  std::size_t bytes_per_block = 0;
  /// Hard byte budget; 0 = bounded only by the memory pool.
  std::size_t capacity_bytes = 0;
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
  bool materialized() const { return config_.hidden > 0; }
  std::size_t block_bytes() const { return block_bytes_; }
  MemoryPool* memory_pool() const { return pool_; }

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

  /// Block payload: K rows at data(id), V rows block_tokens × hidden
  /// floats later. Stable while the block is live; nullptr in accounting
  /// mode.
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
  std::size_t block_bytes_;
  MemoryPool* pool_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::int64_t> free_;
  std::size_t live_ = 0;  ///< allocated plus reserved mid-allocation
};

/// One sequence's paged cache for one layer: a block table plus the
/// current length. Implements the same KVCacheBase the transformer
/// consumes. clone() shares every block; append copies a shared tail block
/// before writing it; truncate drops references only.
class PagedKVCache : public KVCacheBase {
 public:
  explicit PagedKVCache(KVBlockPool& pool);
  /// Starts as `layer`'s rows of the lease's matched prefix, sharing the
  /// chain's blocks (no row is copied).
  PagedKVCache(const kvshare::PrefixLease& lease, std::int64_t layer);
  ~PagedKVCache() override;
  PagedKVCache(const PagedKVCache&) = delete;
  PagedKVCache& operator=(const PagedKVCache&) = delete;

  void append(const tensor::Tensor& k_row,
              const tensor::Tensor& v_row) override;
  std::int64_t length() const override { return length_; }
  std::int64_t hidden() const override { return pool_->hidden(); }
  /// Rows are read in place from their blocks.
  void read_rows(KVPlane plane, KVRowView& view) const override;
  void truncate(std::int64_t new_length) override;
  std::unique_ptr<KVCacheBase> clone() const override;

  const std::vector<std::int64_t>& block_table() const { return blocks_; }

  /// Slots reserved but unused in the tail block (internal fragmentation).
  std::int64_t wasted_slots() const;

 private:
  void push_block(std::int64_t id);

  KVBlockPool* pool_;
  std::vector<std::int64_t> blocks_;
  std::vector<float*> data_;  ///< payload of each block_table() entry
  std::int64_t length_ = 0;
};

/// Memory-utilization comparison for a set of sequence lengths: bytes a
/// contiguous max-length reservation would pin vs what paging pins.
struct PagingUtilization {
  double contiguous_bytes = 0.0;  ///< per-sequence max-length reservation
  double paged_bytes = 0.0;       ///< blocks actually allocated
  double savings_ratio() const {
    return paged_bytes > 0.0 ? contiguous_bytes / paged_bytes : 0.0;
  }
};

PagingUtilization paging_utilization(std::int64_t hidden,
                                     std::int64_t block_tokens,
                                     std::int64_t max_seq_len,
                                     const std::vector<std::int64_t>&
                                         actual_lengths);

}  // namespace lmo::runtime
