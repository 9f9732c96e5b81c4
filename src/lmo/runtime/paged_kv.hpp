// Paged KV cache — the vLLM-style allocation scheme the paper's related
// work points at (Kwon et al., SOSP'23), implemented over the same memory
// pools as the contiguous cache. Token slots live in fixed-size pages
// allocated on demand from a shared PagePool; sequences of very different
// lengths share the pool without per-sequence over-reservation, and
// freeing a sequence returns whole pages.
//
// This substrate quantifies the memory-utilization argument: contiguous
// per-sequence reservations waste capacity on short sequences, pages waste
// at most (page_size − 1) slots per sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/tensor/tensor.hpp"

namespace lmo::runtime {

/// Shared page allocator. A page holds `page_tokens` token slots of K and
/// V rows (f32, `hidden` wide each). Pages are charged to the MemoryPool.
class PagePool {
 public:
  PagePool(std::int64_t hidden, std::int64_t page_tokens, MemoryPool& pool);

  std::int64_t hidden() const { return hidden_; }
  std::int64_t page_tokens() const { return page_tokens_; }
  std::size_t page_bytes() const;

  /// Allocate a page id (storage charged to the pool).
  std::int64_t allocate_page();
  void free_page(std::int64_t page_id);

  std::size_t pages_in_use() const;
  std::size_t pages_allocated_total() const { return pages_.size(); }

  /// Raw slot accessors: K and V rows of `slot` within `page`.
  float* k_slot(std::int64_t page_id, std::int64_t slot);
  float* v_slot(std::int64_t page_id, std::int64_t slot);
  const float* k_slot(std::int64_t page_id, std::int64_t slot) const;
  const float* v_slot(std::int64_t page_id, std::int64_t slot) const;

 private:
  struct Page {
    std::vector<float> storage;  ///< [2 × page_tokens × hidden]
    bool in_use = false;
    PoolCharge charge;
  };

  std::int64_t hidden_;
  std::int64_t page_tokens_;
  MemoryPool* pool_;
  std::vector<Page> pages_;
  std::vector<std::int64_t> free_list_;
};

/// One sequence's paged cache: a block table of page ids plus the current
/// length. Implements the same KVCacheBase the transformer consumes.
class PagedKVCache : public KVCacheBase {
 public:
  explicit PagedKVCache(PagePool& pool);
  ~PagedKVCache() override;
  PagedKVCache(PagedKVCache&&) noexcept;
  PagedKVCache(const PagedKVCache&) = delete;
  PagedKVCache& operator=(const PagedKVCache&) = delete;

  void append(const tensor::Tensor& k_row,
              const tensor::Tensor& v_row) override;
  std::int64_t length() const override { return length_; }
  std::int64_t hidden() const override { return pool_->hidden(); }
  /// Rows are read in place from their pages.
  void read_rows(KVPlane plane, KVRowView& view) const override;
  void truncate(std::int64_t new_length) override;
  std::unique_ptr<KVCacheBase> clone() const override;

  const std::vector<std::int64_t>& block_table() const { return pages_; }

  /// Slots reserved but unused in the tail page (internal fragmentation).
  std::int64_t wasted_slots() const;

 private:
  PagePool* pool_;
  std::vector<std::int64_t> pages_;
  std::int64_t length_ = 0;
};

/// Memory-utilization comparison for a set of sequence lengths: bytes a
/// contiguous max-length reservation would pin vs what paging pins.
struct PagingUtilization {
  double contiguous_bytes = 0.0;  ///< per-sequence max-length reservation
  double paged_bytes = 0.0;       ///< pages actually allocated
  double savings_ratio() const {
    return paged_bytes > 0.0 ? contiguous_bytes / paged_bytes : 0.0;
  }
};

PagingUtilization paging_utilization(std::int64_t hidden,
                                     std::int64_t page_tokens,
                                     std::int64_t max_seq_len,
                                     const std::vector<std::int64_t>&
                                         actual_lengths);

}  // namespace lmo::runtime
