#include "lmo/runtime/paged_kv.hpp"

#include <cstring>

#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {

KVBlockPool::KVBlockPool(const KVBlockPoolConfig& config, MemoryPool* pool)
    : config_(config), pool_(pool) {
  LMO_CHECK_GT(config_.block_tokens, 0);
  LMO_CHECK_GE(config_.hidden, 0);
  block_bytes_ = materialized()
                     ? static_cast<std::size_t>(2 * config_.block_tokens *
                                                config_.hidden) *
                           sizeof(float)
                     : config_.bytes_per_block;
  LMO_CHECK_GT(block_bytes_, 0u);
}

KVBlockPool::~KVBlockPool() {
  // Blocks still referenced at teardown (a lease or cache outliving its
  // owner — a usage error guarded elsewhere) return their bytes.
  if (pool_ != nullptr && live_ > 0) pool_->release(live_ * block_bytes_);
}

KVBlockPool::Block& KVBlockPool::live_block(std::int64_t id) {
  LMO_CHECK_GE(id, 0);
  LMO_CHECK_LT(id, static_cast<std::int64_t>(blocks_.size()));
  Block& b = *blocks_[static_cast<std::size_t>(id)];
  LMO_CHECK_MSG(b.refs > 0, "KV block id refers to a freed block");
  return b;
}

std::int64_t KVBlockPool::allocate_impl(bool throw_on_refusal) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (config_.capacity_bytes > 0 &&
      (live_ + 1) * block_bytes_ > config_.capacity_bytes) {
    if (throw_on_refusal) {
      throw util::ResourceExhausted("KV block pool budget exhausted");
    }
    return -1;
  }
  ++live_;  // reserve the budget before charging
  if (pool_ != nullptr) {
    // Unlocked: the charge may fire pressure callbacks that free blocks of
    // this pool.
    lock.unlock();
    try {
      pool_->charge(block_bytes_);
    } catch (const util::ResourceExhausted&) {
      lock.lock();
      --live_;
      if (throw_on_refusal) throw;
      return -1;
    }
    lock.lock();
  }
  std::int64_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::int64_t>(blocks_.size());
    blocks_.push_back(std::make_unique<Block>());
  }
  Block& b = *blocks_[static_cast<std::size_t>(id)];
  b.data.assign(static_cast<std::size_t>(2 * config_.block_tokens *
                                         config_.hidden),
                0.0f);
  b.refs = 1;
  return id;
}

std::int64_t KVBlockPool::try_allocate() { return allocate_impl(false); }

std::int64_t KVBlockPool::allocate() { return allocate_impl(true); }

void KVBlockPool::ref(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++live_block(id).refs;
}

bool KVBlockPool::unref(std::int64_t id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--live_block(id).refs > 0) return false;
    free_.push_back(id);
    --live_;
  }
  if (pool_ != nullptr) pool_->release(block_bytes_);
  return true;
}

int KVBlockPool::refcount(std::int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return const_cast<KVBlockPool*>(this)->live_block(id).refs;
}

float* KVBlockPool::data(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Block& b = live_block(id);
  return b.data.empty() ? nullptr : b.data.data();
}

std::size_t KVBlockPool::live_blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

PagedKVCache::PagedKVCache(KVBlockPool& pool) : pool_(&pool) {
  LMO_CHECK_MSG(pool.materialized(), "paged KV needs a materialized pool");
}

PagedKVCache::PagedKVCache(const kvshare::PrefixLease& lease,
                           std::int64_t layer)
    : PagedKVCache(lease.pool()) {
  for (std::size_t i = 0; i < lease.blocks(); ++i) {
    const std::int64_t id = lease.block(i, layer);
    pool_->ref(id);
    push_block(id);
  }
  length_ = lease.matched_tokens();
}

PagedKVCache::~PagedKVCache() {
  for (std::int64_t id : blocks_) pool_->unref(id);
}

void PagedKVCache::push_block(std::int64_t id) {
  blocks_.push_back(id);
  data_.push_back(pool_->data(id));
}

void PagedKVCache::append(const tensor::Tensor& k_row,
                          const tensor::Tensor& v_row) {
  const std::int64_t hidden = pool_->hidden();
  const std::int64_t bt = pool_->block_tokens();
  LMO_CHECK_EQ(k_row.shape().rank(), 1u);
  LMO_CHECK_EQ(k_row.shape()[0], hidden);
  LMO_CHECK(k_row.shape() == v_row.shape());
  const std::size_t row_bytes = static_cast<std::size_t>(hidden) *
                                sizeof(float);

  const std::int64_t slot = length_ % bt;
  if (slot == 0) {
    push_block(pool_->allocate());
  } else if (pool_->refcount(blocks_.back()) > 1) {
    // Copy-on-write: a fork or the prefix cache still reads the tail
    // block, so its live rows move to a private block before the write.
    const std::int64_t fresh = pool_->allocate();
    float* dst = pool_->data(fresh);
    const float* src = data_.back();
    const std::size_t live = static_cast<std::size_t>(slot) * row_bytes;
    std::memcpy(dst, src, live);
    std::memcpy(dst + bt * hidden, src + bt * hidden, live);
    pool_->unref(blocks_.back());
    blocks_.back() = fresh;
    data_.back() = dst;
  }
  float* block = data_.back();
  std::memcpy(block + slot * hidden, k_row.f32().data(), row_bytes);
  std::memcpy(block + (bt + slot) * hidden, v_row.f32().data(), row_bytes);
  ++length_;
}

void PagedKVCache::read_rows(KVPlane plane, KVRowView& view) const {
  const std::int64_t hidden = pool_->hidden();
  const std::int64_t bt = pool_->block_tokens();
  const std::int64_t offset = plane == KVPlane::kKeys ? 0 : bt * hidden;
  view.rows.resize(static_cast<std::size_t>(length_));
  std::size_t t = 0;
  for (const float* block : data_) {
    for (std::int64_t slot = 0; slot < bt && t < view.rows.size();
         ++slot, ++t) {
      view.rows[t] = block + offset + slot * hidden;
    }
  }
}

void PagedKVCache::truncate(std::int64_t new_length) {
  LMO_CHECK_GE(new_length, 0);
  LMO_CHECK_LE(new_length, length_);
  length_ = new_length;
  const std::int64_t bt = pool_->block_tokens();
  const auto keep = static_cast<std::size_t>((length_ + bt - 1) / bt);
  while (blocks_.size() > keep) {
    pool_->unref(blocks_.back());
    blocks_.pop_back();
    data_.pop_back();
  }
}

std::unique_ptr<KVCacheBase> PagedKVCache::clone() const {
  auto copy = std::make_unique<PagedKVCache>(*pool_);
  for (std::int64_t id : blocks_) pool_->ref(id);
  copy->blocks_ = blocks_;
  copy->data_ = data_;
  copy->length_ = length_;
  return copy;
}

std::int64_t PagedKVCache::wasted_slots() const {
  return static_cast<std::int64_t>(blocks_.size()) * pool_->block_tokens() -
         length_;
}

PagingUtilization paging_utilization(
    std::int64_t hidden, std::int64_t block_tokens, std::int64_t max_seq_len,
    const std::vector<std::int64_t>& actual_lengths) {
  LMO_CHECK_GT(hidden, 0);
  LMO_CHECK_GT(block_tokens, 0);
  LMO_CHECK_GT(max_seq_len, 0);
  PagingUtilization util;
  const double row_bytes = 2.0 * static_cast<double>(hidden) * sizeof(float);
  for (std::int64_t length : actual_lengths) {
    LMO_CHECK_GE(length, 0);
    LMO_CHECK_LE(length, max_seq_len);
    util.contiguous_bytes += static_cast<double>(max_seq_len) * row_bytes;
    const std::int64_t blocks = (length + block_tokens - 1) / block_tokens;
    util.paged_bytes +=
        static_cast<double>(blocks * block_tokens) * row_bytes;
  }
  return util;
}

}  // namespace lmo::runtime
