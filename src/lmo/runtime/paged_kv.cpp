#include "lmo/runtime/paged_kv.hpp"

#include <cstring>

#include "lmo/util/check.hpp"

namespace lmo::runtime {

PagePool::PagePool(std::int64_t hidden, std::int64_t page_tokens,
                   MemoryPool& pool)
    : hidden_(hidden), page_tokens_(page_tokens), pool_(&pool) {
  LMO_CHECK_GT(hidden, 0);
  LMO_CHECK_GT(page_tokens, 0);
}

std::size_t PagePool::page_bytes() const {
  return static_cast<std::size_t>(2 * page_tokens_ * hidden_) *
         sizeof(float);
}

std::int64_t PagePool::allocate_page() {
  if (!free_list_.empty()) {
    const std::int64_t id = free_list_.back();
    free_list_.pop_back();
    auto& page = pages_[static_cast<std::size_t>(id)];
    LMO_CHECK(!page.in_use);
    page.in_use = true;
    page.charge = PoolCharge(*pool_, page_bytes());
    return id;
  }
  Page page;
  page.storage.assign(static_cast<std::size_t>(2 * page_tokens_ * hidden_),
                      0.0f);
  page.in_use = true;
  page.charge = PoolCharge(*pool_, page_bytes());
  pages_.push_back(std::move(page));
  return static_cast<std::int64_t>(pages_.size() - 1);
}

void PagePool::free_page(std::int64_t page_id) {
  LMO_CHECK_GE(page_id, 0);
  LMO_CHECK_LT(static_cast<std::size_t>(page_id), pages_.size());
  auto& page = pages_[static_cast<std::size_t>(page_id)];
  LMO_CHECK_MSG(page.in_use, "double free of page");
  page.in_use = false;
  page.charge.reset();  // releases the pool bytes
  free_list_.push_back(page_id);
}

std::size_t PagePool::pages_in_use() const {
  std::size_t count = 0;
  for (const auto& page : pages_) count += page.in_use;
  return count;
}

float* PagePool::k_slot(std::int64_t page_id, std::int64_t slot) {
  LMO_CHECK_LT(static_cast<std::size_t>(page_id), pages_.size());
  LMO_CHECK_GE(slot, 0);
  LMO_CHECK_LT(slot, page_tokens_);
  auto& page = pages_[static_cast<std::size_t>(page_id)];
  LMO_CHECK(page.in_use);
  return page.storage.data() + slot * hidden_;
}

float* PagePool::v_slot(std::int64_t page_id, std::int64_t slot) {
  return k_slot(page_id, slot) + page_tokens_ * hidden_;
}

const float* PagePool::k_slot(std::int64_t page_id, std::int64_t slot) const {
  return const_cast<PagePool*>(this)->k_slot(page_id, slot);
}

const float* PagePool::v_slot(std::int64_t page_id, std::int64_t slot) const {
  return const_cast<PagePool*>(this)->v_slot(page_id, slot);
}

PagedKVCache::PagedKVCache(PagePool& pool) : pool_(&pool) {}

PagedKVCache::~PagedKVCache() {
  if (pool_ == nullptr) return;
  for (std::int64_t page : pages_) pool_->free_page(page);
}

PagedKVCache::PagedKVCache(PagedKVCache&& other) noexcept
    : pool_(other.pool_),
      pages_(std::move(other.pages_)),
      length_(other.length_) {
  other.pool_ = nullptr;
  other.pages_.clear();
  other.length_ = 0;
}

void PagedKVCache::append(const tensor::Tensor& k_row,
                          const tensor::Tensor& v_row) {
  LMO_CHECK_EQ(k_row.shape().rank(), 1u);
  LMO_CHECK_EQ(k_row.shape()[0], pool_->hidden());
  LMO_CHECK(k_row.shape() == v_row.shape());

  const std::int64_t slot = length_ % pool_->page_tokens();
  if (slot == 0) pages_.push_back(pool_->allocate_page());
  const std::int64_t page = pages_.back();

  std::memcpy(pool_->k_slot(page, slot), k_row.f32().data(),
              static_cast<std::size_t>(pool_->hidden()) * sizeof(float));
  std::memcpy(pool_->v_slot(page, slot), v_row.f32().data(),
              static_cast<std::size_t>(pool_->hidden()) * sizeof(float));
  ++length_;
}

void PagedKVCache::read_rows(KVPlane plane, KVRowView& view) const {
  view.rows.resize(static_cast<std::size_t>(length_));
  for (std::int64_t i = 0; i < length_; ++i) {
    const std::int64_t page =
        pages_[static_cast<std::size_t>(i / pool_->page_tokens())];
    const std::int64_t slot = i % pool_->page_tokens();
    view.rows[static_cast<std::size_t>(i)] = plane == KVPlane::kKeys
                                                 ? pool_->k_slot(page, slot)
                                                 : pool_->v_slot(page, slot);
  }
}

void PagedKVCache::truncate(std::int64_t new_length) {
  LMO_CHECK_GE(new_length, 0);
  LMO_CHECK_LE(new_length, length_);
  length_ = new_length;
  const std::int64_t pages_needed =
      (length_ + pool_->page_tokens() - 1) / pool_->page_tokens();
  while (static_cast<std::int64_t>(pages_.size()) > pages_needed) {
    pool_->free_page(pages_.back());
    pages_.pop_back();
  }
}

std::unique_ptr<KVCacheBase> PagedKVCache::clone() const {
  auto copy = std::make_unique<PagedKVCache>(*pool_);
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    const std::int64_t page = pool_->allocate_page();
    copy->pages_.push_back(page);
    for (std::int64_t slot = 0; slot < pool_->page_tokens(); ++slot) {
      std::memcpy(pool_->k_slot(page, slot), pool_->k_slot(pages_[i], slot),
                  static_cast<std::size_t>(pool_->hidden()) * sizeof(float));
      std::memcpy(pool_->v_slot(page, slot), pool_->v_slot(pages_[i], slot),
                  static_cast<std::size_t>(pool_->hidden()) * sizeof(float));
    }
  }
  copy->length_ = length_;
  return copy;
}

std::int64_t PagedKVCache::wasted_slots() const {
  if (pages_.empty()) return 0;
  return static_cast<std::int64_t>(pages_.size()) * pool_->page_tokens() -
         length_;
}

PagingUtilization paging_utilization(
    std::int64_t hidden, std::int64_t page_tokens, std::int64_t max_seq_len,
    const std::vector<std::int64_t>& actual_lengths) {
  LMO_CHECK_GT(hidden, 0);
  LMO_CHECK_GT(page_tokens, 0);
  LMO_CHECK_GT(max_seq_len, 0);
  PagingUtilization util;
  const double row_bytes = 2.0 * static_cast<double>(hidden) * sizeof(float);
  for (std::int64_t length : actual_lengths) {
    LMO_CHECK_GE(length, 0);
    LMO_CHECK_LE(length, max_seq_len);
    util.contiguous_bytes += static_cast<double>(max_seq_len) * row_bytes;
    const std::int64_t pages = (length + page_tokens - 1) / page_tokens;
    util.paged_bytes +=
        static_cast<double>(pages * page_tokens) * row_bytes;
  }
  return util;
}

}  // namespace lmo::runtime
