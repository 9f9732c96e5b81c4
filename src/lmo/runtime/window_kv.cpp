#include "lmo/runtime/window_kv.hpp"

#include <cstring>

#include "lmo/util/check.hpp"

namespace lmo::runtime {

WindowKVCache::WindowKVCache(std::int64_t hidden, std::int64_t window,
                             MemoryPool& pool)
    : hidden_(hidden), window_(window), pool_(&pool) {
  LMO_CHECK_GT(hidden, 0);
  LMO_CHECK_GT(window, 0);
  const std::size_t ring_elems =
      static_cast<std::size_t>(window_ * hidden_);
  k_ring_.assign(ring_elems, 0.0f);
  v_ring_.assign(ring_elems, 0.0f);
  pool_->charge(2 * ring_elems * sizeof(float));
}

WindowKVCache::~WindowKVCache() {
  if (pool_ != nullptr) {
    pool_->release(2 * static_cast<std::size_t>(window_ * hidden_) *
                   sizeof(float));
  }
}

WindowKVCache::WindowKVCache(WindowKVCache&& other) noexcept
    : hidden_(other.hidden_),
      window_(other.window_),
      pool_(other.pool_),
      k_ring_(std::move(other.k_ring_)),
      v_ring_(std::move(other.v_ring_)),
      appended_(other.appended_),
      visible_(other.visible_) {
  other.pool_ = nullptr;
}

void WindowKVCache::append(const tensor::Tensor& k_row,
                           const tensor::Tensor& v_row) {
  LMO_CHECK_EQ(k_row.shape().rank(), 1u);
  LMO_CHECK_EQ(k_row.shape()[0], hidden_);
  LMO_CHECK(k_row.shape() == v_row.shape());
  const std::int64_t slot = appended_ % window_;
  std::memcpy(k_ring_.data() + slot * hidden_, k_row.f32().data(),
              static_cast<std::size_t>(hidden_) * sizeof(float));
  std::memcpy(v_ring_.data() + slot * hidden_, v_row.f32().data(),
              static_cast<std::size_t>(hidden_) * sizeof(float));
  ++appended_;
  visible_ = std::min(window_, visible_ + 1);
}

std::int64_t WindowKVCache::length() const { return visible_; }

void WindowKVCache::read_rows(KVPlane plane, KVRowView& view) const {
  const std::vector<float>& ring =
      plane == KVPlane::kKeys ? k_ring_ : v_ring_;
  view.rows.resize(static_cast<std::size_t>(visible_));
  // Oldest-visible first, preserving temporal order within the window.
  const std::int64_t oldest = appended_ - visible_;
  for (std::int64_t i = 0; i < visible_; ++i) {
    const std::int64_t slot = (oldest + i) % window_;
    view.rows[static_cast<std::size_t>(i)] = ring.data() + slot * hidden_;
  }
}

void WindowKVCache::truncate(std::int64_t new_length) {
  LMO_CHECK_GE(new_length, 0);
  LMO_CHECK_LE(new_length, visible_);
  // Dropping the newest (visible − new_length) rows: rewind the append
  // cursor; ring contents for the retained prefix are untouched.
  appended_ -= visible_ - new_length;
  visible_ = new_length;
}

void WindowKVCache::restore(std::int64_t appended, std::int64_t visible,
                            std::vector<float> k_ring,
                            std::vector<float> v_ring) {
  LMO_CHECK_MSG(appended_ == 0, "restore requires a fresh window cache");
  LMO_CHECK_GE(appended, 0);
  LMO_CHECK_GE(visible, 0);
  LMO_CHECK_LE(visible, std::min(appended, window_));
  const std::size_t ring_elems = static_cast<std::size_t>(window_ * hidden_);
  LMO_CHECK_EQ(k_ring.size(), ring_elems);
  LMO_CHECK_EQ(v_ring.size(), ring_elems);
  // No pool charge: the constructor already charged the full fixed-size
  // ring, which is this cache's entire residency.
  k_ring_ = std::move(k_ring);
  v_ring_ = std::move(v_ring);
  appended_ = appended;
  visible_ = visible;
}

std::unique_ptr<KVCacheBase> WindowKVCache::clone() const {
  auto copy = std::make_unique<WindowKVCache>(hidden_, window_, *pool_);
  copy->k_ring_ = k_ring_;
  copy->v_ring_ = v_ring_;
  copy->appended_ = appended_;
  copy->visible_ = visible_;
  return copy;
}

}  // namespace lmo::runtime
