#include "lmo/kvshare/shared_kv_cache.hpp"

#include <cstring>

#include "lmo/util/check.hpp"

namespace lmo::kvshare {

SharedKVCache::SharedKVCache(std::int64_t hidden, std::int64_t layer,
                             std::shared_ptr<PrefixLease> lease,
                             std::int64_t shared_len,
                             runtime::MemoryPool& pool)
    : hidden_(hidden),
      layer_(layer),
      lease_(std::move(lease)),
      shared_len_(shared_len),
      pool_(&pool) {
  LMO_CHECK_GT(hidden_, 0);
  LMO_CHECK(lease_ != nullptr);
  block_tokens_ = lease_->matched_tokens() /
                  static_cast<std::int64_t>(lease_->blocks());
  LMO_CHECK_GE(shared_len_, 0);
  LMO_CHECK_LE(shared_len_, lease_->matched_tokens());
  LMO_CHECK_EQ(shared_len_ % block_tokens_, 0);
  LMO_CHECK_MSG(lease_->k_plane(0, layer_) != nullptr,
                "SharedKVCache requires a materialized prefix cache");
}

SharedKVCache::SharedKVCache(std::int64_t hidden, runtime::MemoryPool& pool)
    : hidden_(hidden), pool_(&pool) {
  LMO_CHECK_GT(hidden_, 0);
}

SharedKVCache::~SharedKVCache() {
  if (pool_ != nullptr && charged_ > 0) pool_->release(charged_);
}

void SharedKVCache::charge_delta(std::size_t old_floats,
                                 std::size_t new_floats) {
  const std::size_t old_bytes = old_floats * sizeof(float);
  const std::size_t new_bytes = new_floats * sizeof(float);
  if (new_bytes > old_bytes) {
    pool_->charge(new_bytes - old_bytes);
    charged_ += new_bytes - old_bytes;
  } else if (old_bytes > new_bytes) {
    pool_->release(old_bytes - new_bytes);
    charged_ -= old_bytes - new_bytes;
  }
}

void SharedKVCache::append(const tensor::Tensor& k_row,
                           const tensor::Tensor& v_row) {
  LMO_CHECK_EQ(k_row.numel(), hidden_);
  LMO_CHECK_EQ(v_row.numel(), hidden_);
  const std::size_t old_floats = k_priv_.size() + v_priv_.size();
  auto k = k_row.f32();
  auto v = v_row.f32();
  // Charge before growing so a denied charge (pool pressure / fault
  // injection) leaves the cache untouched.
  charge_delta(old_floats,
               old_floats + 2 * static_cast<std::size_t>(hidden_));
  k_priv_.insert(k_priv_.end(), k.begin(), k.end());
  v_priv_.insert(v_priv_.end(), v.begin(), v.end());
}

const float* SharedKVCache::row_ptr(bool key, std::int64_t t) const {
  if (t < shared_len_) {
    const std::size_t block = static_cast<std::size_t>(t / block_tokens_);
    const std::int64_t slot = t % block_tokens_;
    const float* plane = key ? lease_->k_plane(block, layer_)
                             : lease_->v_plane(block, layer_);
    return plane + slot * hidden_;
  }
  const auto& priv = key ? k_priv_ : v_priv_;
  return priv.data() + (t - shared_len_) * hidden_;
}

void SharedKVCache::copy_row(bool key, std::int64_t t, float* dst) const {
  LMO_CHECK_GE(t, 0);
  LMO_CHECK_LT(t, length());
  std::memcpy(dst, row_ptr(key, t),
              static_cast<std::size_t>(hidden_) * sizeof(float));
}

void SharedKVCache::read_rows(runtime::KVPlane plane,
                              runtime::KVRowView& view) const {
  const bool key = plane == runtime::KVPlane::kKeys;
  const std::int64_t n = length();
  view.rows.resize(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    view.rows[static_cast<std::size_t>(t)] = row_ptr(key, t);
  }
}

void SharedKVCache::truncate(std::int64_t new_length) {
  LMO_CHECK_GE(new_length, 0);
  LMO_CHECK_LE(new_length, length());
  const std::size_t old_floats = k_priv_.size() + v_priv_.size();
  if (new_length >= shared_len_) {
    // Tail-only truncate: drop private rows past new_length.
    const std::size_t keep =
        static_cast<std::size_t>((new_length - shared_len_) * hidden_);
    k_priv_.resize(keep);
    v_priv_.resize(keep);
    charge_delta(old_floats, 2 * keep);
    return;
  }
  // Copy-on-write: the cut lands inside the shared region. Whole blocks
  // before the cut stay shared; the partial block's surviving rows are
  // copied into a fresh private tail. The shared payloads are never
  // written.
  const std::int64_t keep_shared =
      (new_length / block_tokens_) * block_tokens_;
  const std::int64_t priv_rows = new_length - keep_shared;
  std::vector<float> k_new(static_cast<std::size_t>(priv_rows * hidden_));
  std::vector<float> v_new(static_cast<std::size_t>(priv_rows * hidden_));
  for (std::int64_t i = 0; i < priv_rows; ++i) {
    const std::int64_t t = keep_shared + i;
    std::memcpy(k_new.data() + i * hidden_, row_ptr(true, t),
                static_cast<std::size_t>(hidden_) * sizeof(float));
    std::memcpy(v_new.data() + i * hidden_, row_ptr(false, t),
                static_cast<std::size_t>(hidden_) * sizeof(float));
  }
  charge_delta(old_floats, k_new.size() + v_new.size());
  k_priv_ = std::move(k_new);
  v_priv_ = std::move(v_new);
  shared_len_ = keep_shared;
  if (shared_len_ == 0) lease_.reset();
}

std::unique_ptr<runtime::KVCacheBase> SharedKVCache::clone() const {
  auto copy = std::unique_ptr<SharedKVCache>(
      shared_len_ > 0
          ? new SharedKVCache(hidden_, layer_, lease_, shared_len_, *pool_)
          : new SharedKVCache(hidden_, *pool_));
  copy->charge_delta(0, k_priv_.size() + v_priv_.size());
  copy->k_priv_ = k_priv_;
  copy->v_priv_ = v_priv_;
  return copy;
}

}  // namespace lmo::kvshare
