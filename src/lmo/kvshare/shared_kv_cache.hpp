// KVCacheBase backend for one (layer, sequence) whose leading tokens live
// in shared, immutable prefix-cache blocks and whose tail is a private f32
// buffer charged to the pool. Appends always land in the private tail;
// truncating into the shared region is copy-on-write — the partial block's
// surviving rows are copied out and the cache detaches from those blocks
// logically (the lease keeps pinning the chain for the other layers), so a
// writer can never mutate a block another request is reading. clone()
// (beam forking) shares the lease and deep-copies only the private tail.
//
// Stores f32 rows only (like the paged/window backends): the Generator
// requires kv_bits == 16 when prefix sharing is on, so a cached row is
// bit-identical to the row a full prefill would have produced.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"

namespace lmo::kvshare {

class SharedKVCache : public runtime::KVCacheBase {
 public:
  /// Chain-backed: the first `shared_len` tokens (a multiple of the lease's
  /// block size, ≤ lease->matched_tokens()) read from `lease`'s planes for
  /// `layer`; appended rows go to the private tail charged to `pool`.
  SharedKVCache(std::int64_t hidden, std::int64_t layer,
                std::shared_ptr<PrefixLease> lease, std::int64_t shared_len,
                runtime::MemoryPool& pool);
  /// Private-only (total miss, or checkpoint restore).
  SharedKVCache(std::int64_t hidden, runtime::MemoryPool& pool);
  ~SharedKVCache() override;
  SharedKVCache(const SharedKVCache&) = delete;
  SharedKVCache& operator=(const SharedKVCache&) = delete;

  void append(const tensor::Tensor& k_row,
              const tensor::Tensor& v_row) override;
  std::int64_t length() const override { return shared_len_ + private_len(); }
  std::int64_t hidden() const override { return hidden_; }
  /// Rows are read in place from the shared blocks and the private tail.
  void read_rows(runtime::KVPlane plane,
                 runtime::KVRowView& view) const override;
  void truncate(std::int64_t new_length) override;
  std::unique_ptr<runtime::KVCacheBase> clone() const override;

  std::int64_t shared_length() const { return shared_len_; }
  std::int64_t private_len() const {
    return static_cast<std::int64_t>(k_priv_.size()) / hidden_;
  }
  /// Private-tail bytes currently charged to the pool.
  std::size_t stored_bytes() const { return charged_; }

  /// Copy row `t` (shared or private) into `dst[hidden]` — used when
  /// publishing this sequence's prompt rows into the prefix cache and by
  /// checkpoint serialization.
  void copy_row(bool key, std::int64_t t, float* dst) const;

 private:
  const float* row_ptr(bool key, std::int64_t t) const;
  void charge_delta(std::size_t old_floats, std::size_t new_floats);

  std::int64_t hidden_;
  std::int64_t block_tokens_ = 0;
  std::int64_t layer_ = 0;
  std::shared_ptr<PrefixLease> lease_;
  std::int64_t shared_len_ = 0;
  runtime::MemoryPool* pool_;
  std::vector<float> k_priv_, v_priv_;
  std::size_t charged_ = 0;
};

}  // namespace lmo::kvshare
