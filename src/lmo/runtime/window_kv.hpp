// Sliding-window KV cache — the Longformer-style bounded-attention scheme
// the paper's related work cites for long-context scaling. The cache keeps
// only the most recent `window` token slots in a ring; attention over it
// sees a fixed-size context, so per-step cost and residency stop growing
// with sequence length. Unlike the exact caches this is an *approximation*
// (old context is forgotten); the tests quantify the accuracy cost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"

namespace lmo::runtime {

class WindowKVCache : public KVCacheBase {
 public:
  /// Keeps at most `window` most-recent rows (f32). `pool` is charged with
  /// the ring's full residency up front — the point of the scheme is a
  /// fixed memory bound.
  WindowKVCache(std::int64_t hidden, std::int64_t window, MemoryPool& pool);
  ~WindowKVCache() override;
  WindowKVCache(WindowKVCache&&) noexcept;
  WindowKVCache(const WindowKVCache&) = delete;
  WindowKVCache& operator=(const WindowKVCache&) = delete;

  void append(const tensor::Tensor& k_row,
              const tensor::Tensor& v_row) override;
  /// Rows currently visible (≤ window; < window until it fills).
  std::int64_t length() const override;
  std::int64_t hidden() const override { return hidden_; }
  /// Rows are read in place from the ring, oldest visible first.
  void read_rows(KVPlane plane, KVRowView& view) const override;
  /// Truncation drops the *newest* rows (rollback semantics shared with
  /// the exact caches); only supported back to the window contents.
  void truncate(std::int64_t new_length) override;
  std::unique_ptr<KVCacheBase> clone() const override;

  std::int64_t window() const { return window_; }
  /// Total tokens ever appended (≥ length()).
  std::int64_t appended() const { return appended_; }
  /// Tokens forgotten so far (= appended − length).
  std::int64_t evicted() const { return appended_ - length(); }

  /// Raw ring contents ([window × hidden], physical slot order) for
  /// checkpoint serialization. Captured together with appended()/length(),
  /// they are the cache's complete state.
  const std::vector<float>& k_ring() const { return k_ring_; }
  const std::vector<float>& v_ring() const { return v_ring_; }

  /// Restore the exact physical ring state (an append-based replay would
  /// lose the ring phase: slot = appended % window). Requires a fresh
  /// cache and matching ring sizes; throws CheckError otherwise.
  void restore(std::int64_t appended, std::int64_t visible,
               std::vector<float> k_ring, std::vector<float> v_ring);

 private:

  std::int64_t hidden_;
  std::int64_t window_;
  MemoryPool* pool_;
  std::vector<float> k_ring_;  ///< [window × hidden]
  std::vector<float> v_ring_;
  std::int64_t appended_ = 0;
  std::int64_t visible_ = 0;  ///< ≤ window
};

}  // namespace lmo::runtime
