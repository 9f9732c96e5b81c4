// Cross-request KV prefix cache: the facade tying the radix tree to the
// runtime's ref-counted KVBlockPool, with pinning leases,
// pool-pressure-driven LRU eviction and kvshare.* metrics. A radix node
// holds one block per layer, so one cached block spans block_tokens tokens
// across every layer. Two modes share one implementation:
//
//  * materialized (Generator): blocks hold real K/V rows, f32 or
//    quantized. Publishing a finished prefill refs the sequence's own
//    blocks — no row is copied — and a matched lease lets a KVCache start
//    from the cached rows bit-exactly, so prefill runs only over the
//    unmatched prompt suffix.
//  * accounting-only (server_sim): blocks carry no payload, only modelled
//    bytes — the simulator asks "how many prompt tokens would hit?" and
//    charges the cost model for the remainder.
//
// All public methods are mutex-serialized, so concurrent generator /
// prefetch threads may match, insert and release leases freely (the TSan
// shard exercises exactly that). A lease's blocks stay live without the
// lock because pinned chains are never evicted, and quarantined ones are
// freed only after their last pin drops.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/kvshare/radix_tree.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/telemetry/metrics.hpp"

namespace lmo::kvshare {

class PrefixCache;

/// A pin on a cached block chain. While alive, the chain cannot be evicted
/// and its blocks stay live. Created by PrefixCache::match() / insert();
/// released on destruction. The PrefixCache must outlive every lease it
/// hands out.
class PrefixLease {
 public:
  ~PrefixLease();
  PrefixLease(const PrefixLease&) = delete;
  PrefixLease& operator=(const PrefixLease&) = delete;

  std::int64_t matched_tokens() const {
    return static_cast<std::int64_t>(blocks()) * pool_->block_tokens();
  }
  std::size_t blocks() const { return ids_.size() / layers_; }

  /// Pool id of chain block `index` for `layer` (layer 0 in accounting
  /// mode).
  std::int64_t block(std::size_t index, std::int64_t layer) const {
    return ids_[index * layers_ + static_cast<std::size_t>(layer)];
  }
  runtime::KVBlockPool& pool() const { return *pool_; }

 private:
  friend class PrefixCache;
  PrefixLease() = default;

  PrefixCache* cache_ = nullptr;
  RadixTree::Node* node_ = nullptr;  ///< deepest pinned node
  runtime::KVBlockPool* pool_ = nullptr;
  std::size_t layers_ = 1;
  std::vector<std::int64_t> ids_;  ///< chain root-first, layers_ per block
};

class PrefixCache {
 public:
  /// `blocks` (caller-owned, outliving the cache) supplies every cached
  /// block; each radix node holds `layers` of them (1 in accounting mode).
  /// `metrics` (nullable) receives the kvshare.* counters and gauges.
  ///
  /// When the block pool charges a MemoryPool, the cache registers a
  /// pressure callback on it: under allocation pressure (a watermark
  /// crossing or a would-fail charge from *any* allocator sharing the
  /// pool) it evicts unpinned leaves whose blocks come free — a block a
  /// live sequence still references frees nothing, so those stay cached —
  /// and reports the bytes released.
  /// The callback is removed in the destructor; the cache must not be
  /// destroyed while other threads can still drive the pool into pressure.
  /// `integrity` (nullable, caller-owned) fingerprints each node's blocks
  /// (in layer order) when it is inserted and re-checks matched chains per
  /// its policy. A node that fails verification is *quarantined*: its
  /// subtree is detached from the radix tree so no new request can match
  /// it, the match is truncated at the corrupt node, and the subtree's
  /// blocks stay referenced until the last pin on it drops.
  PrefixCache(runtime::KVBlockPool& blocks, std::int64_t layers,
              telemetry::MetricsRegistry* metrics,
              integrity::ChecksumRegistry* integrity = nullptr);
  ~PrefixCache();
  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  /// Per-layer pool ids of the blocks holding prompt tokens
  /// [token_offset, token_offset + block_tokens) — a publishing sequence's
  /// own blocks. Each id must hold exactly those tokens' rows.
  using BlockSource =
      std::function<std::vector<std::int64_t>(std::int64_t token_offset)>;

  /// Longest-prefix match. The matched length is a whole number of blocks,
  /// capped below tokens.size() so a fully cached prompt still prefills at
  /// least one token (the logits row). Returns nullptr on a total miss.
  /// Records kvshare.hit_tokens / miss_tokens / bytes_saved.
  std::shared_ptr<PrefixLease> match(std::span<const std::int64_t> tokens);

  /// Cache every whole block of `tokens` not already present. With a
  /// `source`, a new node refs the source's blocks (no copy). Without one
  /// it allocates fresh zeroed blocks, evicting LRU leaves under
  /// allocation pressure; if pressure persists the chain is cut short
  /// (graceful degradation, never an error). Returns a lease over the
  /// resulting chain, or nullptr when no block could be cached.
  std::shared_ptr<PrefixLease> insert(std::span<const std::int64_t> tokens,
                                      const BlockSource& source = nullptr);

  /// Evict up to `max_blocks` LRU leaves in plain LRU order, whether or not
  /// their blocks come free. Returns the number actually evicted.
  std::size_t evict(std::size_t max_blocks);

  std::int64_t block_tokens() const { return blocks_.block_tokens(); }
  /// Bytes of one cached block: block_tokens tokens across every layer.
  std::size_t node_bytes() const { return node_bytes_; }

  /// Cached blocks (radix nodes, quarantined ones included) and their
  /// bytes. A block a live sequence also references counts here too.
  std::size_t blocks_in_use() const;
  std::size_t bytes_in_use() const;
  std::size_t node_count() const;
  /// Live pin leases (the "kvshare.pinned" gauge): every matched or
  /// inserted chain still held by a request. Must return to baseline once
  /// all requests — including aborted ones — drop their leases.
  std::size_t pinned_leases() const;

  /// Blocks detached by quarantine but not yet freed (a lease created
  /// before the corruption was detected still pins their subtree). Returns
  /// to 0 once those leases release.
  std::size_t quarantined_blocks() const;

 private:
  friend class PrefixLease;

  /// Lock holder tracking so the pool pressure callback can detect
  /// re-entrancy: an insert whose own block charge crosses a watermark
  /// must not recurse into evict() (self-deadlock); its allocation loop
  /// already evicts.
  class Guard {
   public:
    explicit Guard(const PrefixCache& cache)
        : cache_(cache), lock_(cache.mutex_) {
      cache_.lock_holder_.store(std::this_thread::get_id(),
                                std::memory_order_relaxed);
    }
    ~Guard() {
      cache_.lock_holder_.store(std::thread::id{},
                                std::memory_order_relaxed);
    }

   private:
    const PrefixCache& cache_;
    std::lock_guard<std::mutex> lock_;
  };

  void release(PrefixLease& lease);
  /// A free handle (radix-node block) with `layers_` unset pool ids.
  std::int64_t new_handle_locked();
  std::int64_t* node_blocks_locked(std::int64_t handle) {
    return node_blocks_.data() + static_cast<std::size_t>(handle) * layers_;
  }
  std::size_t held_locked() const {
    return node_blocks_.size() / layers_ - free_handles_.size();
  }
  /// One node's fresh blocks, evicting LRU leaves while the pool refuses;
  /// -1 when everything left is pinned.
  std::int64_t allocate_node_locked();
  /// Drop the cache's references on one node's blocks and free its
  /// handle; returns the bytes that came free.
  std::size_t drop_node_locked(std::int64_t handle);
  std::shared_ptr<PrefixLease> make_lease(
      const std::vector<RadixTree::Node*>& chain);
  void update_gauges_locked();
  /// One node's blocks in layer order as one span — the bytes its
  /// fingerprint covers. Valid until the next call.
  std::span<const float> gather_locked(std::int64_t handle);
  /// Inject/verify the matched chain's blocks; on a detected corruption
  /// truncates `chain` at the corrupt node and quarantines its subtree.
  /// Materialized mode only.
  void verify_chain_locked(std::vector<RadixTree::Node*>& chain);
  void quarantine_locked(RadixTree::Node* node);
  /// Free quarantined subtrees whose last pin has dropped.
  void reap_quarantined_locked();
  /// Pool pressure callback target: evict LRU leaves that free bytes —
  /// passing over those whose blocks a live sequence still references —
  /// until `bytes_needed` came free or none is left; returns the bytes
  /// released. No-op when called from a thread already inside a cache
  /// operation.
  std::size_t relieve_pressure(std::size_t bytes_needed);

  /// kvshare.* counters, indexing kCounterNames and counters_.
  enum Count : std::size_t {
    kHitTokens,
    kMissTokens,
    kBytesSaved,
    kInsertedBlocks,
    kEvictedBlocks,
    kCounts
  };
  /// Adds `n` (> 0 only: a counter appears in the registry on its first
  /// event) through the cached handle, resolving it on first use.
  void count_locked(Count which, std::uint64_t n);
  /// Forgets every cached metric handle if the registry was reset() since
  /// they were resolved.
  void check_generation_locked();

  runtime::KVBlockPool& blocks_;
  const std::size_t layers_;
  const std::size_t node_bytes_;
  mutable std::mutex mutex_;
  mutable std::atomic<std::thread::id> lock_holder_{};
  RadixTree tree_;
  runtime::MemoryPool* pool_ = nullptr;
  int pressure_callback_id_ = -1;
  std::size_t pinned_ = 0;
  /// Pool ids of every node's blocks, `layers_` per handle; a handle is
  /// what the radix tree stores as a node's block. A republished sequence
  /// can put the same pool ids under a new node while a quarantined old
  /// one still holds them, so everything per node is keyed by handle.
  std::vector<std::int64_t> node_blocks_;
  std::vector<std::int64_t> free_handles_;
  integrity::ChecksumRegistry* integrity_ = nullptr;
  /// Per-node fingerprint and verification ordinal, recorded when the
  /// node is cached.
  struct BlockPrint {
    std::uint32_t crc = 0;
    std::uint64_t loads = 0;
  };
  std::map<std::int64_t, BlockPrint> block_crcs_;
  std::vector<float> scratch_;  ///< gather_locked output
  /// Detached-but-still-pinned subtrees awaiting their last release.
  struct Quarantined {
    std::unique_ptr<RadixTree::Node> subtree;
    std::vector<std::int64_t> blocks;  ///< node handles
  };
  std::vector<Quarantined> quarantined_;
  telemetry::MetricsRegistry* metrics_;
  /// Handles into metrics_, resolved once and again only after a registry
  /// reset() (a new generation), so an operation costs no name lookups.
  /// Guarded by mutex_.
  std::uint64_t metrics_generation_ = 0;
  std::array<telemetry::Counter*, kCounts> counters_{};
  telemetry::Gauge* blocks_in_use_ = nullptr;
  telemetry::Gauge* bytes_in_use_ = nullptr;
  telemetry::Gauge* pinned_gauge_ = nullptr;
};

}  // namespace lmo::kvshare
