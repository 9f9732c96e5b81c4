#include "lmo/kvshare/prefix_cache.hpp"

#include <algorithm>
#include <cstring>

#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/checksum.hpp"
#include "lmo/util/fault.hpp"

namespace lmo::kvshare {
namespace {

// Bit-flip injection on shared prefix blocks as a match reads them back.
// Under chaos the flip lands in the at-rest payload (real bit rot); the
// "blocks are immutable once filled" invariant is suspended exactly like
// real rot would suspend it, which is what quarantine exists to contain.
constexpr const char* kKvshareFlipSite = "integrity.kvshare.flip";

}  // namespace

// ---------------------------------------------------------------- lease --

PrefixLease::~PrefixLease() {
  if (cache_ != nullptr) cache_->release(*this);
}

// ---------------------------------------------------------------- cache --

PrefixCache::PrefixCache(runtime::KVBlockPool& blocks, std::int64_t layers,
                         telemetry::MetricsRegistry* metrics,
                         integrity::ChecksumRegistry* integrity)
    : blocks_(blocks),
      layers_(static_cast<std::size_t>(layers)),
      node_bytes_(blocks.block_bytes() * static_cast<std::size_t>(layers)),
      tree_(blocks.block_tokens()),
      pool_(blocks.memory_pool()),
      integrity_(integrity),
      metrics_(metrics) {
  LMO_CHECK_GT(layers, 0);
  if (pool_ != nullptr) {
    pressure_callback_id_ = pool_->add_pressure_callback(
        [this](overload::PressureLevel, std::size_t bytes_needed) {
          return relieve_pressure(bytes_needed);
        });
  }
}

PrefixCache::~PrefixCache() {
  if (pool_ != nullptr) {
    pool_->remove_pressure_callback(pressure_callback_id_);
  }
  Guard lock(*this);
  RadixTree::visit(tree_.root(), [this](const RadixTree::Node& node) {
    if (node.block >= 0) drop_node_locked(node.block);
  });
  for (const Quarantined& q : quarantined_) {
    for (const std::int64_t handle : q.blocks) drop_node_locked(handle);
  }
}

std::size_t PrefixCache::relieve_pressure(std::size_t bytes_needed) {
  if (lock_holder_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    return 0;  // re-entrant: the running operation's own eviction handles it
  }
  Guard lock(*this);
  // A block a live sequence still references frees nothing when evicted,
  // so relief passes over those leaves and evicts the LRU ones that do.
  const auto frees_bytes = [this](std::int64_t handle) {
    const std::int64_t* ids = node_blocks_locked(handle);
    return std::any_of(ids, ids + layers_, [this](std::int64_t id) {
      return blocks_.refcount(id) == 1;
    });
  };
  std::size_t evicted = 0;
  std::size_t freed = 0;
  while (freed < bytes_needed) {
    const std::int64_t victim = tree_.evict_lru(frees_bytes);
    if (victim < 0) break;
    freed += drop_node_locked(victim);
    ++evicted;
  }
  update_gauges_locked();
  count_locked(kEvictedBlocks, evicted);
  return freed;
}

void PrefixCache::check_generation_locked() {
  const std::uint64_t generation = metrics_->generation();
  if (generation == metrics_generation_) return;
  metrics_generation_ = generation;
  counters_.fill(nullptr);
  blocks_in_use_ = bytes_in_use_ = pinned_gauge_ = nullptr;
}

void PrefixCache::count_locked(Count which, std::uint64_t n) {
  static constexpr const char* kCounterNames[kCounts] = {
      "kvshare.hit_tokens", "kvshare.miss_tokens", "kvshare.bytes_saved",
      "kvshare.inserted_blocks", "kvshare.evicted_blocks"};
  if (metrics_ == nullptr || n == 0) return;
  check_generation_locked();
  telemetry::Counter*& counter = counters_[which];
  if (counter == nullptr) counter = &metrics_->counter(kCounterNames[which]);
  counter->add(n);
}

void PrefixCache::update_gauges_locked() {
  if (metrics_ == nullptr) return;
  check_generation_locked();
  if (pinned_gauge_ == nullptr) {
    blocks_in_use_ = &metrics_->gauge("kvshare.blocks_in_use");
    bytes_in_use_ = &metrics_->gauge("kvshare.bytes_in_use");
    pinned_gauge_ = &metrics_->gauge("kvshare.pinned");
  }
  const std::size_t held = held_locked();
  blocks_in_use_->set(static_cast<double>(held));
  bytes_in_use_->set(static_cast<double>(held * node_bytes_));
  pinned_gauge_->set(static_cast<double>(pinned_));
}

std::shared_ptr<PrefixLease> PrefixCache::make_lease(
    const std::vector<RadixTree::Node*>& chain) {
  if (chain.empty()) return nullptr;
  auto lease = std::shared_ptr<PrefixLease>(new PrefixLease());
  lease->cache_ = this;
  lease->node_ = chain.back();
  lease->pool_ = &blocks_;
  lease->layers_ = layers_;
  lease->ids_.reserve(chain.size() * layers_);
  for (const RadixTree::Node* node : chain) {
    const std::int64_t* ids = node_blocks_locked(node->block);
    lease->ids_.insert(lease->ids_.end(), ids, ids + layers_);
  }
  tree_.pin(lease->node_);
  ++pinned_;
  return lease;
}

std::int64_t PrefixCache::new_handle_locked() {
  if (!free_handles_.empty()) {
    const std::int64_t handle = free_handles_.back();
    free_handles_.pop_back();
    return handle;
  }
  node_blocks_.resize(node_blocks_.size() + layers_, -1);
  return static_cast<std::int64_t>(node_blocks_.size() / layers_) - 1;
}

std::size_t PrefixCache::drop_node_locked(std::int64_t handle) {
  block_crcs_.erase(handle);
  std::size_t freed = 0;
  const std::int64_t* ids = node_blocks_locked(handle);
  for (std::size_t layer = 0; layer < layers_; ++layer) {
    if (blocks_.unref(ids[layer])) freed += blocks_.block_bytes();
  }
  free_handles_.push_back(handle);
  return freed;
}

std::span<const float> PrefixCache::gather_locked(std::int64_t handle) {
  const std::size_t floats = blocks_.block_bytes() / sizeof(float);
  const std::int64_t* ids = node_blocks_locked(handle);
  scratch_.resize(floats * layers_);
  for (std::size_t layer = 0; layer < layers_; ++layer) {
    std::memcpy(scratch_.data() + layer * floats, blocks_.data(ids[layer]),
                blocks_.block_bytes());
  }
  return scratch_;
}

void PrefixCache::quarantine_locked(RadixTree::Node* node) {
  telemetry::ScopedSpan span(telemetry::TraceRecorder::global(),
                             "repair.quarantine", "integrity");
  Quarantined q;
  q.subtree = tree_.detach(node);
  // Collect the subtree's blocks and drop their fingerprints: a corrupt
  // block must never be matched again, so its CRC has no further use.
  int pins = 0;
  RadixTree::visit(*q.subtree, [&](const RadixTree::Node& n) {
    q.blocks.push_back(n.block);
    block_crcs_.erase(n.block);
    pins += n.pins;
  });
  if (integrity_ != nullptr) {
    integrity_->note_repair(integrity::RepairKind::kQuarantine);
    integrity_->note_quarantined_blocks(q.blocks.size());
  }
  if (pins == 0) {
    // No live lease reads these blocks; free them immediately.
    for (const std::int64_t handle : q.blocks) drop_node_locked(handle);
    return;
  }
  // Existing leases still pin nodes in the subtree: keep the blocks
  // referenced until the last pin drops (see reap_quarantined_locked).
  quarantined_.push_back(std::move(q));
}

void PrefixCache::reap_quarantined_locked() {
  for (auto it = quarantined_.begin(); it != quarantined_.end();) {
    int pins = 0;
    RadixTree::visit(*it->subtree,
                     [&pins](const RadixTree::Node& n) { pins += n.pins; });
    if (pins > 0) {
      ++it;
      continue;
    }
    for (const std::int64_t handle : it->blocks) drop_node_locked(handle);
    it = quarantined_.erase(it);
  }
}

void PrefixCache::verify_chain_locked(std::vector<RadixTree::Node*>& chain) {
  auto& injector = util::FaultInjector::instance();
  const bool inject = injector.enabled();
  const bool check = integrity_ != nullptr && integrity_->enabled();
  if ((!inject && !check) || !blocks_.materialized()) return;
  const std::size_t block_bytes = blocks_.block_bytes();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::int64_t handle = chain[i]->block;
    if (inject) {
      const std::int64_t flip =
          injector.corrupt_bit(kKvshareFlipSite, node_bytes_ * 8);
      if (flip >= 0) {
        // At-rest rot: flip the stored byte itself (the node's blocks in
        // layer order are one bit space). Whether anyone notices depends
        // entirely on the verify policy below.
        const auto byte = static_cast<std::size_t>(flip / 8);
        const std::int64_t id = node_blocks_locked(handle)[byte / block_bytes];
        reinterpret_cast<std::uint8_t*>(blocks_.data(id))[byte % block_bytes] ^=
            static_cast<std::uint8_t>(1u << (flip % 8));
      }
    }
    if (!check) continue;
    auto print = block_crcs_.find(handle);
    if (print == block_crcs_.end()) continue;
    if (!integrity_->config().should_verify(print->second.loads++)) continue;
    if (integrity_->verify_value(gather_locked(handle), print->second.crc)) {
      continue;
    }
    // Corrupt shared state: truncate the match at the bad block and detach
    // its subtree so no later request can reuse it. The session proceeds
    // with the shorter (verified) prefix and recomputes the rest privately.
    RadixTree::Node* bad = chain[i];
    chain.resize(i);
    quarantine_locked(bad);
    return;
  }
}

std::shared_ptr<PrefixLease> PrefixCache::match(
    std::span<const std::int64_t> tokens) {
  Guard lock(*this);
  auto chain = tree_.lookup(tokens);
  // Cap the match below the prompt length: the session must still prefill
  // at least one token to produce the logits row it samples from.
  while (!chain.empty() &&
         static_cast<std::size_t>(static_cast<std::int64_t>(chain.size()) *
                                  block_tokens()) >= tokens.size()) {
    chain.pop_back();
  }
  verify_chain_locked(chain);
  auto lease = make_lease(chain);
  const std::uint64_t hit =
      lease == nullptr ? 0
                       : static_cast<std::uint64_t>(lease->matched_tokens());
  update_gauges_locked();
  count_locked(kHitTokens, hit);
  count_locked(kMissTokens, static_cast<std::uint64_t>(tokens.size()) - hit);
  count_locked(kBytesSaved,
               hit * (node_bytes_ / static_cast<std::size_t>(block_tokens())));
  return lease;
}

std::int64_t PrefixCache::allocate_node_locked() {
  const std::int64_t handle = new_handle_locked();
  std::size_t filled = 0;
  while (filled < layers_) {
    const std::int64_t id = blocks_.try_allocate();
    if (id >= 0) {
      node_blocks_locked(handle)[filled++] = id;
      continue;
    }
    const std::int64_t victim = tree_.evict_lru();
    if (victim < 0) {
      // Everything pinned: give up gracefully.
      for (std::size_t layer = 0; layer < filled; ++layer) {
        blocks_.unref(node_blocks_locked(handle)[layer]);
      }
      free_handles_.push_back(handle);
      return -1;
    }
    drop_node_locked(victim);
    count_locked(kEvictedBlocks, 1);
  }
  return handle;
}

std::shared_ptr<PrefixLease> PrefixCache::insert(
    std::span<const std::int64_t> tokens, const BlockSource& source) {
  Guard lock(*this);
  std::uint64_t fresh = 0;
  auto chain = tree_.insert(tokens, [&](std::int64_t token_offset) {
    std::int64_t handle;
    if (source) {
      const std::vector<std::int64_t> ids = source(token_offset);
      LMO_CHECK_EQ(ids.size(), layers_);
      for (const std::int64_t id : ids) blocks_.ref(id);
      handle = new_handle_locked();
      std::copy(ids.begin(), ids.end(), node_blocks_locked(handle));
    } else {
      handle = allocate_node_locked();
      if (handle < 0) return handle;
    }
    ++fresh;
    // Fingerprint the node the moment it is cached; matches re-check it
    // per the integrity policy.
    if (integrity_ != nullptr && integrity_->enabled() &&
        blocks_.materialized()) {
      block_crcs_[handle] = BlockPrint{util::crc32(gather_locked(handle)), 0};
    }
    return handle;
  });
  auto lease = make_lease(chain);
  update_gauges_locked();
  count_locked(kInsertedBlocks, fresh);
  return lease;
}

std::size_t PrefixCache::evict(std::size_t max_blocks) {
  Guard lock(*this);
  std::size_t evicted = 0;
  while (evicted < max_blocks) {
    const std::int64_t victim = tree_.evict_lru();
    if (victim < 0) break;
    drop_node_locked(victim);
    ++evicted;
  }
  update_gauges_locked();
  count_locked(kEvictedBlocks, evicted);
  return evicted;
}

void PrefixCache::release(PrefixLease& lease) {
  Guard lock(*this);
  tree_.unpin(lease.node_);
  lease.cache_ = nullptr;
  LMO_CHECK_GT(pinned_, 0u);
  --pinned_;
  // This may have been the last pin on a quarantined subtree.
  if (!quarantined_.empty()) reap_quarantined_locked();
  update_gauges_locked();
}

std::size_t PrefixCache::quarantined_blocks() const {
  Guard lock(*this);
  std::size_t n = 0;
  for (const Quarantined& q : quarantined_) n += q.blocks.size();
  return n;
}

std::size_t PrefixCache::blocks_in_use() const {
  Guard lock(*this);
  return held_locked();
}

std::size_t PrefixCache::bytes_in_use() const {
  Guard lock(*this);
  return held_locked() * node_bytes_;
}

std::size_t PrefixCache::node_count() const {
  Guard lock(*this);
  return tree_.node_count();
}

std::size_t PrefixCache::pinned_leases() const {
  Guard lock(*this);
  return pinned_;
}

}  // namespace lmo::kvshare
