// Radix tree over token-id sequences at block granularity (the
// RadixAttention structure, aligned to the KV block pool's fixed block
// size). Every node spans exactly `block_tokens` token ids and carries one
// opaque block handle (PrefixCache maps it to a pool block per layer); a
// root→node path spells out a cached prompt prefix.
// Children are keyed by their full token span, so two blocks that share a
// first token but diverge later are distinct children — lookup compares
// whole spans, which keeps matches exact.
//
// Eviction is LRU-by-leaf: only childless, unpinned nodes are candidates,
// so a chain disappears tail-first and a pinned (in-use) node transitively
// protects every ancestor (ancestors have children by construction). Ties
// on the LRU stamp break on node id, which makes eviction order fully
// deterministic — chaos runs with sharing enabled replay identically.
//
// Not internally synchronized; PrefixCache serializes access.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

namespace lmo::kvshare {

class RadixTree {
 public:
  struct Node {
    std::vector<std::int64_t> tokens;  ///< exactly block_tokens ids
    std::int64_t block = -1;           ///< PrefixCache block handle
    Node* parent = nullptr;
    std::map<std::vector<std::int64_t>, std::unique_ptr<Node>> children;
    int pins = 0;
    std::uint64_t last_use = 0;  ///< monotonic tick, not wall time
    std::uint64_t id = 0;        ///< creation order; LRU tie-break
  };

  explicit RadixTree(std::int64_t block_tokens);

  std::int64_t block_tokens() const { return block_tokens_; }

  /// Longest cached prefix of `tokens` made of whole blocks, root-first.
  /// Refreshes the LRU stamp of every node on the path.
  std::vector<Node*> lookup(std::span<const std::int64_t> tokens);

  /// Extend the tree to cover every whole block of `tokens`. `make_block`
  /// is invoked once per missing node with the block's token offset and
  /// returns a block handle, or -1 to stop growing (allocation pressure).
  /// Returns the chain actually present afterwards, root-first.
  std::vector<Node*> insert(
      std::span<const std::int64_t> tokens,
      const std::function<std::int64_t(std::int64_t token_offset)>&
          make_block);

  /// Pin / unpin a node against eviction. Pins protect ancestors
  /// transitively (they have children while this node exists).
  void pin(Node* node);
  void unpin(Node* node);

  /// Evict the least-recently-used childless unpinned node whose block
  /// handle `evictable` accepts (null: any). Returns its block handle, or
  /// -1 when no node qualifies.
  std::int64_t evict_lru(
      const std::function<bool(std::int64_t block)>& evictable = nullptr);

  /// Detach `node` and its whole subtree from the tree, transferring
  /// ownership to the caller (the quarantine rung of the integrity repair
  /// ladder). lookup/insert/evict_lru can no longer reach any detached
  /// node, but pins held on them stay valid for as long as the returned
  /// owner lives — existing leases read their blocks out undisturbed.
  std::unique_ptr<Node> detach(Node* node);

  std::size_t node_count() const { return node_count_; }
  const Node& root() const { return root_; }

  /// Call `fn` on `node` and every node below it.
  static void visit(const Node& node,
                    const std::function<void(const Node&)>& fn);

 private:
  std::int64_t block_tokens_;
  Node root_;
  std::uint64_t tick_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t node_count_ = 0;
};

}  // namespace lmo::kvshare
