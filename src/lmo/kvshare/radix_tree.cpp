#include "lmo/kvshare/radix_tree.hpp"

#include "lmo/util/check.hpp"

namespace lmo::kvshare {

RadixTree::RadixTree(std::int64_t block_tokens)
    : block_tokens_(block_tokens) {
  LMO_CHECK_GT(block_tokens_, 0);
}

std::vector<RadixTree::Node*> RadixTree::lookup(
    std::span<const std::int64_t> tokens) {
  std::vector<Node*> chain;
  Node* node = &root_;
  const std::uint64_t stamp = ++tick_;
  std::size_t offset = 0;
  const std::size_t bt = static_cast<std::size_t>(block_tokens_);
  std::vector<std::int64_t> key;
  while (offset + bt <= tokens.size()) {
    key.assign(tokens.begin() + static_cast<std::ptrdiff_t>(offset),
               tokens.begin() + static_cast<std::ptrdiff_t>(offset + bt));
    const auto it = node->children.find(key);
    if (it == node->children.end()) break;
    node = it->second.get();
    node->last_use = stamp;
    chain.push_back(node);
    offset += bt;
  }
  return chain;
}

std::vector<RadixTree::Node*> RadixTree::insert(
    std::span<const std::int64_t> tokens,
    const std::function<std::int64_t(std::int64_t token_offset)>& make_block) {
  std::vector<Node*> chain;
  Node* node = &root_;
  const std::uint64_t stamp = ++tick_;
  std::size_t offset = 0;
  const std::size_t bt = static_cast<std::size_t>(block_tokens_);
  std::vector<std::int64_t> key;
  while (offset + bt <= tokens.size()) {
    key.assign(tokens.begin() + static_cast<std::ptrdiff_t>(offset),
               tokens.begin() + static_cast<std::ptrdiff_t>(offset + bt));
    auto it = node->children.find(key);
    if (it == node->children.end()) {
      // Pin the node we're extending from while make_block runs: it may
      // evict LRU leaves to make room, and without the pin the chain under
      // construction is itself a candidate (its tail is childless until
      // the next block lands). Ancestors are safe — they have children.
      ++node->pins;
      const std::int64_t block =
          make_block(static_cast<std::int64_t>(offset));
      --node->pins;
      if (block < 0) break;  // pressure: keep the prefix we have
      auto child = std::make_unique<Node>();
      child->tokens = key;
      child->block = block;
      child->parent = node;
      child->id = next_id_++;
      it = node->children.emplace(key, std::move(child)).first;
      ++node_count_;
    }
    node = it->second.get();
    node->last_use = stamp;
    chain.push_back(node);
    offset += bt;
  }
  return chain;
}

void RadixTree::pin(Node* node) {
  LMO_CHECK(node != nullptr);
  ++node->pins;
}

void RadixTree::unpin(Node* node) {
  LMO_CHECK(node != nullptr);
  LMO_CHECK_GT(node->pins, 0);
  --node->pins;
}

std::unique_ptr<RadixTree::Node> RadixTree::detach(Node* node) {
  LMO_CHECK(node != nullptr);
  LMO_CHECK_MSG(node != &root_, "cannot detach the radix-tree root");
  Node* parent = node->parent;
  LMO_CHECK_MSG(parent != nullptr, "node is already detached");
  auto it = parent->children.find(node->tokens);
  LMO_CHECK_MSG(it != parent->children.end() && it->second.get() == node,
                "node is not a child of its recorded parent");
  std::unique_ptr<Node> owned = std::move(it->second);
  // Safe to erase by iterator: ownership already moved to `owned`, and the
  // map key is an independent copy of the token span made at insert.
  parent->children.erase(it);
  owned->parent = nullptr;
  // The whole subtree leaves the tree's accounting.
  std::size_t removed = 0;
  visit(*owned, [&removed](const Node&) { ++removed; });
  LMO_CHECK_GE(node_count_, removed);
  node_count_ -= removed;
  return owned;
}

void RadixTree::visit(const Node& node,
                      const std::function<void(const Node&)>& fn) {
  std::vector<const Node*> stack{&node};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    fn(*n);
    for (const auto& [key, child] : n->children) stack.push_back(child.get());
  }
}

std::int64_t RadixTree::evict_lru(
    const std::function<bool(std::int64_t block)>& evictable) {
  // Depth-first scan for the LRU childless unpinned node. The tree is
  // bounded by the block budget, so the walk stays small; determinism
  // matters more here than asymptotics.
  Node* victim = nullptr;
  std::vector<Node*> stack{&root_};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (auto& [key, child] : node->children) {
      stack.push_back(child.get());
    }
    if (node == &root_ || !node->children.empty() || node->pins > 0) continue;
    if (evictable && !evictable(node->block)) continue;
    if (victim == nullptr || node->last_use < victim->last_use ||
        (node->last_use == victim->last_use && node->id < victim->id)) {
      victim = node;
    }
  }
  if (victim == nullptr) return -1;
  const std::int64_t block = victim->block;
  Node* parent = victim->parent;
  // Copy the key: the map element owns victim->tokens and dies on erase.
  const std::vector<std::int64_t> key = victim->tokens;
  parent->children.erase(key);
  --node_count_;
  return block;
}

}  // namespace lmo::kvshare
