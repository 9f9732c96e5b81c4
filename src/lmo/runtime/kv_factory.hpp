// One construction point for every KV-cache backend. Before this factory
// each consumer (the Generator's session setup, the checkpoint decoder,
// the serving simulator's byte accounting, the CLI's --kv parsing) grew
// its own switch over the backends and its own copy of the per-token byte
// math; adding a flavor meant touching all of them. Now the flavor enum,
// the name mapping, the per-layer construction and the at-rest byte
// formula live here, and consumers say what they want, not how to wire it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lmo/runtime/kv_cache.hpp"

namespace lmo::runtime {

class KVBlockPool;

/// All KV caches for one sequence (one per layer), backend-polymorphic.
using SequenceCache = std::vector<std::unique_ptr<KVCacheBase>>;

/// Which KV-cache backend to build per sequence.
enum class KVFlavor : std::uint8_t {
  kDense = 0,   ///< contiguous KVCache, optionally quantized at rest
  kPaged = 1,   ///< vLLM-style PagedKVCache over a shared KVBlockPool
  kWindow = 2,  ///< sliding-window ring (WindowKVCache)
};

const char* to_string(KVFlavor flavor);

/// Parse a flavor name ("dense" | "paged" | "window"), as spelled by the
/// CLI's --kv flag and by to_string. Throws util::ConfigError otherwise.
KVFlavor kv_flavor_from_string(const std::string& name);

/// Everything backend construction can need. Flavors read only their own
/// fields: dense uses kv_bits/quant_group/pool, paged uses block_pool
/// (whose blocks also back the prefix cache), window uses
/// window_tokens/pool.
struct KvCacheSpec {
  std::int64_t hidden = 0;
  std::int64_t num_layers = 0;
  int kv_bits = 16;
  std::int64_t quant_group = 32;
  std::int64_t window_tokens = 32;
  MemoryPool* pool = nullptr;        ///< dense / window storage
  KVBlockPool* block_pool = nullptr; ///< paged storage
};

/// Build one layer's cache. Throws CheckError when the spec lacks the
/// fields the flavor needs (e.g. kPaged without a block_pool).
std::unique_ptr<KVCacheBase> MakeLayerKvCache(KVFlavor flavor,
                                              const KvCacheSpec& spec);

/// Build a full per-sequence cache: `spec.num_layers` layers of `flavor`.
SequenceCache MakeKvCache(KVFlavor flavor, const KvCacheSpec& spec);

/// At-rest bytes one token's K + V rows occupy: 2 · hidden · bits / 8,
/// floored at 1. The formula the serving simulator's pool accounting and
/// the prefix cache's block charging share.
std::size_t kv_bytes_per_token(std::int64_t hidden, int bits);

}  // namespace lmo::runtime
