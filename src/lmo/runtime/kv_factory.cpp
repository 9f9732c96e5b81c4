#include "lmo/runtime/kv_factory.hpp"

#include <algorithm>

#include "lmo/runtime/paged_kv.hpp"
#include "lmo/runtime/window_kv.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {

const char* to_string(KVFlavor flavor) {
  switch (flavor) {
    case KVFlavor::kDense:
      return "dense";
    case KVFlavor::kPaged:
      return "paged";
    case KVFlavor::kWindow:
      return "window";
  }
  return "unknown";
}

KVFlavor kv_flavor_from_string(const std::string& name) {
  if (name == "dense") return KVFlavor::kDense;
  if (name == "paged") return KVFlavor::kPaged;
  if (name == "window") return KVFlavor::kWindow;
  throw util::ConfigError("unknown KV flavor '" + name +
                          "' (expected dense, paged or window)");
}

std::unique_ptr<KVCacheBase> MakeLayerKvCache(KVFlavor flavor,
                                              const KvCacheSpec& spec) {
  switch (flavor) {
    case KVFlavor::kDense:
      LMO_CHECK_MSG(spec.pool != nullptr, "dense KV needs a memory pool");
      LMO_CHECK_GT(spec.hidden, 0);
      return std::make_unique<KVCache>(spec.hidden, spec.kv_bits,
                                       spec.quant_group, *spec.pool);
    case KVFlavor::kPaged:
      LMO_CHECK_MSG(spec.block_pool != nullptr, "paged KV needs a block pool");
      return std::make_unique<PagedKVCache>(*spec.block_pool);
    case KVFlavor::kWindow:
      LMO_CHECK_MSG(spec.pool != nullptr, "window KV needs a memory pool");
      LMO_CHECK_GT(spec.hidden, 0);
      LMO_CHECK_GT(spec.window_tokens, 0);
      return std::make_unique<WindowKVCache>(spec.hidden, spec.window_tokens,
                                             *spec.pool);
  }
  LMO_UNREACHABLE("bad KVFlavor");
}

SequenceCache MakeKvCache(KVFlavor flavor, const KvCacheSpec& spec) {
  LMO_CHECK_GT(spec.num_layers, 0);
  SequenceCache cache;
  cache.reserve(static_cast<std::size_t>(spec.num_layers));
  for (std::int64_t layer = 0; layer < spec.num_layers; ++layer) {
    cache.push_back(MakeLayerKvCache(flavor, spec));
  }
  return cache;
}

std::size_t kv_bytes_per_token(std::int64_t hidden, int bits) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(2.0 * static_cast<double>(hidden) *
                                  (static_cast<double>(bits) / 8.0)));
}

}  // namespace lmo::runtime
