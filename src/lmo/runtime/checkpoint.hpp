// Generator checkpoint payload: the codecs behind Generator::snapshot() /
// Generator::resume() (see generator.hpp for the session model). A
// checkpoint captures everything a fresh process needs to continue a
// generation session byte-identically:
//
//   - a full RuntimeConfig fingerprint (weights are synthetic + seeded, so
//     the config reconstructs them exactly — they are not serialized),
//   - session progress: prompts, tokens produced so far, the next-token
//     cursor, accumulated phase times,
//   - the sampling RNG state (xoshiro256** words),
//   - the fault injector's per-site schedule positions, so an active chaos
//     schedule continues where it left off instead of restarting,
//   - every (sequence, layer) KV cache, bit-exactly for all three flavors.
//
// The per-cache and config codecs are exposed here so tests can exercise
// round-trips and corruption handling without driving a whole Generator.
#pragma once

#include <memory>
#include <string>

#include "lmo/ckpt/binary_io.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/runtime/paged_kv.hpp"

namespace lmo::runtime {

/// Write / read a complete RuntimeConfig (the checkpoint's config
/// fingerprint). Every field participates: resuming under a different
/// pool size or thread count would change the fault/transfer schedule and
/// silently break determinism, so it is treated as a mismatch.
void encode_runtime_config(ckpt::ByteWriter& writer,
                           const RuntimeConfig& config);
RuntimeConfig decode_runtime_config(ckpt::ByteReader& reader);

/// Field-by-field equality of the fingerprint (the RuntimeConfig subset
/// that encode_runtime_config captures).
bool runtime_config_equal(const RuntimeConfig& a, const RuntimeConfig& b);

/// Pools a KV-cache decode allocates from: `pool` backs dense and window
/// caches, `block_pool` backs paged caches (prefix-shared sequences
/// included). Only the member matching the encoded flavor is touched. When `integrity` is set, restored dense
/// caches are attached to it (label `kv_region`) and re-fingerprint their
/// rows, so verification continues seamlessly across a resume.
struct KVRestoreContext {
  MemoryPool* pool = nullptr;
  KVBlockPool* block_pool = nullptr;
  integrity::ChecksumRegistry* integrity = nullptr;
  std::string kv_region;
};

/// Serialize one KV cache, dispatching on its dynamic flavor. Dense caches
/// store their rows verbatim (quantized payloads bit-exact); window caches
/// store the raw rings plus cursors; paged caches store the gathered K/V
/// matrices and restore into private blocks (block structure is a function
/// of length, so re-appending reproduces it exactly). The decoder still
/// reads the shared-cache records (kSharedTag) of files written before
/// prefix-shared sequences became paged caches.
void encode_kv_cache(ckpt::ByteWriter& writer, const KVCacheBase& cache);
std::unique_ptr<KVCacheBase> decode_kv_cache(ckpt::ByteReader& reader,
                                             const KVRestoreContext& context);

/// Cheap header+fingerprint probe of a checkpoint file: validates the
/// envelope (CRC included) and decodes config + progress, without
/// touching pools or building caches. `lmo resume` uses this to
/// reconstruct the Generator before calling Generator::resume().
struct CheckpointMeta {
  RuntimeConfig config;
  std::size_t num_sequences = 0;
  std::int64_t gen_len = 0;
  std::int64_t produced = 0;  ///< tokens per sequence already generated
};

CheckpointMeta read_checkpoint_meta(const std::string& path);

}  // namespace lmo::runtime
