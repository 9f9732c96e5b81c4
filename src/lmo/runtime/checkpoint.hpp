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
//   - every (sequence, layer) KV cache's visible rows, bit-exactly.
//
// The per-cache and config codecs are exposed here so tests can exercise
// round-trips and corruption handling without driving a whole Generator.
#pragma once

#include <memory>
#include <string>

#include "lmo/ckpt/binary_io.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"

namespace lmo::runtime {

/// Write / read a complete RuntimeConfig (the checkpoint's config
/// fingerprint). Every encoded field but compute_threads participates in
/// runtime_config_equal: resuming under a different pool size or prefetch
/// thread count would change the fault/transfer schedule and silently
/// break determinism, so it is treated as a mismatch. The compute lane
/// count is recorded but free to differ — compute is bit-identical at any
/// lane count and draws no faults off the calling thread.
void encode_runtime_config(ckpt::ByteWriter& writer,
                           const RuntimeConfig& config);
RuntimeConfig decode_runtime_config(ckpt::ByteReader& reader);

/// Field-by-field equality of the fingerprint (the RuntimeConfig subset
/// that encode_runtime_config captures), compute_threads excepted.
bool runtime_config_equal(const RuntimeConfig& a, const RuntimeConfig& b);

/// Serialize one KV cache's visible rows: geometry, every K row, then
/// every V row, each as the stored f32 row or the stored quantized tensor
/// (payload bit-exact, so a restore never re-quantizes). A window cache's
/// size comes from the config fingerprint, not the record.
void encode_kv_cache(ckpt::ByteWriter& writer, const KVCache& cache);
/// Restore one record into `cache` (empty, built for the fingerprinted
/// config, its block phase set by KVCache::resume_at) by appending its
/// rows into blocks. Besides that record, reads the paged, prefix-shared
/// and window-ring records earlier builds wrote.
void decode_kv_cache(ckpt::ByteReader& reader, KVCache& cache);

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
