// End-to-end generation harness over the real runtime: prefill + greedy
// decode for a batch of prompts, with the offloading, quantization and
// prefetch machinery engaged. Produces the same accounting the paper
// reports at laptop scale: throughput, phase times, transfer volumes,
// memory peaks and (de)quantization time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/model/llm_config.hpp"
#include "lmo/parallel/adaptive_controller.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/transformer.hpp"
#include "lmo/store/block_store.hpp"

namespace lmo::kvshare {
class PrefixCache;
class PrefixLease;
}  // namespace lmo::kvshare

namespace lmo::perfmodel {
struct Policy;
}  // namespace lmo::perfmodel

namespace lmo::runtime {

/// Decoding strategy. Greedy (temperature == 0) is deterministic; with
/// temperature > 0 tokens are drawn from the (optionally top-k truncated)
/// softmax distribution using the seeded RNG — still fully reproducible.
struct SamplingConfig {
  double temperature = 0.0;  ///< 0 = greedy argmax
  int top_k = 0;             ///< 0 = no truncation
  double top_p = 0.0;        ///< nucleus cutoff in (0, 1]; 0 = disabled
  std::uint64_t seed = 1234;

  bool greedy() const { return temperature <= 0.0; }
  void validate() const;
};

struct RuntimeConfig {
  model::ModelSpec spec = model::ModelSpec::tiny();
  /// Transformer layers whose weights stay device-resident; the rest are
  /// host-resident and streamed per fetch (the runtime's "wg").
  std::int64_t device_layers = 0;
  int weight_bits = 16;  ///< host weight storage: 16 (fp16), 8 or 4
  int kv_bits = 16;      ///< KV-at-rest storage
  std::int64_t quant_group = 32;
  std::size_t device_capacity = 256u << 20;  ///< logical "GPU" pool
  std::size_t host_capacity = 2048ull << 20;
  /// Disk spill tier (three-tier offload). `disk_layers` is the runtime's
  /// "wd": that many of the model's coldest (back) layers register on
  /// Tier::kDisk and stream through the block store per fetch.
  /// `disk_capacity` caps the spill store; 0 disables the tier entirely
  /// (no store is attached — host exhaustion degrades or throws exactly
  /// as before). When enabled the store also absorbs degradation-ladder
  /// spills and host-pressure demotions.
  std::int64_t disk_layers = 0;
  std::size_t disk_capacity = 0;
  /// Backing file for the spill store (created/truncated on
  /// construction); empty = in-memory backend (tests, drills).
  std::string spill_path;
  std::size_t spill_block_bytes = 256u << 10;  ///< store block size
  /// Which rows attention sees. Either flavor keeps its rows in blocks of
  /// kv_block_tokens tokens at kv_bits; a window cache frees each block
  /// whose rows have all left the window.
  KVFlavor kv_flavor = KVFlavor::kDense;
  std::int64_t window_tokens = 32;  ///< visible rows per layer (kWindow)
  /// Cross-request KV prefix sharing (kvshare subsystem): sessions match
  /// their prompts against a radix tree of cached KV blocks and prefill
  /// only the unmatched suffix. Cached blocks are the publishing
  /// sequence's own, at any kv_bits, so reuse is bit-exact. Rejects
  /// kWindow: a window cache drops the blocks a prefix would share.
  bool prefix_share = false;
  /// Tokens per KV block: the unit of allocation, forking, window eviction
  /// and prefix sharing.
  std::int64_t kv_block_tokens = 16;
  int prefetch_threads = 2;  ///< 0 disables async weight prefetch
  /// Transfer-retry / watchdog / degradation knobs (see OffloadManager).
  RecoveryConfig recovery;
  /// Compute lanes for a step's GEMM column panels, activation ranges and
  /// attention heads, the calling thread included: 1 runs everything on
  /// the calling thread (no pool thread exists), n > 1 adds a pool of
  /// n − 1 workers, and 0 sizes from the host: hardware_concurrency() − 1
  /// lanes, at least 1, leaving a core to the prefetch threads. Tokens and
  /// logits are bit-identical at any lane count.
  int compute_threads = 0;
  std::uint64_t seed = 42;
  SamplingConfig sampling;   ///< greedy by default
  /// Online adaptive parallelism control: at window boundaries the
  /// Generator folds the measured decode-task spans into the Algorithm-3
  /// search and resizes its thread pools to the winning plan. Token
  /// outputs are unaffected (compute is bit-identical at any lane
  /// count); only thread allocation changes. Not part of the checkpoint
  /// fingerprint — resuming with a different controller setting is legal.
  parallel::AdaptiveConfig adaptive;
  /// Offload-path integrity checking: fingerprint host weight shards,
  /// quantized KV rows and shared prefix blocks at write time and re-check
  /// them per policy on load. A detected mismatch triggers the typed repair
  /// ladder (refetch / recompute / quarantine) before surfacing a
  /// DataCorruption. Like `adaptive`, not part of the checkpoint
  /// fingerprint — resuming under a different verify policy is legal.
  integrity::IntegrityConfig integrity;

  /// Map a policy-search placement onto the runtime knobs:
  /// weights_on_gpu → device_layers (rounded down, so the fixed device
  /// pool never overcommits), weights_on_disk → disk_layers (rounded up,
  /// relieving the host at the cost of disk traffic), weight_bits
  /// verbatim. The caller still chooses disk_capacity / spill_path.
  void apply_policy(const perfmodel::Policy& policy);

  /// Field-named validation (util::Validator); the constructor calls it.
  void validate() const;
};

/// Draw one token from `logits` (rank-1, [vocab]) under `config`. Exposed
/// for testing; the Generator calls this per sequence per step.
std::int64_t sample_token(const tensor::Tensor& logits,
                          const SamplingConfig& config,
                          util::Xoshiro256& rng);

struct GenerationResult {
  /// Generated token ids per prompt (greedy argmax decoding).
  std::vector<std::vector<std::int64_t>> tokens;
  double prefill_seconds = 0.0;
  double decode_seconds = 0.0;
  double tokens_per_second = 0.0;  ///< generated tokens / (prefill + decode)
  OffloadStats offload;
  double kv_quantize_seconds = 0.0;
  double kv_dequantize_seconds = 0.0;
  std::size_t device_peak_bytes = 0;
  std::size_t host_peak_bytes = 0;
  std::size_t kv_stored_bytes = 0;
};

class Generator {
 public:
  /// Builds the disk spill store when config.disk_capacity > 0. The
  /// recovery supervisor injects a factory that attaches a write-ahead
  /// journal (and possibly a recovered free list) before the store sees
  /// its first put; the default factory builds a plain, unjournaled store.
  using SpillStoreFactory = std::function<std::unique_ptr<store::BlockStore>(
      const store::StoreConfig&, telemetry::MetricsRegistry&)>;

  explicit Generator(const RuntimeConfig& config);
  Generator(const RuntimeConfig& config, SpillStoreFactory spill_factory);
  ~Generator();

  /// Restore the last durable state from a recovery directory produced by
  /// recover::RecoveryManager: replay the spill-store journal, adopt the
  /// surviving blocks, and resume the auto-checkpointed session. Defined
  /// in the lmo_recover library (link it to use this entry point); throws
  /// CheckError when the directory holds no resumable checkpoint.
  static std::unique_ptr<Generator> recover(const std::string& dir);

  const RuntimeConfig& config() const { return config_; }
  Transformer& transformer() { return *transformer_; }
  OffloadManager& manager() { return *manager_; }
  MemoryPool& device_pool() { return *device_pool_; }
  MemoryPool& host_pool() { return *host_pool_; }
  /// Blocks of every session cache and of the prefix cache.
  KVBlockPool& kv_blocks() { return *kv_blocks_; }
  /// Disk spill store; nullptr when config.disk_capacity == 0.
  store::BlockStore* spill_store() { return spill_store_.get(); }
  /// Live while an adaptive session is active; nullptr otherwise.
  const parallel::AdaptiveController* adaptive_controller() const {
    return adaptive_.get();
  }

  /// Generate `gen_len` tokens for each prompt. Equivalent to
  /// begin() + step() until done() + finish().
  GenerationResult generate(
      const std::vector<std::vector<std::int64_t>>& prompts,
      std::int64_t gen_len);

  // -- incremental session API --------------------------------------------
  // A session is the unit of checkpointing: begin() runs prefill and
  // samples the first token of every sequence, each step() decodes exactly
  // one more token per sequence, and between steps the session can be
  // snapshot to disk and later resumed — on this Generator or on a freshly
  // constructed one with an identical RuntimeConfig.

  /// Start a session: prefill `prompts` and sample the first token each.
  /// Throws CheckError if a session is already active.
  void begin(const std::vector<std::vector<std::int64_t>>& prompts,
             std::int64_t gen_len);
  bool active() const { return session_ != nullptr; }
  /// Tokens produced so far per sequence (1 after begin()).
  std::int64_t step_index() const;
  bool done() const;
  /// Decode one token for every sequence. Requires an active, not-done
  /// session.
  void step();
  /// Close the session and return the accumulated result + accounting.
  /// Requires done().
  GenerationResult finish();

  // -- checkpoint / restore (implemented in checkpoint.cpp) ---------------

  /// Serialize the active session (progress, RNG state, fault-injection
  /// schedule positions, and every KV cache) to `path` after quiescing
  /// in-flight prefetches. Returns the payload size in bytes.
  std::size_t snapshot(const std::string& path);
  /// Rebuild a session from a checkpoint written by snapshot(). The
  /// checkpoint's config fingerprint must match this Generator's config
  /// (else CheckpointMismatch); corrupt or truncated files surface the
  /// typed errors in util/status.hpp. Throws CheckError if a session is
  /// already active.
  void resume(const std::string& path);

 private:
  /// In-flight generation state — everything a checkpoint must capture
  /// besides the (reconstructible) weights and the RNG/fault streams.
  struct Session {
    std::vector<std::vector<std::int64_t>> prompts;
    std::int64_t gen_len = 0;
    std::vector<std::vector<std::int64_t>> tokens;  ///< produced so far
    std::vector<std::int64_t> next;  ///< last sampled token per sequence
    std::int64_t produced = 0;       ///< tokens per sequence so far
    double prefill_seconds = 0.0;
    double decode_seconds = 0.0;
    std::vector<SequenceCache> caches;
    std::vector<SequenceCache*> cache_ptrs;
    /// Pins on the prefix-cache chains this session published or matched;
    /// released when the session ends or its caches are rebuilt.
    std::vector<std::shared_ptr<kvshare::PrefixLease>> leases;
  };

  // -- adaptive parallelism control ---------------------------------------
  // begin() seeds the controller with the believed Algorithm-3 inputs and
  // (if needed) enables the global TraceRecorder the decode spans feed;
  // every window_steps step()s fold_adaptive_window() aggregates the new
  // spans into a WindowSample, asks the controller, and applies a changed
  // plan by resizing the compute / prefetch pools between steps — never
  // mid-step, so the resize's drain cannot strand a forward pass.
  void start_adaptive(std::size_t batch, std::int64_t prompt_len,
                      std::int64_t gen_len);
  void fold_adaptive_window();
  void stop_adaptive();

  SequenceCache make_sequence_cache();
  /// (Re)create every sequence cache for `session` from scratch, matching
  /// prompts against the prefix cache when sharing is on. `matched` is
  /// resized to one skip count per prompt. Used by begin() and by the
  /// integrity recompute rung.
  void build_session_caches(Session& session,
                            std::vector<std::int64_t>& matched);
  /// Recompute rung of the repair ladder: drop all (possibly corrupt)
  /// session caches and rebuild them bit-exactly by re-prefilling the
  /// prompt suffix plus every already-embedded generated token. Never
  /// samples, so the sampling RNG stream is untouched and the retried step
  /// reproduces the clean run's tokens.
  void repair_session_caches();
  /// Sample each sequence's next token from its row of `logits`
  /// ([B, vocab]) and append it to the session.
  void sample_next(const tensor::Tensor& logits, Session& session);
  /// Publish a finished prefill's full prompt blocks into the prefix
  /// cache: the cache refs the sequence's own blocks, copying no rows.
  std::shared_ptr<kvshare::PrefixLease> publish_prefix(
      const std::vector<std::int64_t>& prompt, const SequenceCache& cache);

  RuntimeConfig config_;
  util::Xoshiro256 sampling_rng_;
  std::unique_ptr<MemoryPool> device_pool_;
  std::unique_ptr<MemoryPool> host_pool_;
  /// Disk-tier backing (nullptr when disk_capacity == 0). Declared before
  /// manager_: disk-tier entries hold block handles into it, so it must
  /// outlive the manager.
  std::unique_ptr<store::BlockStore> spill_store_;
  std::unique_ptr<OffloadManager> manager_;
  /// Checksum registry for the offload path. Declared after manager_ (its
  /// metrics live there) and before everything that holds a raw pointer
  /// into it: the manager wiring, the transformer's registered weights,
  /// the prefix cache and every session KV cache.
  std::unique_ptr<integrity::ChecksumRegistry> integrity_;
  std::unique_ptr<Transformer> transformer_;
  /// Declared after manager_, so it is destroyed (draining its queue)
  /// first: a step leaves the next layer-0 prefetch queued, and that task
  /// writes into the manager.
  std::unique_ptr<parallel::ThreadPool> prefetch_pool_;
  std::unique_ptr<parallel::ThreadPool> compute_pool_;
  /// Blocks of every session cache and of the prefix cache. Outlives
  /// both.
  std::unique_ptr<KVBlockPool> kv_blocks_;
  /// Outlives session_ (declared first): sessions hold leases into it.
  std::unique_ptr<kvshare::PrefixCache> prefix_cache_;
  std::unique_ptr<Session> session_;

  /// Host-pool pressure-callback registration for host→disk demotion;
  /// removed in the destructor. -1 when the disk tier is off.
  int host_relief_id_ = -1;

  std::unique_ptr<parallel::AdaptiveController> adaptive_;
  int adaptive_steps_ = 0;            ///< steps since the last window fold
  std::size_t trace_events_seen_ = 0; ///< global-trace cursor per window
  double adaptive_h2d_seen_ = 0.0;    ///< manager H2D bytes already folded
  bool adaptive_owns_trace_ = false;  ///< we enabled the global recorder
};

}  // namespace lmo::runtime
