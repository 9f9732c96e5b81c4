// Offload manager: owns every weight tensor, tracks its home tier (device
// pool vs host pool), compresses host-resident tensors with the real
// group-wise quantizer, and serves fetches — synchronously or as an
// asynchronous prefetch on a thread pool (the runtime's analogue of
// Algorithm 1's load_weight task). Byte counters record the traffic the
// paper's Table 1 accounts.
//
// Robustness (see docs/robustness.md): transfers pass through the fault
// injector at sites "offload.fetch.transfer" / "offload.prefetch.transfer".
// Transient failures are retried with bounded exponential backoff; a failed
// or hung prefetch makes the next fetch fall back to a synchronous
// transfer (a watchdog bounds the wait); pool exhaustion at registration
// walks a degradation ladder (evict staged entries, re-quantize 16→8→4)
// before giving up. OffloadStats accounts every recovery action exactly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "lmo/integrity/integrity.hpp"
#include "lmo/parallel/threadpool.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/store/block_store.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/tensor/quantize.hpp"
#include "lmo/tensor/tensor.hpp"

namespace lmo::runtime {

/// Weight home tiers, fastest to slowest. kDisk requires attach_store();
/// disk-resident shards keep only their quantization metadata in host
/// memory — the payload lives in the block store and is staged
/// disk→host→device on fetch.
enum class Tier { kDevice, kHost, kDisk };

/// Snapshot view of the manager's telemetry registry (see
/// kOffloadStatsFields for the field↔metric mapping). Materialized by
/// OffloadManager::stats(); the registry is the source of truth — do not
/// accumulate into these fields directly.
struct OffloadStats {
  std::uint64_t fetches = 0;
  std::uint64_t device_hits = 0;       ///< fetch served from device tier
  std::uint64_t staging_hits = 0;      ///< fetch served by a prior prefetch
  std::uint64_t host_transfers = 0;    ///< successful host→device transfers
  double bytes_host_to_device = 0.0;   ///< payload actually moved
  double quantize_seconds = 0.0;       ///< one-time compression at register
  double dequantize_seconds = 0.0;     ///< per-fetch expansion

  // Recovery accounting. Each counter matches the corresponding injector /
  // ladder event exactly (asserted by the chaos tests).
  std::uint64_t transfer_retries = 0;   ///< failed attempts that were retried
  std::uint64_t transfer_failures = 0;  ///< retry budget exhausted (thrown)
  std::uint64_t prefetch_failures = 0;  ///< async loads that gave up
  std::uint64_t prefetch_timeouts = 0;  ///< fetch watchdog expiries
  std::uint64_t sync_fallbacks = 0;     ///< fetches recovered synchronously
  std::uint64_t prefetch_discards = 0;  ///< late results of abandoned loads
  std::uint64_t degradations = 0;       ///< ladder re-quantize / demote steps
  std::uint64_t staged_evictions = 0;   ///< staging slots evicted by ladder

  // Disk tier (see docs/offload_tiers.md).
  std::uint64_t disk_transfers = 0;     ///< disk→host payload stagings
  double bytes_disk_to_host = 0.0;      ///< payload bytes read off the store
  std::uint64_t disk_spills = 0;        ///< shards demoted host→disk
};

/// One row of the OffloadStats↔registry mapping: exactly one of the two
/// member pointers is set, matching the metric's registry type.
struct OffloadStatsField {
  const char* metric;
  std::uint64_t OffloadStats::*u64;
  double OffloadStats::*f64;
};

/// The single source of truth tying every OffloadStats field to its metric
/// name. stats() materializes the struct by walking this table, and the
/// telemetry tests walk it to prove registry and legacy view agree
/// field-for-field.
inline constexpr OffloadStatsField kOffloadStatsFields[] = {
    {"offload.fetch.total", &OffloadStats::fetches, nullptr},
    {"offload.fetch.device_hits", &OffloadStats::device_hits, nullptr},
    {"offload.fetch.staging_hits", &OffloadStats::staging_hits, nullptr},
    {"offload.transfer.total", &OffloadStats::host_transfers, nullptr},
    {"offload.transfer.bytes_host_to_device", nullptr,
     &OffloadStats::bytes_host_to_device},
    {"offload.quantize.seconds", nullptr, &OffloadStats::quantize_seconds},
    {"offload.dequantize.seconds", nullptr,
     &OffloadStats::dequantize_seconds},
    {"offload.transfer.retries", &OffloadStats::transfer_retries, nullptr},
    {"offload.transfer.failures", &OffloadStats::transfer_failures, nullptr},
    {"offload.prefetch.failures", &OffloadStats::prefetch_failures, nullptr},
    {"offload.prefetch.timeouts", &OffloadStats::prefetch_timeouts, nullptr},
    {"offload.fetch.sync_fallbacks", &OffloadStats::sync_fallbacks, nullptr},
    {"offload.prefetch.discards", &OffloadStats::prefetch_discards, nullptr},
    {"offload.degrade.steps", &OffloadStats::degradations, nullptr},
    {"offload.degrade.staged_evictions", &OffloadStats::staged_evictions,
     nullptr},
    {"offload.transfer.disk_total", &OffloadStats::disk_transfers, nullptr},
    {"offload.transfer.bytes_disk_to_host", nullptr,
     &OffloadStats::bytes_disk_to_host},
    {"offload.degrade.disk_spills", &OffloadStats::disk_spills, nullptr},
};

// Every OffloadStats field is 8 bytes (uint64_t or double), so a new field
// changes sizeof and breaks this assert until kOffloadStatsFields gains the
// matching metric row — counters cannot silently diverge from the registry.
static_assert(sizeof(OffloadStats) ==
                  std::size(kOffloadStatsFields) * sizeof(std::uint64_t),
              "OffloadStats and kOffloadStatsFields are out of sync: add the "
              "new field's metric mapping");

/// Knobs for the recovery machinery. The defaults keep fault-free behavior
/// identical to the fail-fast seed (no fault → no retry, no timeout, no
/// degradation ever triggers).
struct RecoveryConfig {
  /// Total transfer attempts (1 initial + up to N-1 retries).
  int max_transfer_attempts = 4;
  /// First retry backoff; doubles per further retry.
  double retry_backoff_seconds = 50e-6;
  /// Watchdog on fetch() waiting for an in-flight prefetch; past this the
  /// prefetch is abandoned and the fetch transfers synchronously.
  /// <= 0 waits forever (the seed behavior).
  double prefetch_wait_seconds = 2.0;
  /// Walk the pool-exhaustion degradation ladder instead of throwing.
  bool allow_degradation = true;

  void validate() const;
};

class OffloadManager {
 public:
  /// `quant_bits` = 16 stores host tensors in fp16; 4/8 compresses them
  /// with Algorithm 2 at `group_size`.
  OffloadManager(MemoryPool& device_pool, MemoryPool& host_pool,
                 int quant_bits = 16, std::int64_t group_size = 64);

  /// Attach the disk tier: a block store for spilled payloads, owned by
  /// the caller and outliving the manager. Call before registering kDisk
  /// tensors or enabling host→disk demotion. A disk shard's payload is
  /// read inside its fetch or prefetch, so a prefetch one layer ahead
  /// overlaps the disk read with compute too.
  void attach_store(store::BlockStore* store);

  /// Register a tensor under `name` with home `tier`. Device-tier tensors
  /// stay in f32 (compute precision); host-tier tensors are stored fp16 or
  /// quantized; disk-tier tensors are quantized the same way and spilled
  /// to the attached store. Charges the matching pool; on exhaustion walks
  /// the degradation ladder (device: evict staged, demote to host; host:
  /// re-quantize 16→8→4, then spill to disk when a store is attached)
  /// before surfacing ResourceExhausted.
  void register_tensor(const std::string& name, tensor::Tensor value,
                       Tier tier);

  /// Spill the coldest host-tier shards to the attached store until at
  /// least `bytes_needed` host-pool bytes are released (or no cold shard
  /// remains). Shards referenced by an in-flight fetch or prefetch are
  /// skipped. Returns the bytes actually freed. This is the manager's half
  /// of the MemoryPool pressure-callback contract: it never charges the
  /// host pool, only releases.
  std::size_t demote_host_to_disk(std::size_t bytes_needed);

  bool contains(const std::string& name) const;
  Tier tier_of(const std::string& name) const;
  std::size_t stored_bytes(const std::string& name) const;

  /// Fetch for compute: returns an f32 tensor. Host-tier tensors are
  /// "transferred" (counted) and dequantized/upcast on the way. Transient
  /// transfer failures are retried; only an exhausted retry budget throws
  /// TransferError.
  tensor::Tensor fetch(const std::string& name);

  /// Asynchronous prefetch on `pool`: materializes the tensor off-thread
  /// and parks it in a staging slot that the next fetch() of the same name
  /// consumes without re-transferring — the runtime analogue of Algorithm
  /// 1 overlapping load_weight with compute. A prefetch that fails after
  /// retries completes its future *normally* and marks the name so the
  /// next fetch falls back to a synchronous transfer; only contract
  /// violations propagate through the future.
  std::future<void> prefetch(const std::string& name,
                             parallel::ThreadPool& pool);

  /// Legacy stats view, materialized from the telemetry registry via
  /// kOffloadStatsFields. Returns by value: a consistent snapshot, safe to
  /// hold while other threads keep recording.
  OffloadStats stats() const;

  /// The manager's own metrics registry ("offload.*" namespace). Owned per
  /// instance so two managers in one process never mix counters.
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

  int quant_bits() const { return quant_bits_; }

  void set_recovery(const RecoveryConfig& recovery);
  const RecoveryConfig& recovery() const { return recovery_; }

  /// Attach the integrity layer (owned by the caller, typically the
  /// Generator; may be null = no verification). Must be set before weights
  /// are registered so their fingerprints are recorded; host-tier tensors
  /// registered while attached are verified on fetch per the registry's
  /// policy and repaired by re-reading the pristine stored entry.
  void set_integrity(integrity::ChecksumRegistry* registry);

  /// Staging slots currently occupied (prefetched, not yet consumed).
  std::size_t staged_count() const;

  /// Barrier: block until no prefetch is in flight, so a checkpoint never
  /// races a transfer that is still mutating staging state. Returns the
  /// number of in-flight transfers that were waited out.
  std::size_t quiesce();

 private:
  /// Host-resident metadata for a disk-tier entry: everything needed to
  /// rebuild the stored representation bit-exactly from the block store's
  /// payload bytes. Group min/scale stay host-resident (they are
  /// 1/group_size of the payload) so a staged read needs exactly one store
  /// round-trip.
  struct DiskMeta {
    bool is_quantized = false;
    tensor::Shape shape;            ///< original (f32) shape
    int bits = 16;
    std::int64_t group_size = 0;
    std::int64_t padded_numel = 0;
    std::vector<float> group_min;
    std::vector<float> group_scale;
    store::BlockHandle handle;
  };

  struct Entry {
    Tier tier = Tier::kHost;
    // Exactly one of these holds the payload (disk: only metadata here).
    tensor::Tensor plain;                   ///< f32 (device) or f16 (host)
    tensor::QuantizedTensor quantized;      ///< host, compressed
    std::optional<DiskMeta> disk;           ///< disk, spilled
    PoolCharge charge;
    std::uint64_t last_use = 0;  ///< recency for coldest-first demotion
  };

  struct StagedEntry {
    tensor::Tensor value;
    PoolCharge charge;  ///< device-side staging buffer
  };

  /// Upcast or dequantize a stored payload to f32 (dequantization is
  /// timed and traced under `site`).
  tensor::Tensor materialize(const Entry& entry, const char* site);
  /// A copy of the stored payload with bit `bit` flipped: the corrupted
  /// wire copy of an injected bit flip.
  static Entry with_flipped_bit(const Entry& entry, std::int64_t bit);
  /// One transfer with injected faults, bounded-backoff retries and stats
  /// accounting. Called without the manager lock. `name` keys the entry's
  /// integrity fingerprint: arrivals may be bit-flipped by the injector and
  /// are CRC-verified per policy, with corrupt arrivals repaired by
  /// re-reading the pristine stored entry (the weights rung of the repair
  /// ladder) before DataCorruption is thrown.
  tensor::Tensor transfer_with_retries(const Entry& entry,
                                       const std::string& name,
                                       const char* site);
  std::size_t payload_bytes(const Entry& entry) const;
  /// Drop every staging slot (ladder rung); returns freed charge count.
  std::size_t evict_staged_locked();
  /// Park a prefetched value in a staging slot, charging the device pool
  /// (evicting the other slots once if it is full). False when it still
  /// does not fit.
  bool stage_locked(const std::string& name, tensor::Tensor value);
  /// Insert the finished entry under the manager lock.
  void insert_entry(const std::string& name, Entry entry);
  /// Set `entry`'s stored form for `bits`: fp16 at 16, else the
  /// group-wise quantized payload (timed and traced).
  void build_stored_form(Entry& entry, const tensor::Tensor& value, int bits);
  /// Turn a host-form `entry` into a disk-tier entry whose payload lives at
  /// `handle`: keep its description as DiskMeta, drop the payload and the
  /// host-pool charge.
  static void move_to_disk_tier(Entry& entry, store::BlockHandle handle);
  /// Build the stored form per quant_bits_, write the payload to the store
  /// (or adopt a surviving keyed copy) and turn `entry` into a disk-tier
  /// entry, recording the integrity fingerprint. Called without the
  /// manager lock.
  void spill_value_to_disk(const std::string& name, Entry& entry,
                           const tensor::Tensor& value);
  /// Read a disk payload from the store, rebuild the stored representation
  /// and run it through the normal verified host→device transfer. Called
  /// without the manager lock; disk metrics are counted here, host→device
  /// accounting stays with the caller.
  tensor::Tensor fetch_from_disk(const std::string& name,
                                 const DiskMeta& meta, const char* site);

  MemoryPool& device_pool_;
  MemoryPool& host_pool_;
  int quant_bits_;
  std::int64_t group_size_;
  RecoveryConfig recovery_;
  integrity::ChecksumRegistry* integrity_ = nullptr;
  store::BlockStore* store_ = nullptr;  ///< disk tier; optional
  std::uint64_t use_clock_ = 0;  ///< advances on fetch/prefetch (recency)
  std::map<std::string, Entry> entries_;
  std::map<std::string, StagedEntry> staged_;
  /// Names whose Entry is being read outside the lock (sync fetch, prefetch
  /// task, in-progress demotion). Demotion must not mutate such an entry.
  std::map<std::string, int> busy_;
  std::set<std::string> in_flight_;   ///< prefetches not yet staged
  std::set<std::string> failed_;      ///< prefetches that gave up
  std::set<std::string> abandoned_;   ///< timed-out prefetches to discard
  std::condition_variable staged_cv_;
  mutable std::mutex mutex_;

  telemetry::MetricsRegistry metrics_;
  // Hot-path handles into metrics_, resolved once in the constructor
  // (registry lookups take a map find under a mutex; these are lock-free
  // atomic bumps).
  telemetry::Counter* fetches_;
  telemetry::Counter* device_hits_;
  telemetry::Counter* staging_hits_;
  telemetry::Counter* host_transfers_;
  telemetry::Gauge* bytes_host_to_device_;
  telemetry::Gauge* quantize_seconds_;
  telemetry::Gauge* dequantize_seconds_;
  telemetry::Counter* transfer_retries_;
  telemetry::Counter* transfer_failures_;
  telemetry::Counter* prefetch_failures_;
  telemetry::Counter* prefetch_timeouts_;
  telemetry::Counter* sync_fallbacks_;
  telemetry::Counter* prefetch_discards_;
  telemetry::Counter* degradations_;
  telemetry::Counter* staged_evictions_;
  telemetry::Counter* disk_transfers_;
  telemetry::Gauge* bytes_disk_to_host_;
  telemetry::Counter* disk_spills_;
};

}  // namespace lmo::runtime
