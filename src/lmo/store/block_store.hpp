// File-backed block store for the disk spill tier.
//
// Payloads (quantized or fp16 weight shards) are striped across fixed-size
// blocks drawn from a free list, each fingerprinted with the tree-wide
// CRC-32 at write time. Reads verify every block against its recorded
// fingerprint, so the disk tier detects silent corruption with the same
// primitive the host tier uses (lmo/integrity).
//
// Failure handling is bounded and typed:
//   * torn writes  — a write-verify read-back catches a block whose tail
//                    never reached stable storage; the block is rewritten
//                    up to max_write_attempts times, then StorageError.
//                    Verification happens at *write* time because spilling
//                    drops the pristine host copy: a torn block discovered
//                    at read time would be unrecoverable.
//   * read errors  — device-level I/O failures retry up to
//                    max_read_attempts, then StorageError (a TransferError
//                    subtype, so prefetch fallbacks handle it unchanged).
//   * corruption   — a CRC mismatch after successful reads re-reads (the
//                    corruption may be in the bounce buffer), then raises
//                    DataCorruption for the integrity layer to repair.
//
// Both fault classes are injectable through util::FaultInjector at the
// "store.write.io" / "store.read.io" sites, which is what the
// `lmo chaos --profile diskfault` drill arms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lmo/store/storage_backend.hpp"

namespace lmo::telemetry {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace lmo::telemetry

namespace lmo::store {

struct StoreConfig {
  /// Fixed block size; every allocation is a whole number of blocks.
  std::uint64_t block_bytes = 256 * 1024;
  /// Capacity ceiling in bytes (rounded down to whole blocks); 0 = unbounded.
  std::uint64_t capacity_bytes = 0;
  /// Bounded retry budgets; both must be >= 1.
  int max_read_attempts = 4;
  int max_write_attempts = 4;
  /// Read back and CRC-verify every block after writing it. This is what
  /// turns a torn write from latent data loss into a retried write; leave
  /// it on unless the medium is trusted end-to-end.
  bool verify_writes = true;

  void validate() const;
};

/// Receipt for one stored payload: the blocks it occupies, its exact byte
/// length (the last block is zero-padded), and a whole-payload CRC-32 for
/// cross-checks by the integrity layer.
struct BlockHandle {
  std::vector<std::uint32_t> blocks;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;

  bool valid() const { return !blocks.empty(); }
};

/// Write-ahead manifest hook. The store notifies the journal *before*
/// mutating durable state (write-ahead), and the journal's commit/free
/// records double as fsync barriers: record_commit must not return until
/// both the record and every block write it names are on stable storage.
/// Implemented by recover::WalManifest; the store never depends on the
/// recover library, only on this interface.
class BlockJournal {
 public:
  virtual ~BlockJournal() = default;
  /// Blocks handed out by the allocator (not yet durable, not yet data).
  virtual void record_alloc(const std::vector<std::uint32_t>& blocks) = 0;
  /// One block's payload was written; `crc` fingerprints the padded block.
  virtual void record_write(std::uint32_t block, std::uint32_t crc) = 0;
  /// A whole keyed payload is durable. Barrier: fsyncs the journal (the
  /// store syncs the data backend first).
  virtual void record_commit(const std::string& key, const BlockHandle& handle) = 0;
  /// Blocks returned to the free list. Barrier.
  virtual void record_free(const std::vector<std::uint32_t>& blocks) = 0;
};

/// Everything the recovery scan reconstructs from a surviving journal —
/// installed into a fresh BlockStore with adopt_state() before any put().
struct RecoveredState {
  std::uint32_t next_block = 0;            ///< high-water mark
  std::vector<std::uint32_t> free_blocks;  ///< allocatable indices
  std::vector<std::uint32_t> block_crc;    ///< fingerprint per block index
  std::map<std::string, BlockHandle> entries;  ///< committed keyed payloads
};

class BlockStore {
 public:
  /// Fault-injection sites (see util/fault.hpp).
  static constexpr const char* kWriteSite = "store.write.io";
  static constexpr const char* kReadSite = "store.read.io";

  /// `metrics` may be null (no instrumentation); when provided, the store
  /// exports the store.* families listed in docs/offload_tiers.md.
  BlockStore(std::unique_ptr<StorageBackend> backend, StoreConfig config,
             telemetry::MetricsRegistry* metrics = nullptr);

  /// Stripe `payload` across freshly-allocated blocks. Throws
  /// ResourceExhausted when the capacity ceiling would be exceeded (no
  /// blocks leak), StorageError when a block cannot be persisted within
  /// the write budget. A non-empty `key` names the payload in the journal
  /// (and in a recovered store's entry table) so a restarted process can
  /// re-adopt it instead of rewriting.
  BlockHandle put(std::span<const std::byte> payload,
                  const std::string& key = {});

  /// Read back a stored payload, verifying every block's fingerprint.
  std::vector<std::byte> get(const BlockHandle& handle);

  /// Return the handle's blocks to the free list and invalidate it.
  /// Releasing an invalid handle is a no-op.
  void release(BlockHandle& handle);

  std::uint64_t blocks_in_use() const;
  std::uint64_t bytes_in_use() const;  ///< blocks_in_use * block_bytes
  /// Whole blocks the capacity ceiling admits; UINT64_MAX when unbounded.
  std::uint64_t capacity_blocks() const;

  // ---- crash recovery ----------------------------------------------------

  /// Attach (and own) a write-ahead manifest. Must be set before the first
  /// put(); every subsequent mutation is journaled write-ahead.
  void set_journal(std::unique_ptr<BlockJournal> journal);
  bool journaled() const { return journal_ != nullptr; }
  /// The attached manifest, if any — RecoveryManager downcasts it to stamp
  /// epoch records at checkpoint boundaries.
  BlockJournal* journal() { return journal_.get(); }

  /// Install the state a recovery scan reconstructed. Must run before any
  /// put(); every recovered entry starts unclaimed until adopt()ed.
  void adopt_state(RecoveredState&& state);

  /// Claim a recovered payload: if `key` survived with this exact byte
  /// length and whole-payload CRC, return its handle (no I/O, no rewrite).
  /// A mismatch — the spiller changed content — frees the stale blocks and
  /// returns nullopt so the caller re-put()s.
  std::optional<BlockHandle> adopt(const std::string& key, std::uint32_t crc,
                                   std::uint64_t bytes);

  /// Free every recovered entry that was never adopt()ed (the dead process
  /// spilled tensors this incarnation keeps in RAM). Returns how many
  /// entries were swept; after this, blocks_in_use() counts live data only.
  std::size_t release_unclaimed();

  const StoreConfig& config() const { return config_; }
  const StorageBackend& backend() const { return *backend_; }

 private:
  std::vector<std::uint32_t> allocate_blocks(std::size_t count);
  void free_blocks(const std::vector<std::uint32_t>& blocks);
  /// Write + (optionally) verify one block; bounded by max_write_attempts.
  void write_block_checked(std::uint32_t index,
                           std::span<const std::byte> block,
                           std::uint32_t crc);
  /// Read + CRC-verify one block; bounded by max_read_attempts.
  void read_block_checked(std::uint32_t index, std::span<std::byte> out,
                          std::uint32_t expected_crc);
  void update_usage_gauge();

  std::unique_ptr<StorageBackend> backend_;
  StoreConfig config_;
  std::unique_ptr<BlockJournal> journal_;

  /// Keyed payloads: committed handles plus whether this process has
  /// claimed them (adopt() or a keyed put()). Unclaimed entries are
  /// recovered leftovers awaiting adopt()/release_unclaimed().
  struct KeyedEntry {
    BlockHandle handle;
    bool claimed = false;
  };

  mutable std::mutex mutex_;          ///< free list + per-block CRC table
  std::vector<std::uint32_t> free_;   ///< released block indices
  std::uint32_t next_block_ = 0;      ///< high-water mark
  std::uint64_t in_use_ = 0;
  std::vector<std::uint32_t> block_crc_;  ///< fingerprint per block index
  std::map<std::string, KeyedEntry> keyed_;

  // Hot-path metric handles; null when no registry was supplied.
  telemetry::Counter* write_blocks_ = nullptr;
  telemetry::Counter* read_blocks_ = nullptr;
  telemetry::Counter* write_retries_ = nullptr;
  telemetry::Counter* read_retries_ = nullptr;
  telemetry::Counter* torn_writes_ = nullptr;
  telemetry::Counter* read_errors_ = nullptr;
  telemetry::Gauge* write_bytes_ = nullptr;
  telemetry::Gauge* read_bytes_ = nullptr;
  telemetry::Gauge* write_seconds_ = nullptr;
  telemetry::Gauge* read_seconds_ = nullptr;
  telemetry::Gauge* in_use_gauge_ = nullptr;
};

}  // namespace lmo::store
