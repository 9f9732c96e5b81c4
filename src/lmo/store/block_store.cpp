#include "lmo/store/block_store.hpp"

#include <chrono>
#include <cstring>

#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/checksum.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::store {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void StoreConfig::validate() const {
  LMO_CHECK_GT(block_bytes, 0u);
  LMO_CHECK_GE(max_read_attempts, 1);
  LMO_CHECK_GE(max_write_attempts, 1);
}

BlockStore::BlockStore(std::unique_ptr<StorageBackend> backend,
                       StoreConfig config,
                       telemetry::MetricsRegistry* metrics)
    : backend_(std::move(backend)), config_(config) {
  LMO_CHECK_MSG(backend_ != nullptr, "BlockStore: null backend");
  config_.validate();
  LMO_CHECK_EQ(backend_->block_bytes(), config_.block_bytes);
  if (metrics != nullptr) {
    write_blocks_ = &metrics->counter("store.write.blocks");
    read_blocks_ = &metrics->counter("store.read.blocks");
    write_retries_ = &metrics->counter("store.write.retries");
    read_retries_ = &metrics->counter("store.read.retries");
    torn_writes_ = &metrics->counter("store.fault.torn_writes");
    read_errors_ = &metrics->counter("store.fault.read_errors");
    write_bytes_ = &metrics->gauge("store.write.bytes");
    read_bytes_ = &metrics->gauge("store.read.bytes");
    write_seconds_ = &metrics->gauge("store.write.seconds");
    read_seconds_ = &metrics->gauge("store.read.seconds");
    in_use_gauge_ = &metrics->gauge("store.blocks.in_use");
  }
}

std::uint64_t BlockStore::capacity_blocks() const {
  if (config_.capacity_bytes == 0) return UINT64_MAX;
  return config_.capacity_bytes / config_.block_bytes;
}

std::uint64_t BlockStore::blocks_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_use_;
}

std::uint64_t BlockStore::bytes_in_use() const {
  return blocks_in_use() * config_.block_bytes;
}

void BlockStore::update_usage_gauge() {
  if (in_use_gauge_ != nullptr) {
    in_use_gauge_->set(static_cast<double>(in_use_));
  }
}

std::vector<std::uint32_t> BlockStore::allocate_blocks(std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (in_use_ + count > capacity_blocks()) {
    throw util::ResourceExhausted(
        "BlockStore: allocation of " + std::to_string(count) +
        " blocks exceeds capacity (" + std::to_string(in_use_) + " of " +
        std::to_string(capacity_blocks()) + " in use)");
  }
  std::vector<std::uint32_t> blocks;
  blocks.reserve(count);
  while (blocks.size() < count && !free_.empty()) {
    blocks.push_back(free_.back());
    free_.pop_back();
  }
  while (blocks.size() < count) blocks.push_back(next_block_++);
  block_crc_.resize(next_block_, 0);
  in_use_ += count;
  update_usage_gauge();
  return blocks;
}

void BlockStore::free_blocks(const std::vector<std::uint32_t>& blocks) {
  // Write-ahead: the free record hits the journal (with its fsync barrier)
  // before the in-memory free list changes, so a crash straddling the two
  // can only lose the in-memory half — which dies with the process anyway.
  if (journal_ != nullptr) journal_->record_free(blocks);
  std::lock_guard<std::mutex> lock(mutex_);
  free_.insert(free_.end(), blocks.begin(), blocks.end());
  LMO_CHECK_GE(in_use_, blocks.size());
  in_use_ -= blocks.size();
  update_usage_gauge();
}

void BlockStore::set_journal(std::unique_ptr<BlockJournal> journal) {
  std::lock_guard<std::mutex> lock(mutex_);
  LMO_CHECK_MSG(next_block_ == 0 && in_use_ == 0,
                "BlockStore::set_journal after writes");
  journal_ = std::move(journal);
}

void BlockStore::adopt_state(RecoveredState&& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  LMO_CHECK_MSG(next_block_ == 0 && in_use_ == 0,
                "BlockStore::adopt_state on a non-fresh store");
  next_block_ = state.next_block;
  free_ = std::move(state.free_blocks);
  block_crc_ = std::move(state.block_crc);
  block_crc_.resize(next_block_, 0);
  LMO_CHECK_GE(static_cast<std::uint64_t>(next_block_), free_.size());
  in_use_ = next_block_ - free_.size();
  keyed_.clear();
  for (auto& [key, handle] : state.entries) {
    keyed_.emplace(key, KeyedEntry{handle, /*claimed=*/false});
  }
  update_usage_gauge();
}

std::optional<BlockHandle> BlockStore::adopt(const std::string& key,
                                             std::uint32_t crc,
                                             std::uint64_t bytes) {
  BlockHandle stale;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = keyed_.find(key);
    if (it == keyed_.end()) return std::nullopt;
    if (it->second.handle.crc == crc && it->second.handle.bytes == bytes) {
      it->second.claimed = true;
      return it->second.handle;
    }
    // Same key, different content: the surviving payload is stale. Drop it
    // (outside the lock — free_blocks locks) and let the caller rewrite.
    stale = it->second.handle;
    keyed_.erase(it);
  }
  free_blocks(stale.blocks);
  return std::nullopt;
}

std::size_t BlockStore::release_unclaimed() {
  std::vector<BlockHandle> sweep;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = keyed_.begin(); it != keyed_.end();) {
      if (!it->second.claimed) {
        sweep.push_back(it->second.handle);
        it = keyed_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& handle : sweep) free_blocks(handle.blocks);
  return sweep.size();
}

void BlockStore::write_block_checked(std::uint32_t index,
                                     std::span<const std::byte> block,
                                     std::uint32_t crc) {
  auto& injector = util::FaultInjector::instance();
  injector.maybe_crash(kWriteSite);
  std::vector<std::byte> scratch;
  for (int attempt = 1;; ++attempt) {
    if (injector.should_tear_write(kWriteSite)) {
      // Persist a torn block: only a prefix of sectors reaches the medium
      // (power loss with a volatile write cache). One 4 KiB sector — or
      // half the block for tiny test blocks — survives; a payload that
      // fits inside it is harmlessly intact, matching real torn writes.
      if (torn_writes_ != nullptr) torn_writes_->add();
      std::vector<std::byte> torn(block.begin(), block.end());
      const std::size_t persisted =
          std::min<std::size_t>(4096, torn.size() / 2);
      std::memset(torn.data() + persisted, 0, torn.size() - persisted);
      backend_->write_block(index, torn);
    } else {
      backend_->write_block(index, block);
    }
    if (!config_.verify_writes) return;
    scratch.resize(config_.block_bytes);
    backend_->read_block(index, scratch);
    if (util::crc32(std::span<const std::byte>(scratch)) == crc) return;
    if (attempt >= config_.max_write_attempts) {
      throw util::StorageError(
          "BlockStore: block " + std::to_string(index) +
          " failed write verification after " + std::to_string(attempt) +
          " attempts (" + backend_->describe() + ")");
    }
    if (write_retries_ != nullptr) write_retries_->add();
  }
}

void BlockStore::read_block_checked(std::uint32_t index,
                                    std::span<std::byte> out,
                                    std::uint32_t expected_crc) {
  auto& injector = util::FaultInjector::instance();
  bool read_ok = false;
  for (int attempt = 1; attempt <= config_.max_read_attempts; ++attempt) {
    if (attempt > 1 && read_retries_ != nullptr) read_retries_->add();
    if (injector.should_fail_read(kReadSite)) {
      if (read_errors_ != nullptr) read_errors_->add();
      continue;  // device-level I/O error: retry the read
    }
    backend_->read_block(index, out);
    read_ok = true;
    if (util::crc32(std::span<const std::byte>(out)) == expected_crc) return;
    // Successful read, wrong fingerprint: the corruption may live in the
    // bounce buffer rather than on the medium, so a re-read is worth one
    // more attempt from the budget.
  }
  if (!read_ok) {
    throw util::StorageError(
        "BlockStore: block " + std::to_string(index) + " unreadable after " +
        std::to_string(config_.max_read_attempts) + " attempts (" +
        backend_->describe() + ")");
  }
  throw util::DataCorruption(
      "BlockStore: block " + std::to_string(index) +
      " fingerprint mismatch persists after " +
      std::to_string(config_.max_read_attempts) + " read attempts (" +
      backend_->describe() + ")");
}

BlockHandle BlockStore::put(std::span<const std::byte> payload,
                            const std::string& key) {
  LMO_CHECK_GT(payload.size(), 0u);
  telemetry::ScopedSpan span(telemetry::TraceRecorder::global(),
                             "store_write", "store");
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t bb = config_.block_bytes;
  const std::size_t count = (payload.size() + bb - 1) / bb;
  BlockHandle handle;
  handle.blocks = allocate_blocks(count);
  handle.bytes = payload.size();
  handle.crc = util::crc32(payload);
  // Write-ahead: journal the allocation before any data lands, so a crash
  // anywhere in the loop below leaves blocks the recovery scan can GC as
  // orphans (allocated, never committed).
  if (journal_ != nullptr) journal_->record_alloc(handle.blocks);
  std::vector<std::byte> scratch(bb);
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t off = i * bb;
      const std::uint64_t len = std::min<std::uint64_t>(bb, payload.size() - off);
      std::span<const std::byte> block;
      if (len == bb) {
        block = payload.subspan(off, bb);
      } else {
        // Last, partial block: zero-pad so fingerprints cover whole blocks.
        std::memcpy(scratch.data(), payload.data() + off, len);
        std::memset(scratch.data() + len, 0, bb - len);
        block = scratch;
      }
      const std::uint32_t crc = util::crc32(block);
      write_block_checked(handle.blocks[i], block, crc);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        block_crc_[handle.blocks[i]] = crc;
      }
      if (journal_ != nullptr) journal_->record_write(handle.blocks[i], crc);
      if (write_blocks_ != nullptr) write_blocks_->add();
    }
    if (journal_ != nullptr && !key.empty()) {
      // Durability barrier ordering: block data reaches the medium first,
      // then the commit record (which fsyncs the journal). A crash between
      // the two leaves an uncommitted — hence GC-able — payload, never a
      // committed record pointing at unsynced data.
      backend_->sync();
      journal_->record_commit(key, handle);
    }
  } catch (...) {
    free_blocks(handle.blocks);
    throw;
  }
  if (!key.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    keyed_[key] = KeyedEntry{handle, /*claimed=*/true};
  }
  if (write_bytes_ != nullptr) {
    write_bytes_->add(static_cast<double>(payload.size()));
  }
  if (write_seconds_ != nullptr) write_seconds_->add(seconds_since(start));
  return handle;
}

std::vector<std::byte> BlockStore::get(const BlockHandle& handle) {
  LMO_CHECK_MSG(handle.valid(), "BlockStore::get on an invalid handle");
  telemetry::ScopedSpan span(telemetry::TraceRecorder::global(),
                             "store_read", "store");
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t bb = config_.block_bytes;
  LMO_CHECK_LE(handle.bytes, handle.blocks.size() * bb);
  std::vector<std::byte> out(handle.blocks.size() * bb);
  for (std::size_t i = 0; i < handle.blocks.size(); ++i) {
    std::uint32_t expected = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      LMO_CHECK_LT(handle.blocks[i], block_crc_.size());
      expected = block_crc_[handle.blocks[i]];
    }
    read_block_checked(handle.blocks[i],
                       std::span<std::byte>(out).subspan(i * bb, bb),
                       expected);
    if (read_blocks_ != nullptr) read_blocks_->add();
  }
  out.resize(handle.bytes);
  if (read_bytes_ != nullptr) {
    read_bytes_->add(static_cast<double>(handle.bytes));
  }
  if (read_seconds_ != nullptr) read_seconds_->add(seconds_since(start));
  return out;
}

void BlockStore::release(BlockHandle& handle) {
  if (!handle.valid()) return;
  {
    // Drop any keyed entry naming these blocks so a later recovery scan
    // and the in-memory table agree (the journal's free record already
    // invalidates the commit on replay).
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = keyed_.begin(); it != keyed_.end(); ++it) {
      if (it->second.handle.blocks == handle.blocks) {
        keyed_.erase(it);
        break;
      }
    }
  }
  free_blocks(handle.blocks);
  handle.blocks.clear();
  handle.bytes = 0;
  handle.crc = 0;
}

}  // namespace lmo::store
