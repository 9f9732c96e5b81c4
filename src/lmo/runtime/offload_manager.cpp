#include "lmo/runtime/offload_manager.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <span>
#include <thread>
#include <vector>

#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/checksum.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

constexpr const char* kFetchSite = "offload.fetch.transfer";
constexpr const char* kPrefetchSite = "offload.prefetch.transfer";
// Bit-flip injection on transferred weight payloads. A dedicated site so
// arming flips never perturbs the transient/latency schedules above.
constexpr const char* kWeightsFlipSite = "integrity.weights.flip";

std::string weights_region(const std::string& name) {
  return "weights." + name;
}

std::span<const std::byte> stored_payload_bytes(
    const tensor::Tensor& plain, const tensor::QuantizedTensor& quantized) {
  if (quantized.defined()) {
    const std::vector<std::uint8_t>& payload = quantized.payload();
    return std::as_bytes(
        std::span<const std::uint8_t>(payload.data(), payload.size()));
  }
  return plain.raw();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void sleep_seconds(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

}  // namespace

void RecoveryConfig::validate() const {
  LMO_CHECK_GE(max_transfer_attempts, 1);
  LMO_CHECK_GE(retry_backoff_seconds, 0.0);
}

OffloadManager::OffloadManager(MemoryPool& device_pool, MemoryPool& host_pool,
                               int quant_bits, std::int64_t group_size)
    : device_pool_(device_pool),
      host_pool_(host_pool),
      quant_bits_(quant_bits),
      group_size_(group_size) {
  LMO_CHECK(quant_bits == 16 || quant_bits == 8 || quant_bits == 4);
  // Pre-register every mapped metric so stats() always finds a full set,
  // even before the first fetch.
  for (const OffloadStatsField& field : kOffloadStatsFields) {
    if (field.u64 != nullptr) {
      metrics_.counter(field.metric);
    } else {
      metrics_.gauge(field.metric);
    }
  }
  fetches_ = &metrics_.counter("offload.fetch.total");
  device_hits_ = &metrics_.counter("offload.fetch.device_hits");
  staging_hits_ = &metrics_.counter("offload.fetch.staging_hits");
  host_transfers_ = &metrics_.counter("offload.transfer.total");
  bytes_host_to_device_ =
      &metrics_.gauge("offload.transfer.bytes_host_to_device");
  quantize_seconds_ = &metrics_.gauge("offload.quantize.seconds");
  dequantize_seconds_ = &metrics_.gauge("offload.dequantize.seconds");
  transfer_retries_ = &metrics_.counter("offload.transfer.retries");
  transfer_failures_ = &metrics_.counter("offload.transfer.failures");
  prefetch_failures_ = &metrics_.counter("offload.prefetch.failures");
  prefetch_timeouts_ = &metrics_.counter("offload.prefetch.timeouts");
  sync_fallbacks_ = &metrics_.counter("offload.fetch.sync_fallbacks");
  prefetch_discards_ = &metrics_.counter("offload.prefetch.discards");
  degradations_ = &metrics_.counter("offload.degrade.steps");
  staged_evictions_ = &metrics_.counter("offload.degrade.staged_evictions");
  disk_transfers_ = &metrics_.counter("offload.transfer.disk_total");
  bytes_disk_to_host_ = &metrics_.gauge("offload.transfer.bytes_disk_to_host");
  disk_spills_ = &metrics_.counter("offload.degrade.disk_spills");
}

void OffloadManager::attach_store(store::BlockStore* store) {
  LMO_CHECK_MSG(store != nullptr, "attach_store: null store");
  std::lock_guard<std::mutex> lock(mutex_);
  store_ = store;
}

OffloadStats OffloadManager::stats() const {
  const telemetry::MetricsSnapshot snap = metrics_.snapshot();
  OffloadStats out;
  for (const OffloadStatsField& field : kOffloadStatsFields) {
    if (field.u64 != nullptr) {
      out.*(field.u64) = snap.counter(field.metric);
    } else {
      out.*(field.f64) = snap.gauge(field.metric);
    }
  }
  return out;
}

void OffloadManager::set_recovery(const RecoveryConfig& recovery) {
  recovery.validate();
  std::lock_guard<std::mutex> lock(mutex_);
  recovery_ = recovery;
}

void OffloadManager::set_integrity(integrity::ChecksumRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  LMO_CHECK_MSG(entries_.empty(),
                "set_integrity must precede weight registration so every "
                "host shard gets a fingerprint");
  integrity_ = registry;
}

std::size_t OffloadManager::staged_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return staged_.size();
}

std::size_t OffloadManager::quiesce() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t waited = in_flight_.size();
  staged_cv_.wait(lock, [&] { return in_flight_.empty(); });
  return waited;
}

std::size_t OffloadManager::evict_staged_locked() {
  const std::size_t n = staged_.size();
  staged_.clear();  // StagedEntry charges release their device-pool bytes
  return n;
}

void OffloadManager::insert_entry(const std::string& name, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entry.last_use = use_clock_++;
  const bool inserted = entries_.emplace(name, std::move(entry)).second;
  LMO_CHECK_MSG(inserted, "duplicate tensor name: " + name);
}

void OffloadManager::build_stored_form(Entry& entry,
                                       const tensor::Tensor& value, int bits) {
  if (bits == 16) {
    entry.plain = value.cast(tensor::DType::kF16);
    entry.quantized = tensor::QuantizedTensor();
    return;
  }
  telemetry::ScopedSpan span(telemetry::TraceRecorder::global(), "quantize",
                             "offload");
  const auto start = std::chrono::steady_clock::now();
  entry.quantized =
      tensor::quantize(value, tensor::QuantConfig{bits, group_size_});
  quantize_seconds_->add(seconds_since(start));
  entry.plain = tensor::Tensor();
}

void OffloadManager::move_to_disk_tier(Entry& entry,
                                       store::BlockHandle handle) {
  DiskMeta meta;
  meta.handle = std::move(handle);
  if (entry.quantized.defined()) {
    const tensor::QuantizedTensor& q = entry.quantized;
    meta.is_quantized = true;
    meta.shape = q.original_shape();
    meta.bits = q.bits();
    meta.group_size = q.group_size();
    meta.padded_numel = q.padded_numel();
    meta.group_min = q.group_min();
    meta.group_scale = q.group_scale();
  } else {
    meta.shape = entry.plain.shape();
  }
  entry.plain = tensor::Tensor();
  entry.quantized = tensor::QuantizedTensor();
  entry.charge = PoolCharge();  // releases any host-pool bytes
  entry.disk = std::move(meta);
  entry.tier = Tier::kDisk;
}

void OffloadManager::spill_value_to_disk(const std::string& name,
                                         Entry& entry,
                                         const tensor::Tensor& value) {
  LMO_CHECK_MSG(store_ != nullptr,
                "disk tier for \"" + name + "\" requires attach_store()");
  build_stored_form(entry, value, quant_bits_);
  const std::span<const std::byte> payload =
      stored_payload_bytes(entry.plain, entry.quantized);
  // Crash recovery: when a journaled store survived a kill with this exact
  // payload already committed under our key, adopt the surviving blocks
  // instead of rewriting them — the spill becomes free and the journal
  // stays compact. (Deterministic re-registration makes hits the common
  // case: the recovered process quantizes identical bytes.)
  const std::uint32_t payload_crc = util::crc32(payload);
  store::BlockHandle handle;
  if (auto adopted = store_->adopt(name, payload_crc, payload.size())) {
    handle = *adopted;
    metrics_.counter("recover.adopted.payloads").add();
  } else {
    handle = store_->put(payload, name);
  }
  // Fingerprint the *stored* payload: the store returns these exact bytes,
  // so the normal host→device arrival verification applies unchanged.
  if (integrity_ != nullptr && integrity_->enabled()) {
    integrity_->record(weights_region(name), payload_crc);
  }
  move_to_disk_tier(entry, std::move(handle));
}

void OffloadManager::register_tensor(const std::string& name,
                                     tensor::Tensor value, Tier tier) {
  LMO_CHECK(value.defined());
  LMO_CHECK(value.dtype() == tensor::DType::kF32);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LMO_CHECK_MSG(entries_.count(name) == 0,
                  "duplicate tensor name: " + name);
  }
  // Pool charges run *without* the manager lock: charging may fire the
  // pool's pressure callbacks, and those may re-enter the manager (the
  // Generator registers demote_host_to_disk as host-pool relief).

  Entry entry;
  entry.tier = tier;
  if (tier == Tier::kDevice) {
    entry.plain = value;
    try {
      entry.charge = PoolCharge(device_pool_, entry.plain.byte_size());
      insert_entry(name, std::move(entry));
      return;
    } catch (const util::ResourceExhausted&) {
      if (!recovery_.allow_degradation) throw;
      // Ladder rung 1: reclaim device-side staging buffers and retry.
      std::lock_guard<std::mutex> lock(mutex_);
      staged_evictions_->add(evict_staged_locked());
    }
    try {
      entry.charge = PoolCharge(device_pool_, entry.plain.byte_size());
      insert_entry(name, std::move(entry));
      return;
    } catch (const util::ResourceExhausted&) {
      // Ladder rung 2: demote to the host tier (streamed on fetch).
      degradations_->add();
      entry.plain = tensor::Tensor();
      entry.tier = Tier::kHost;
    }
  }

  if (entry.tier == Tier::kDisk) {
    spill_value_to_disk(name, entry, value);
    insert_entry(name, std::move(entry));
    return;
  }

  // Host tier (possibly after demotion): fp16 → 8-bit → 4-bit ladder, then
  // spill to the disk tier when a store is attached.
  int bits = quant_bits_;
  for (;;) {
    try {
      build_stored_form(entry, value, bits);
      entry.charge = PoolCharge(host_pool_, payload_bytes(entry));
      break;
    } catch (const util::ResourceExhausted&) {
      const int next = bits == 16 ? 8 : bits == 8 ? 4 : 0;
      if (recovery_.allow_degradation && next != 0) {
        degradations_->add();
        bits = next;
        continue;
      }
      if (recovery_.allow_degradation && store_ != nullptr) {
        // Final rung: the host pool cannot hold this shard at any
        // precision — spill it to the disk tier instead of throwing.
        degradations_->add();
        disk_spills_->add();
        spill_value_to_disk(name, entry, value);
        insert_entry(name, std::move(entry));
        return;
      }
      throw;
    }
  }
  // Fingerprint the stored payload at offload time; fetches re-check it
  // per the integrity policy. Device-tier entries (early returns above)
  // never cross the bus, so only host shards are recorded.
  if (integrity_ != nullptr && integrity_->enabled()) {
    integrity_->record(weights_region(name),
                       util::crc32(stored_payload_bytes(entry.plain,
                                                        entry.quantized)));
  }
  insert_entry(name, std::move(entry));
}

bool OffloadManager::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) != 0;
}

Tier OffloadManager::tier_of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  LMO_CHECK_MSG(it != entries_.end(), "unknown tensor: " + name);
  return it->second.tier;
}

std::size_t OffloadManager::stored_bytes(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  LMO_CHECK_MSG(it != entries_.end(), "unknown tensor: " + name);
  return payload_bytes(it->second);
}

std::size_t OffloadManager::payload_bytes(const Entry& entry) const {
  if (entry.disk.has_value()) {
    return static_cast<std::size_t>(entry.disk->handle.bytes);
  }
  return entry.quantized.defined() ? entry.quantized.byte_size()
                                   : entry.plain.byte_size();
}

tensor::Tensor OffloadManager::materialize(const Entry& entry,
                                           const char* site) {
  // Host → device transfer of the stored payload. Entries are immutable
  // after registration, so this runs without the manager lock; stats are
  // updated by the caller under the lock.
  if (!entry.quantized.defined()) {
    return entry.plain.cast(tensor::DType::kF32);
  }
  const auto start = std::chrono::steady_clock::now();
  telemetry::ScopedSpan dq_span(telemetry::TraceRecorder::global(),
                                "dequantize", site);
  tensor::Tensor value = tensor::dequantize(entry.quantized);
  dequantize_seconds_->add(seconds_since(start));
  return value;
}

OffloadManager::Entry OffloadManager::with_flipped_bit(const Entry& entry,
                                                       std::int64_t bit) {
  const auto byte = static_cast<std::size_t>(bit / 8);
  const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
  Entry wire;
  if (entry.quantized.defined()) {
    const tensor::QuantizedTensor& q = entry.quantized;
    std::vector<std::uint8_t> payload = q.payload();
    payload[byte] ^= mask;
    wire.quantized = tensor::QuantizedTensor::from_parts(
        q.original_shape(), tensor::QuantConfig{q.bits(), q.group_size()},
        q.padded_numel(), std::move(payload), q.group_min(), q.group_scale());
  } else {
    wire.plain = entry.plain.clone();
    wire.plain.raw()[byte] ^= static_cast<std::byte>(mask);
  }
  return wire;
}

tensor::Tensor OffloadManager::transfer_with_retries(const Entry& entry,
                                                     const std::string& name,
                                                     const char* site) {
  // The runtime analogue of Algorithm 1's load_weight task; the span makes
  // prefetch/compute overlap visible in chrome://tracing.
  telemetry::ScopedSpan span(telemetry::TraceRecorder::global(), "load_weight",
                             site);
  auto& injector = util::FaultInjector::instance();
  double backoff = recovery_.retry_backoff_seconds;
  std::int64_t repairs = 0;
  for (int attempt = 1;; ++attempt) {
    if (injector.enabled()) {
      sleep_seconds(injector.injected_delay(site));  // bandwidth spike
      if (injector.should_fail(site)) {
        if (attempt >= recovery_.max_transfer_attempts) {
          transfer_failures_->add();
          throw util::TransferError(
              std::string("transient transfer failure at ") + site +
              ", retry budget exhausted after " + std::to_string(attempt) +
              " attempts");
        }
        transfer_retries_->add();
        {
          telemetry::ScopedSpan retry_span(telemetry::TraceRecorder::global(),
                                           "retry_backoff", site);
          sleep_seconds(backoff);
        }
        backoff *= 2.0;
        continue;
      }
    }
    // The payload has "arrived". Under chaos the wire may silently flip a
    // bit: the arrival is then a corrupted copy, realized only on this rare
    // path. The flip domain is the fingerprinted payload span —
    // payload_bytes() also counts quantization metadata the wire copy does
    // not carry.
    const std::int64_t flip =
        injector.enabled()
            ? injector.corrupt_bit(
                  kWeightsFlipSite,
                  8 * static_cast<std::uint64_t>(
                          stored_payload_bytes(entry.plain, entry.quantized)
                              .size()))
            : -1;
    Entry flipped;
    if (flip >= 0) flipped = with_flipped_bit(entry, flip);
    const Entry& arrived = flip >= 0 ? flipped : entry;
    // Under an integrity policy the arrival is fingerprint-checked. An
    // unverified flip propagates silently, exactly like real bit rot under
    // verify=off (or an unsampled load).
    if (integrity_ != nullptr && integrity_->enabled() &&
        integrity_->should_verify(weights_region(name)) &&
        !integrity_->verify(
            weights_region(name),
            stored_payload_bytes(arrived.plain, arrived.quantized))) {
      // Weights rung of the repair ladder: the stored entry is the
      // pristine source, so a re-fetch (another trip around the loop)
      // delivers clean bytes unless the injector corrupts again.
      if (repairs++ >= integrity_->config().max_repair_attempts) {
        integrity_->note_unrepairable();
        throw util::DataCorruption(
            "weight shard \"" + name + "\" failed verification after " +
            std::to_string(repairs) + " re-fetch attempts at " + site);
      }
      integrity_->note_repair(integrity::RepairKind::kRefetch);
      telemetry::ScopedSpan repair_span(telemetry::TraceRecorder::global(),
                                        "repair.refetch", "integrity");
      continue;
    }
    return materialize(arrived, site);
  }
}

tensor::Tensor OffloadManager::fetch_from_disk(const std::string& name,
                                               const DiskMeta& meta,
                                               const char* site) {
  std::vector<std::byte> bytes;
  {
    // The disk leg of load_weight, the runtime analogue of the estimator's
    // load_weight_disk task. On the prefetch path it runs one layer ahead
    // of compute, inside the same pool task as the host→device leg.
    telemetry::ScopedSpan span(telemetry::TraceRecorder::global(),
                               "load_weight_disk", site);
    bytes = store_->get(meta.handle);
  }
  disk_transfers_->add();
  bytes_disk_to_host_->add(static_cast<double>(bytes.size()));
  // Rebuild the stored representation bit-exactly, then ride the normal
  // verified host→device transfer: injected transients, bit flips and the
  // integrity repair ladder behave exactly as for a host-tier shard.
  Entry temp;
  temp.tier = Tier::kHost;
  if (meta.is_quantized) {
    std::vector<std::uint8_t> payload(bytes.size());
    std::memcpy(payload.data(), bytes.data(), bytes.size());
    temp.quantized = tensor::QuantizedTensor::from_parts(
        meta.shape, tensor::QuantConfig{meta.bits, meta.group_size},
        meta.padded_numel, std::move(payload), meta.group_min,
        meta.group_scale);
  } else {
    tensor::Tensor f16(meta.shape, tensor::DType::kF16);
    LMO_CHECK_EQ(f16.raw().size(), bytes.size());
    std::memcpy(f16.raw().data(), bytes.data(), bytes.size());
    temp.plain = std::move(f16);
  }
  return transfer_with_retries(temp, name, site);
}

std::size_t OffloadManager::demote_host_to_disk(std::size_t bytes_needed) {
  if (store_ == nullptr || bytes_needed == 0) return 0;
  std::size_t freed = 0;
  while (freed < bytes_needed) {
    // Pick the coldest host-tier shard nobody is currently reading.
    std::string victim;
    Entry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::uint64_t coldest = UINT64_MAX;
      for (auto& [name, e] : entries_) {
        if (e.tier != Tier::kHost) continue;
        if (busy_.count(name) != 0 || in_flight_.count(name) != 0) continue;
        if (e.last_use < coldest) {
          coldest = e.last_use;
          victim = name;
          entry = &e;
        }
      }
      if (entry == nullptr) break;  // nothing demotable left
      ++busy_[victim];  // pin: other demoters skip it while we write
    }
    // Write the stored representation to disk as-is (no requantization:
    // the payload — and its integrity fingerprint — stay bit-identical).
    // Concurrent fetches of the victim may still read it; they see the
    // host tier until the flip below, which is fine — reads are const.
    store::BlockHandle handle;
    bool stored = false;
    try {
      handle = store_->put(
          stored_payload_bytes(entry->plain, entry->quantized));
      stored = true;
    } catch (const util::ResourceExhausted&) {
      // Store at capacity: demotion cannot help any further.
    } catch (const util::StorageError&) {
      // Unwritable block after retries: keep the shard host-resident.
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const bool contended = busy_[victim] > 1;
    if (--busy_[victim] == 0) busy_.erase(victim);
    if (!stored) break;
    if (contended) {
      // A fetch/prefetch began reading the victim mid-write; its Entry
      // must not change under it. Undo and try another candidate.
      store_->release(handle);
      continue;
    }
    const std::size_t released = entry->charge.bytes();
    move_to_disk_tier(*entry, std::move(handle));
    freed += released;
    disk_spills_->add();
    degradations_->add();
  }
  return freed;
}

tensor::Tensor OffloadManager::fetch(const std::string& name) {
  const Entry* entry = nullptr;
  std::optional<DiskMeta> disk;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    LMO_CHECK_MSG(it != entries_.end(), "unknown tensor: " + name);
    fetches_->add();
    it->second.last_use = use_clock_++;
    entry = &it->second;
    if (entry->tier == Tier::kDevice) {
      device_hits_->add();
      return entry->plain;  // already f32, shared storage
    }
    // An in-flight prefetch of this tensor will stage it shortly; waiting
    // is cheaper than a duplicate transfer — but only up to the watchdog:
    // a hung prefetch must not stall decode forever.
    bool fallback = false;
    if (in_flight_.count(name) != 0) {
      const auto ready = [&] { return in_flight_.count(name) == 0; };
      if (recovery_.prefetch_wait_seconds > 0.0) {
        if (!staged_cv_.wait_for(
                lock,
                std::chrono::duration<double>(recovery_.prefetch_wait_seconds),
                ready)) {
          prefetch_timeouts_->add();
          abandoned_.insert(name);  // late result will be discarded
          fallback = true;
        }
      } else {
        staged_cv_.wait(lock, ready);
      }
    }
    auto staged = staged_.find(name);
    if (staged != staged_.end()) {
      tensor::Tensor value = std::move(staged->second.value);
      staged_.erase(staged);  // releases the device-side staging charge
      staging_hits_->add();
      return value;
    }
    if (failed_.erase(name) != 0) fallback = true;
    if (fallback) sync_fallbacks_->add();
    // Decide the transfer path under the lock: the tier may have changed
    // (host→disk demotion) while we waited on the condition variable.
    if (it->second.tier == Tier::kDisk) {
      disk = *it->second.disk;  // copy: the handle/meta stay stable
    } else {
      ++busy_[name];  // pin the entry against demotion while we read it
    }
  }
  if (disk.has_value()) {
    tensor::Tensor value = fetch_from_disk(name, *disk, kFetchSite);
    bytes_host_to_device_->add(static_cast<double>(disk->handle.bytes));
    host_transfers_->add();
    return value;
  }
  // Synchronous transfer (cold fetch, or recovery after a failed / hung
  // prefetch). Bytes are charged only once the transfer succeeds.
  tensor::Tensor value;
  try {
    value = transfer_with_retries(*entry, name, kFetchSite);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_[name] == 0) busy_.erase(name);
    throw;
  }
  const auto moved = static_cast<double>(payload_bytes(*entry));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_[name] == 0) busy_.erase(name);
  }
  bytes_host_to_device_->add(moved);
  host_transfers_->add();
  return value;
}

std::future<void> OffloadManager::prefetch(const std::string& name,
                                           parallel::ThreadPool& pool) {
  // Claim the in-flight slot at submit time so a concurrent fetch() of the
  // same name waits for this load instead of duplicating the transfer.
  const Entry* entry = nullptr;
  std::optional<DiskMeta> disk;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    LMO_CHECK_MSG(it != entries_.end(), "unknown tensor: " + name);
    entry = &it->second;
    if (entry->tier == Tier::kDevice || staged_.count(name) != 0 ||
        in_flight_.count(name) != 0) {
      std::promise<void> done;
      done.set_value();
      return done.get_future();
    }
    it->second.last_use = use_clock_++;
    if (it->second.tier == Tier::kDisk) disk = *it->second.disk;
    in_flight_.insert(name);
    ++busy_[name];  // pin against demotion for the task's lifetime
  }
  return pool.submit([this, name, entry, disk] {
    std::optional<tensor::Tensor> value;
    std::exception_ptr violation;
    try {
      value = disk.has_value()
                  ? fetch_from_disk(name, *disk, kPrefetchSite)
                  : transfer_with_retries(*entry, name, kPrefetchSite);
    } catch (const util::DataCorruption&) {
      // Unrepairable arrival on the *prefetch* path still has a recovery
      // rung: the next fetch() transfers synchronously with its own repair
      // budget. Only a sync fetch's corruption propagates to the caller.
    } catch (const util::TransferError&) {
      // Retry budget exhausted (a StorageError from the disk leg included):
      // recover by falling back, not by failing the load — the next
      // fetch() transfers synchronously.
    } catch (...) {
      // Contract violations keep the seed's fail-fast semantics.
      violation = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // A fetch that timed out waiting for us already recovered
      // synchronously; a late result is dropped.
      const bool abandoned = abandoned_.erase(name) != 0;
      bool failed = !value.has_value() && violation == nullptr;
      if (value.has_value()) {
        // The payload moved over the bus whether or not anyone still wants
        // it; account the traffic at transfer success, exactly once.
        bytes_host_to_device_->add(static_cast<double>(
            disk.has_value() ? disk->handle.bytes : payload_bytes(*entry)));
        host_transfers_->add();
        if (abandoned) {
          prefetch_discards_->add();
        } else {
          failed = !stage_locked(name, std::move(*value));
        }
      }
      if (failed) {
        prefetch_failures_->add();
        if (!abandoned) failed_.insert(name);  // next fetch falls back
      }
      in_flight_.erase(name);
      auto b = busy_.find(name);
      if (b != busy_.end() && --b->second == 0) busy_.erase(b);
    }
    staged_cv_.notify_all();
    if (violation) std::rethrow_exception(violation);
  });
}

bool OffloadManager::stage_locked(const std::string& name,
                                  tensor::Tensor value) {
  StagedEntry staged;
  staged.value = std::move(value);
  const std::size_t bytes = staged.value.byte_size();
  try {
    staged.charge = PoolCharge(device_pool_, bytes);
  } catch (const util::ResourceExhausted&) {
    // Staging buffers are reclaimable: evict and retry once.
    staged_evictions_->add(evict_staged_locked());
    try {
      staged.charge = PoolCharge(device_pool_, bytes);
    } catch (const util::ResourceExhausted&) {
      return false;
    }
  }
  failed_.erase(name);
  staged_.emplace(name, std::move(staged));
  return true;
}

}  // namespace lmo::runtime
