// Tests for the disk spill tier (lmo/store): storage backends, the
// block store's free list / capacity / bounded fault recovery, and the
// OffloadManager + Generator integration — the disk leg of fetch and of
// the layer-ahead prefetch, and the acceptance claim that a model which
// does not fit device+host completes via disk spill with byte-identical
// tokens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "lmo/model/memory.hpp"
#include "lmo/parallel/threadpool.hpp"
#include "lmo/perfmodel/policy.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/runtime/offload_manager.hpp"
#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/store/block_store.hpp"
#include "lmo/store/storage_backend.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/rng.hpp"
#include "lmo/util/status.hpp"
#include "lmo/util/tempdir.hpp"

namespace {

using namespace lmo;
using runtime::Generator;
using runtime::MemoryPool;
using runtime::OffloadManager;
using runtime::RuntimeConfig;
using runtime::Tier;
using store::BlockHandle;
using store::BlockStore;
using store::FileBackend;
using store::MemoryBackend;
using store::StoreConfig;

std::vector<std::byte> random_payload(std::size_t bytes, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::byte> payload(bytes);
  for (auto& b : payload) b = static_cast<std::byte>(rng() & 0xff);
  return payload;
}

std::uint64_t counter(const telemetry::MetricsRegistry& metrics,
                      const std::string& name) {
  const auto snap = metrics.snapshot();
  const auto* sample = snap.find(name);
  return sample == nullptr ? 0 : sample->count;
}

// ---------------------------------------------------------------- tempdir --

TEST(TempDir, CreatesUniqueDirAndRemovesRecursively) {
  std::string path;
  {
    util::TempDir dir("store_test");
    path = dir.path();
    EXPECT_NE(path.find("store_test"), std::string::npos);

    // Two dirs from the same prefix never collide.
    util::TempDir other("store_test");
    EXPECT_NE(other.path(), path);

    // file() joins inside the dir; the file is really writable.
    std::FILE* f = std::fopen(dir.file("x.bin").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("payload", f);
    std::fclose(f);
  }
  // The directory (and the file inside) are gone after destruction.
  std::FILE* gone = std::fopen((path + "/x.bin").c_str(), "rb");
  EXPECT_EQ(gone, nullptr);
  if (gone != nullptr) std::fclose(gone);
}

// --------------------------------------------------------------- backends --

TEST(StorageBackend, MemoryRoundTripsBlocks) {
  MemoryBackend backend(4096);
  const auto a = random_payload(4096, 1);
  const auto b = random_payload(4096, 2);
  backend.write_block(0, a);
  backend.write_block(7, b);  // sparse index is fine
  std::vector<std::byte> out(4096);
  backend.read_block(7, out);
  EXPECT_EQ(out, b);
  backend.read_block(0, out);
  EXPECT_EQ(out, a);
  EXPECT_EQ(backend.describe(), "memory");
}

TEST(StorageBackend, FileRoundTripsAndOverwrites) {
  util::TempDir dir("store_test");
  FileBackend backend(dir.file("blocks.bin"), 4096);
  const auto a = random_payload(4096, 3);
  const auto b = random_payload(4096, 4);
  backend.write_block(2, a);
  std::vector<std::byte> out(4096);
  backend.read_block(2, out);
  EXPECT_EQ(out, a);
  backend.write_block(2, b);  // in-place overwrite
  backend.read_block(2, out);
  EXPECT_EQ(out, b);
  EXPECT_NE(backend.describe().find("file:"), std::string::npos);
}

// ------------------------------------------------------------- blockstore --

StoreConfig small_config(std::uint64_t block_bytes = 4096,
                         std::uint64_t capacity = 0) {
  StoreConfig config;
  config.block_bytes = block_bytes;
  config.capacity_bytes = capacity;
  return config;
}

TEST(BlockStore, PutGetRoundTripsAcrossBlocks) {
  const auto config = small_config();
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config);
  // 2.5 blocks: exercises striping plus last-block truncation.
  const auto payload = random_payload(4096 * 2 + 2048, 5);
  BlockHandle handle = store.put(payload);
  EXPECT_EQ(handle.blocks.size(), 3u);
  EXPECT_EQ(handle.bytes, payload.size());
  EXPECT_NE(handle.crc, 0u);
  EXPECT_EQ(store.blocks_in_use(), 3u);
  EXPECT_EQ(store.get(handle), payload);
  store.release(handle);
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(store.blocks_in_use(), 0u);
}

TEST(BlockStore, FreeListReusesReleasedBlocks) {
  const auto config = small_config();
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config);
  const auto first = random_payload(4096 * 2, 6);
  BlockHandle a = store.put(first);
  std::vector<std::uint32_t> blocks = a.blocks;
  std::sort(blocks.begin(), blocks.end());
  store.release(a);

  // A same-size put draws from the free list, not the high-water mark.
  const auto second = random_payload(4096 * 2, 7);
  BlockHandle b = store.put(second);
  std::vector<std::uint32_t> reused = b.blocks;
  std::sort(reused.begin(), reused.end());
  EXPECT_EQ(reused, blocks);
  EXPECT_EQ(store.get(b), second);
  store.release(b);
}

TEST(BlockStore, CapacityExhaustionLeaksNoBlocks) {
  const auto config = small_config(4096, 2 * 4096);
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config);
  EXPECT_EQ(store.capacity_blocks(), 2u);
  EXPECT_THROW(store.put(random_payload(3 * 4096, 8)),
               util::ResourceExhausted);
  EXPECT_EQ(store.blocks_in_use(), 0u);  // the failed put leaked nothing
  // The ceiling itself is still usable.
  BlockHandle ok = store.put(random_payload(2 * 4096, 9));
  EXPECT_EQ(store.blocks_in_use(), 2u);
  store.release(ok);
}

TEST(BlockStore, ReleasingInvalidHandleIsNoOp) {
  const auto config = small_config();
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config);
  BlockHandle empty;
  store.release(empty);  // must not throw
  EXPECT_EQ(store.blocks_in_use(), 0u);
}

// ------------------------------------------------------- fault injection  --

TEST(BlockStore, TornWritesAreCaughtAndRetried) {
  telemetry::MetricsRegistry metrics;
  StoreConfig config = small_config(16 * 1024);
  config.max_write_attempts = 8;  // a run of tears must not exhaust budget
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config, &metrics);

  util::ScopedFaultInjection chaos(2024);
  util::FaultSpec spec;
  spec.torn_write_probability = 0.5;
  chaos.arm(BlockStore::kWriteSite, spec);

  // Full random blocks: every byte past the persisted 4KiB prefix differs
  // from the tear's zero fill, so each torn write is detectable.
  const auto payload = random_payload(8 * 16 * 1024, 10);
  BlockHandle handle = store.put(payload);
  EXPECT_EQ(store.get(handle), payload);  // data survived the tears

  const auto torn = chaos.count(BlockStore::kWriteSite,
                                util::FaultKind::kTornWrite);
  EXPECT_GT(torn, 0u);
  EXPECT_EQ(counter(metrics, "store.fault.torn_writes"), torn);
  // Every detected tear forced at least one rewrite.
  EXPECT_GT(counter(metrics, "store.write.retries"), 0u);
  store.release(handle);
}

TEST(BlockStore, WriteBudgetExhaustionThrowsStorageErrorWithoutLeak) {
  StoreConfig config = small_config(16 * 1024);
  config.max_write_attempts = 2;
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config);

  util::ScopedFaultInjection chaos(7);
  util::FaultSpec spec;
  spec.torn_write_probability = 1.0;  // every attempt tears
  chaos.arm(BlockStore::kWriteSite, spec);

  EXPECT_THROW(store.put(random_payload(16 * 1024, 11)), util::StorageError);
  EXPECT_EQ(store.blocks_in_use(), 0u);  // failed put returned its blocks
}

TEST(BlockStore, ReadErrorsRetryWithinBudget) {
  telemetry::MetricsRegistry metrics;
  StoreConfig config = small_config();
  config.max_read_attempts = 4;
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config, &metrics);
  const auto payload = random_payload(4096, 12);
  BlockHandle handle = store.put(payload);

  util::ScopedFaultInjection chaos(1);
  util::FaultSpec spec;
  spec.read_error_probability = 1.0;
  spec.max_failures = 2;  // fail attempts 1-2, succeed on attempt 3
  chaos.arm(BlockStore::kReadSite, spec);

  EXPECT_EQ(store.get(handle), payload);
  EXPECT_EQ(chaos.count(BlockStore::kReadSite, util::FaultKind::kReadError),
            2u);
  EXPECT_EQ(counter(metrics, "store.fault.read_errors"), 2u);
  EXPECT_EQ(counter(metrics, "store.read.retries"), 2u);
  store.release(handle);
}

TEST(BlockStore, ReadBudgetExhaustionThrowsStorageError) {
  StoreConfig config = small_config();
  config.max_read_attempts = 3;
  BlockStore store(std::make_unique<MemoryBackend>(config.block_bytes),
                   config);
  BlockHandle handle = store.put(random_payload(4096, 13));

  util::ScopedFaultInjection chaos(1);
  util::FaultSpec spec;
  spec.read_error_probability = 1.0;  // unlimited failures
  chaos.arm(BlockStore::kReadSite, spec);

  EXPECT_THROW(store.get(handle), util::StorageError);
  store.release(handle);
}

TEST(BlockStore, DetectsOnDiskCorruption) {
  util::TempDir dir("store_test");
  const std::string path = dir.file("spill.blocks");
  const auto config = small_config();
  BlockStore store(std::make_unique<FileBackend>(path, config.block_bytes),
                   config);
  BlockHandle handle = store.put(random_payload(4096, 14));

  // Flip one byte of block 0 behind the store's back (silent media rot:
  // the read itself succeeds, only the fingerprint can notice).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 100, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, 100, SEEK_SET);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  EXPECT_THROW(store.get(handle), util::DataCorruption);
  store.release(handle);
}

// -------------------------------------------------------- manager + store --

struct ManagerFixture {
  explicit ManagerFixture(int quant_bits = 16)
      : device("dev", 64u << 20),
        host("host", 64u << 20),
        manager(device, host, quant_bits, 16),
        store(std::make_unique<MemoryBackend>(4096), small_config(4096),
              &manager.metrics()) {}

  MemoryPool device;
  MemoryPool host;
  OffloadManager manager;
  BlockStore store;
};

tensor::Tensor test_tensor(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return tensor::Tensor::uniform({32, 32}, rng);
}

bool same_floats(const tensor::Tensor& a, const tensor::Tensor& b) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  return ra.size() == rb.size() &&
         std::memcmp(ra.data(), rb.data(), ra.size()) == 0;
}

TEST(OffloadManagerDisk, DiskTierMatchesHostTierBitExactly) {
  ManagerFixture disk;
  disk.manager.attach_store(&disk.store);
  ManagerFixture host;

  const auto value = test_tensor(21);
  disk.manager.register_tensor("w", value, Tier::kDisk);
  host.manager.register_tensor("w", value, Tier::kHost);
  EXPECT_EQ(disk.manager.tier_of("w"), Tier::kDisk);

  // Disk round-trip (quantize → spill → stage → rebuild → transfer) must
  // reproduce exactly what the host tier serves for the same stored bits.
  const auto from_disk = disk.manager.fetch("w");
  const auto from_host = host.manager.fetch("w");
  EXPECT_TRUE(same_floats(from_disk, from_host));

  const auto stats = disk.manager.stats();
  EXPECT_EQ(stats.disk_transfers, 1u);
  EXPECT_GT(stats.bytes_disk_to_host, 0.0);
}

TEST(OffloadManagerDisk, PrefetchStagesDiskTensors) {
  ManagerFixture fixture;
  parallel::ThreadPool pool(2);
  fixture.manager.attach_store(&fixture.store);

  const auto value = test_tensor(22);
  fixture.manager.register_tensor("w", value, Tier::kDisk);
  fixture.manager.prefetch("w", pool).wait();
  const auto fetched = fixture.manager.fetch("w");

  ManagerFixture reference;
  reference.manager.register_tensor("w", value, Tier::kHost);
  EXPECT_TRUE(same_floats(fetched, reference.manager.fetch("w")));
  EXPECT_EQ(fixture.manager.stats().staging_hits, 1u);
  // The prefetch task did the one disk read; the fetch consumed its result.
  EXPECT_EQ(fixture.manager.stats().disk_transfers, 1u);
}

TEST(OffloadManagerDisk, PrefetchReadErrorFallsBackToSyncFetch) {
  ManagerFixture fixture;
  parallel::ThreadPool pool(1);
  fixture.manager.attach_store(&fixture.store);
  const auto value = test_tensor(25);
  fixture.manager.register_tensor("w", value, Tier::kDisk);

  // Every read attempt of the prefetch task's disk leg fails, exhausting
  // the store's read budget; the budget of injected failures ends there, so
  // the fetch that follows reads the payload cleanly.
  util::ScopedFaultInjection chaos(1);
  util::FaultSpec spec;
  spec.read_error_probability = 1.0;
  spec.max_failures = fixture.store.config().max_read_attempts;
  chaos.arm(BlockStore::kReadSite, spec);

  fixture.manager.prefetch("w", pool).get();  // completes normally
  const auto fetched = fixture.manager.fetch("w");

  ManagerFixture reference;
  reference.manager.register_tensor("w", value, Tier::kHost);
  EXPECT_TRUE(same_floats(fetched, reference.manager.fetch("w")));
  const auto stats = fixture.manager.stats();
  EXPECT_EQ(stats.prefetch_failures, 1u);
  EXPECT_EQ(stats.sync_fallbacks, 1u);
  EXPECT_EQ(stats.staging_hits, 0u);
  EXPECT_EQ(stats.disk_transfers, 1u);  // only the fetch's read succeeded
  EXPECT_EQ(
      chaos.count(BlockStore::kReadSite, util::FaultKind::kReadError),
      static_cast<std::uint64_t>(fixture.store.config().max_read_attempts));
}

TEST(OffloadManagerDisk, DemotionPreservesPayloadBitExactly) {
  ManagerFixture fixture;
  fixture.manager.attach_store(&fixture.store);
  const auto value = test_tensor(23);
  fixture.manager.register_tensor("w", value, Tier::kHost);
  const auto before = fixture.manager.fetch("w");
  const std::size_t host_used = fixture.host.used();

  const std::size_t freed = fixture.manager.demote_host_to_disk(1);
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(fixture.host.used(), host_used - freed);
  EXPECT_EQ(fixture.manager.tier_of("w"), Tier::kDisk);
  EXPECT_GT(fixture.manager.stats().disk_spills, 0u);

  EXPECT_TRUE(same_floats(fixture.manager.fetch("w"), before));
}

TEST(OffloadManagerDisk, DemotionWithoutStoreFreesNothing) {
  ManagerFixture fixture;  // no attach_store
  fixture.manager.register_tensor("w", test_tensor(24), Tier::kHost);
  EXPECT_EQ(fixture.manager.demote_host_to_disk(1 << 20), 0u);
  EXPECT_EQ(fixture.manager.tier_of("w"), Tier::kHost);
}

// Satellite: with both relief citizens registered on the host pool —
// PrefixCache eviction first (recomputable KV, cheap) and host→disk weight
// demotion second (a disk round-trip per future fetch, expensive) — modest
// pressure must be absorbed by eviction alone, and heavy pressure must
// escalate to demotion without double-freeing either citizen's memory.
TEST(OffloadManagerDisk, ReliefCallbackOrderingEvictsPrefixCacheFirst) {
  MemoryPool device("dev", 64u << 20);
  MemoryPool host("host", 64u << 10);  // 64 KiB: small enough to pressure
  telemetry::MetricsRegistry cache_metrics;

  // Citizen 1: the prefix cache registers its relief callback at
  // construction (same order the Generator wires: cache before demotion).
  runtime::KVBlockPool kv_blocks({.block_tokens = 4, .hidden = 8}, &host);
  kvshare::PrefixCache cache(kv_blocks, /*layers=*/2, &cache_metrics);

  OffloadManager manager(device, host, 16, 16);
  BlockStore store(std::make_unique<MemoryBackend>(4096), small_config(4096),
                   &manager.metrics());
  manager.attach_store(&store);

  // Citizen 2: weight demotion, registered after the cache.
  const int relief_id = host.add_pressure_callback(
      [&manager](overload::PressureLevel, std::size_t bytes_needed) {
        return manager.demote_host_to_disk(bytes_needed);
      });

  // Populate both citizens: ~16 KiB of fp16 weights, ~8 KiB of cached KV.
  std::vector<tensor::Tensor> originals;
  for (int i = 0; i < 8; ++i) {
    originals.push_back(test_tensor(100 + i));
    manager.register_tensor("w" + std::to_string(i), originals.back(),
                            Tier::kHost);
  }
  std::vector<std::int64_t> tokens(64);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<std::int64_t>(i + 1);
  }
  cache.insert(tokens);
  ASSERT_GT(cache.blocks_in_use(), 0u);

  // Phase 1: a would-fail charge the cache alone can absorb. The second
  // (more expensive) citizen must not fire.
  const std::size_t headroom = host.available();
  host.charge(headroom + 2 * cache.node_bytes());
  EXPECT_GT(counter(cache_metrics, "kvshare.evicted_blocks"), 0u);
  EXPECT_EQ(manager.stats().disk_spills, 0u);
  host.release(headroom + 2 * cache.node_bytes());

  // Phase 2: demand close to the whole pool — eviction cannot cover it, so
  // demotion must take over and spill weights to disk.
  host.charge(host.capacity() - 1024);
  EXPECT_GT(manager.stats().disk_spills, 0u);
  host.release(host.capacity() - 1024);

  // No double-free: every weight survives its (single) demotion bit-exactly.
  for (int i = 0; i < 8; ++i) {
    const std::string name = "w" + std::to_string(i);
    OffloadManager reference(device, host, 16, 16);
    reference.register_tensor(name, originals[static_cast<std::size_t>(i)],
                              Tier::kHost);
    EXPECT_TRUE(same_floats(manager.fetch(name), reference.fetch(name)))
        << name;
  }

  host.remove_pressure_callback(relief_id);
}

// ---------------------------------------------------- generator end-to-end --

RuntimeConfig tiny_disk_config(std::int64_t disk_layers,
                               std::size_t host_capacity = 64u << 20) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(4, 64, 4, 128);
  config.quant_group = 16;
  config.prefetch_threads = 0;
  config.host_capacity = host_capacity;
  config.disk_layers = disk_layers;
  if (disk_layers > 0) config.disk_capacity = 64u << 20;
  config.spill_block_bytes = 16u << 10;
  return config;
}

TEST(GeneratorDisk, DiskPlacementIsByteIdenticalToHostOnly) {
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4, 5}};
  Generator base(tiny_disk_config(0));
  Generator spill(tiny_disk_config(2));
  const auto r_base = base.generate(prompts, 8);
  const auto r_spill = spill.generate(prompts, 8);
  EXPECT_EQ(r_base.tokens, r_spill.tokens);  // acceptance: byte-identical
  EXPECT_EQ(r_base.offload.disk_transfers, 0u);
  EXPECT_GT(r_spill.offload.disk_transfers, 0u);
  EXPECT_GT(r_spill.offload.bytes_disk_to_host, 0.0);
}

TEST(GeneratorDisk, AsyncStagingMatchesSyncDiskReads) {
  const std::vector<std::vector<std::int64_t>> prompts = {{2, 7, 1, 8}};
  RuntimeConfig sync_config = tiny_disk_config(2);
  RuntimeConfig async_config = tiny_disk_config(2);
  async_config.prefetch_threads = 2;
  Generator sync_gen(sync_config);
  Generator async_gen(async_config);
  const auto r_sync = sync_gen.generate(prompts, 6);
  const auto r_async = async_gen.generate(prompts, 6);
  EXPECT_EQ(r_sync.tokens, r_async.tokens);
  EXPECT_GT(r_async.offload.disk_transfers, 0u);
}

TEST(GeneratorDisk, FileBackedSpillMatchesInMemory) {
  util::TempDir dir("store_test");
  const std::vector<std::vector<std::int64_t>> prompts = {{3, 1, 4, 1}};
  RuntimeConfig mem_config = tiny_disk_config(2);
  RuntimeConfig file_config = tiny_disk_config(2);
  file_config.spill_path = dir.file("spill.blocks");
  Generator mem_gen(mem_config);
  Generator file_gen(file_config);
  EXPECT_EQ(mem_gen.generate(prompts, 6).tokens,
            file_gen.generate(prompts, 6).tokens);
}

TEST(GeneratorDisk, ModelThatDoesNotFitHostCompletesByteIdentically) {
  // Acceptance: the tiny(4,64,4,128) model needs ~384 KiB of fp16 host
  // weights; cap the host pool below that and place half the layers on
  // disk. Generation must complete and match the unconstrained run.
  const std::vector<std::vector<std::int64_t>> prompts = {{5, 9, 2, 6, 5}};
  Generator unconstrained(tiny_disk_config(0));
  Generator constrained(tiny_disk_config(2, /*host_capacity=*/256u << 10));
  const auto r_full = unconstrained.generate(prompts, 8);
  const auto r_disk = constrained.generate(prompts, 8);
  EXPECT_EQ(r_full.tokens, r_disk.tokens);
  EXPECT_GT(r_disk.offload.disk_transfers, 0u);
}

TEST(GeneratorDisk, LadderSpillsToDiskWhenHostOverflows) {
  // No explicit disk placement: the registration-time degradation ladder
  // must discover the disk tier on its own (re-quantize, then spill) and
  // the run must still complete. Quantization rungs change tokens, so this
  // asserts completion + spill accounting, not byte identity.
  RuntimeConfig config = tiny_disk_config(0, /*host_capacity=*/96u << 10);
  config.disk_capacity = 64u << 20;
  Generator g(config);
  const auto r = g.generate({{1, 2, 3, 4}}, 6);
  EXPECT_EQ(r.tokens[0].size(), 6u);
  EXPECT_GT(r.offload.disk_spills, 0u);
  EXPECT_GT(r.offload.degradations, 0u);
}

TEST(GeneratorDisk, ConfigValidation) {
  RuntimeConfig config = tiny_disk_config(2);
  config.disk_capacity = 0;  // disk layers with no spill store
  EXPECT_THROW(Generator{config}, util::ConfigError);

  RuntimeConfig too_many = tiny_disk_config(2);
  too_many.device_layers = 3;  // 3 + 2 > 4 layers
  EXPECT_THROW(Generator{too_many}, util::ConfigError);

  RuntimeConfig zero_block = tiny_disk_config(1);
  zero_block.spill_block_bytes = 0;
  EXPECT_THROW(Generator{zero_block}, util::ConfigError);
}

TEST(GeneratorDisk, PolicyMappingPlacesDiskFraction) {
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.25;
  policy.weights_on_disk = 0.5;
  policy.weight_bits = 16;
  RuntimeConfig config = tiny_disk_config(0);
  config.disk_capacity = 64u << 20;
  config.apply_policy(policy);
  EXPECT_EQ(config.device_layers, 1);  // floor(0.25 * 4)
  EXPECT_EQ(config.disk_layers, 2);    // ceil(0.5 * 4)
}

}  // namespace
