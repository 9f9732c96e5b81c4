// Tests for the paged KV cache (vLLM-style allocation over the runtime's
// memory pools).
#include <gtest/gtest.h>

#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/paged_kv.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/rng.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

KVBlockPoolConfig small_blocks() {
  KVBlockPoolConfig config;
  config.block_tokens = 4;
  config.hidden = 8;
  return config;
}

void fill(PagedKVCache& cache, int tokens, util::Xoshiro256& rng) {
  for (int i = 0; i < tokens; ++i) {
    cache.append(Tensor::uniform({cache.hidden()}, rng),
                 Tensor::uniform({cache.hidden()}, rng));
  }
}

TEST(KVBlockPool, AllocateFreeRecycles) {
  MemoryPool mem("h", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  EXPECT_EQ(pool.block_bytes(), 2u * 4u * 8u * sizeof(float));

  const auto a = pool.allocate();
  const auto b = pool.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live_blocks(), 2u);
  EXPECT_EQ(mem.used(), 2 * pool.block_bytes());

  EXPECT_TRUE(pool.unref(a));
  EXPECT_EQ(pool.live_blocks(), 1u);
  EXPECT_EQ(mem.used(), pool.block_bytes());
  EXPECT_THROW(pool.unref(a), CheckError);  // double free
  EXPECT_THROW(pool.data(a), CheckError);   // freed blocks are unreadable
  EXPECT_THROW(pool.data(b + 1), CheckError);  // never-allocated id

  // Freed block id recycled, payload zeroed again.
  pool.data(b)[0] = 7.0f;
  const auto c = pool.allocate();
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.data(c)[0], 0.0f);
  EXPECT_EQ(pool.data(b)[0], 7.0f);
}

TEST(KVBlockPool, RefcountsAndExactPoolBytes) {
  MemoryPool mem("h", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  const auto a = pool.allocate();
  pool.ref(a);
  EXPECT_EQ(pool.refcount(a), 2);
  EXPECT_FALSE(pool.unref(a));  // still referenced: nothing released
  EXPECT_EQ(mem.used(), pool.block_bytes());
  EXPECT_TRUE(pool.unref(a));
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_EQ(mem.used(), 0u);  // every byte returned
}

TEST(KVBlockPool, BudgetAndPoolDenialsRefuseWithoutThrowingOnTry) {
  KVBlockPoolConfig accounting;
  accounting.block_tokens = 4;
  accounting.bytes_per_block = 64;
  accounting.capacity_bytes = 128;  // room for two accounting-only blocks
  KVBlockPool budget(accounting, nullptr);
  EXPECT_GE(budget.try_allocate(), 0);
  EXPECT_GE(budget.try_allocate(), 0);
  EXPECT_EQ(budget.try_allocate(), -1);
  EXPECT_THROW(budget.allocate(), util::ResourceExhausted);
  EXPECT_EQ(budget.data(0), nullptr);  // accounting mode: no payload
  EXPECT_EQ(budget.live_blocks(), 2u);

  MemoryPool mem("h", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  util::ScopedFaultInjection chaos(3);
  util::FaultSpec spec;
  spec.alloc_failures = 2;
  chaos.arm("pool.h.charge", spec);
  EXPECT_EQ(pool.try_allocate(), -1);
  EXPECT_THROW(pool.allocate(), util::ResourceExhausted);
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(PagedKVCache, MatchesContiguousCacheContents) {
  MemoryPool mem_paged("p", 1 << 20);
  MemoryPool mem_flat("f", 1 << 20);
  KVBlockPool pool({.block_tokens = 4, .hidden = 16}, &mem_paged);
  PagedKVCache paged(pool);
  KVCache flat(16, 16, 16, mem_flat);

  util::Xoshiro256 rng(3);
  for (int i = 0; i < 11; ++i) {  // crosses block boundaries (4 tokens)
    const Tensor k = Tensor::uniform({16}, rng);
    const Tensor v = Tensor::uniform({16}, rng);
    paged.append(k, v);
    flat.append(k, v);
  }
  EXPECT_EQ(paged.length(), 11);
  EXPECT_EQ(paged.block_table().size(), 3u);  // ceil(11/4)
  EXPECT_EQ(paged.wasted_slots(), 1);
  EXPECT_EQ(paged.keys().max_abs_diff(flat.keys()), 0.0f);
  EXPECT_EQ(paged.values().max_abs_diff(flat.values()), 0.0f);
}

TEST(PagedKVCache, FreesBlocksOnDestruction) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  {
    PagedKVCache cache(pool);
    util::Xoshiro256 rng(5);
    fill(cache, 9, rng);
    EXPECT_EQ(pool.live_blocks(), 3u);
  }
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(PagedKVCache, SequencesShareThePool) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  PagedKVCache a(pool);
  PagedKVCache b(pool);
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 4; ++i) {
    a.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
  }
  b.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
  EXPECT_EQ(pool.live_blocks(), 2u);  // one block each
  // Blocks are disjoint.
  EXPECT_NE(a.block_table()[0], b.block_table()[0]);
}

/// Both planes' bytes, for memcmp-exact comparisons.
std::vector<std::byte> plane_bytes(const KVCacheBase& cache) {
  std::vector<std::byte> out;
  for (const Tensor& plane : {cache.keys(), cache.values()}) {
    const auto raw = plane.raw();
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

TEST(PagedKVCache, CloneSharesBlocksAndCopiesOnWrite) {
  // Full tail block (8), partial tail (7, 9): every case forks with no
  // allocation and pays exactly one block on the fork's first write.
  for (const int tokens : {7, 8, 9}) {
    SCOPED_TRACE(tokens);
    MemoryPool mem("p", 1 << 20);
    KVBlockPool pool(small_blocks(), &mem);
    util::Xoshiro256 rng(23);
    PagedKVCache original(pool);
    fill(original, tokens, rng);
    const auto rows = plane_bytes(original);
    const std::size_t blocks = pool.live_blocks();
    const std::size_t bytes = mem.used();
    {
      auto fork = original.clone();
      EXPECT_EQ(pool.live_blocks(), blocks);  // 0 blocks allocated
      EXPECT_EQ(mem.used(), bytes);
      EXPECT_EQ(plane_bytes(*fork), rows);

      fork->append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
      EXPECT_EQ(pool.live_blocks(), blocks + 1);
      EXPECT_EQ(plane_bytes(original), rows);

      // Truncating into the shared prefix writes nothing; the next append
      // lands in a private copy of the shared block.
      fork->truncate(2);
      EXPECT_EQ(plane_bytes(original), rows);
      fork->append(Tensor::full({8}, 5.0f), Tensor::full({8}, -5.0f));
      EXPECT_EQ(plane_bytes(original), rows);
      EXPECT_EQ(fork->keys().at({2, 0}), 5.0f);
      EXPECT_EQ(fork->length(), 3);
    }
    EXPECT_EQ(pool.live_blocks(), blocks);  // back to baseline
    EXPECT_EQ(mem.used(), bytes);
    EXPECT_EQ(plane_bytes(original), rows);
  }
}

TEST(PagedKVCache, RejectsWrongShape) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  PagedKVCache cache(pool);
  EXPECT_THROW(cache.append(Tensor::zeros({4}), Tensor::zeros({4})),
               CheckError);
}

TEST(PagedKVCache, GeneratorEndToEndMatchesContiguous) {
  // Routing the whole generator through paged caches must not change a
  // single token — the backends differ only in memory layout.
  RuntimeConfig flat;
  flat.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  flat.prefetch_threads = 0;
  RuntimeConfig paged = flat;
  paged.kv_flavor = KVFlavor::kPaged;
  paged.kv_block_tokens = 4;  // forces several blocks per sequence

  Generator g_flat(flat);
  Generator g_paged(paged);
  const std::vector<std::vector<std::int64_t>> prompts = {
      {5, 9, 2, 7, 1, 33}, {40, 41, 42}};
  const auto r_flat = g_flat.generate(prompts, 10);
  const auto r_paged = g_paged.generate(prompts, 10);
  EXPECT_EQ(r_flat.tokens, r_paged.tokens);
  EXPECT_GT(r_paged.kv_stored_bytes, 0u);
}

TEST(PagedKVCache, GeneratorRejectsQuantizedPages) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.kv_flavor = KVFlavor::kPaged;
  config.kv_bits = 4;  // blocks are f32-only
  EXPECT_THROW(Generator g(config), CheckError);
}

TEST(PagedKVCache, CheckpointRoundTripsAtBlockBoundaries) {
  // Snapshot exactly at a block boundary, one short of it, and one past it:
  // the restored cache must reproduce contents, block-table length and tail
  // fragmentation (block structure is a pure function of length).
  util::Xoshiro256 rng(17);
  for (const int tokens : {7, 8, 9}) {  // 4-token blocks: -1 / exact / +1
    MemoryPool mem("p", 1 << 20);
    KVBlockPool pool({.block_tokens = 4, .hidden = 16}, &mem);
    PagedKVCache original(pool);
    for (int i = 0; i < tokens; ++i) {
      original.append(Tensor::uniform({16}, rng),
                      Tensor::uniform({16}, rng));
    }
    ckpt::ByteWriter writer;
    encode_kv_cache(writer, original);
    ckpt::ByteReader reader(writer.buffer());
    KVRestoreContext context;
    context.block_pool = &pool;
    const auto restored = decode_kv_cache(reader, context);
    ASSERT_EQ(restored->length(), tokens);
    EXPECT_EQ(restored->keys().max_abs_diff(original.keys()), 0.0f);
    EXPECT_EQ(restored->values().max_abs_diff(original.values()), 0.0f);
    auto& paged = dynamic_cast<PagedKVCache&>(*restored);
    EXPECT_EQ(paged.block_table().size(), original.block_table().size());
    EXPECT_EQ(paged.wasted_slots(), original.wasted_slots());
  }
}

TEST(PagingUtilization, QuantifiesSavings) {
  // Mixed-length sequences with a 512-token contiguous reservation: paging
  // at 16-token blocks pins far less.
  const std::vector<std::int64_t> lengths = {10, 40, 500, 16, 80, 7};
  const auto util = paging_utilization(64, 16, 512, lengths);
  EXPECT_GT(util.contiguous_bytes, util.paged_bytes);
  EXPECT_GT(util.savings_ratio(), 3.0);
  // Degenerate: all sequences at max length → paging saves ~nothing.
  const auto full = paging_utilization(64, 16, 512, {512, 512});
  EXPECT_NEAR(full.savings_ratio(), 1.0, 0.01);
  EXPECT_THROW(paging_utilization(64, 16, 512, {513}), CheckError);
}

}  // namespace
}  // namespace lmo::runtime
