// Tests for the block-table KV cache and its ref-counted block pool
// (vLLM-style allocation over the runtime's memory pools), with f32 and
// group-quantized rows.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/tensor/quantize.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/rng.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

KVBlockPoolConfig small_blocks(int bits = 16) {
  KVBlockPoolConfig config;
  config.block_tokens = 4;
  config.hidden = 8;
  config.bits = bits;
  config.group_size = 4;
  return config;
}

void fill(KVCache& cache, int tokens, util::Xoshiro256& rng) {
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

TEST(KVBlockPool, CachesOnManyThreadsShareOnePool) {
  // Sequences on different threads allocate, fork, copy on write and free
  // blocks of one pool concurrently (the TSan shard runs this); every byte
  // comes back.
  MemoryPool mem("h", 1 << 22);
  KVBlockPool pool(small_blocks(4), &mem);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(100 + t));
      KVCache cache(pool);
      fill(cache, 30, rng);
      KVCache fork = cache.clone();
      fill(fork, 5, rng);
      cache.truncate(3);
      fill(cache, 10, rng);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(KVCache, BlockTableHoldsRowsInAppendOrder) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool({.block_tokens = 4, .hidden = 16}, &mem);
  KVCache cache(pool);
  util::Xoshiro256 rng(3);
  std::vector<float> keys;
  for (int i = 0; i < 11; ++i) {  // crosses block boundaries (4 tokens)
    const Tensor k = Tensor::uniform({16}, rng);
    cache.append(k, Tensor::uniform({16}, rng));
    keys.insert(keys.end(), k.f32().begin(), k.f32().end());
  }
  EXPECT_EQ(cache.length(), 11);
  EXPECT_EQ(cache.block_table().size(), 3u);  // ceil(11/4)
  EXPECT_EQ(mem.used(), 3 * pool.block_bytes());
  EXPECT_EQ(cache.keys().max_abs_diff(
                Tensor::from_values({11, 16}, std::move(keys))),
            0.0f);
}

TEST(KVCache, QuantizedRowsHoldTheQuantizersBytes) {
  // A stored row is tensor::quantize's output verbatim — mins, scales,
  // packed codes — quantized straight into the block, and reads back as
  // tensor::dequantize of it. Ragged widths pad the last group with zeros;
  // the all-negative and constant rows make that padding set the group's
  // max and its zero scale.
  struct Shape {
    std::int64_t hidden, group;
  };
  for (const int bits : {8, 4}) {
    for (const Shape shape : {Shape{8, 4}, Shape{10, 4}, Shape{7, 8}}) {
      SCOPED_TRACE(std::to_string(bits) + " bits, hidden " +
                   std::to_string(shape.hidden));
      MemoryPool mem("p", 1 << 20);
      KVBlockPoolConfig config = small_blocks(bits);
      config.hidden = shape.hidden;
      config.group_size = shape.group;
      KVBlockPool pool(config, &mem);
      const auto groups = static_cast<std::size_t>(pool.row_groups());
      KVCache cache(pool);
      util::Xoshiro256 rng(9);
      std::vector<Tensor> rows;
      for (int i = 0; i < 6; ++i) {
        rows.push_back(Tensor::uniform({shape.hidden}, rng));
        cache.append(rows.back(), Tensor::uniform({shape.hidden}, rng));
      }
      rows.push_back(Tensor::uniform({shape.hidden}, rng, -2.0f, -1.0f));
      rows.push_back(Tensor::full({shape.hidden}, 0.25f));
      for (std::size_t i = 6; i < rows.size(); ++i) {
        cache.append(rows[i], rows[i]);
      }
      const Tensor keys = cache.keys();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto q =
            tensor::quantize(rows[i], tensor::QuantConfig{bits, shape.group});
        ASSERT_EQ(q.group_min().size(), groups);
        ASSERT_EQ(q.payload().size(), pool.row_payload_bytes());
        const auto row =
            cache.stored_row(KVPlane::kKeys, static_cast<std::int64_t>(i));
        const std::size_t meta = groups * sizeof(float);
        EXPECT_EQ(std::memcmp(row.data(), q.group_min().data(), meta), 0) << i;
        EXPECT_EQ(std::memcmp(row.data() + meta, q.group_scale().data(), meta),
                  0)
            << i;
        EXPECT_EQ(std::memcmp(row.data() + 2 * meta, q.payload().data(),
                              q.payload().size()),
                  0)
            << i;
        const Tensor decoded = tensor::dequantize(q);
        EXPECT_EQ(std::memcmp(keys.f32().data() + i * shape.hidden,
                              decoded.f32().data(),
                              static_cast<std::size_t>(shape.hidden) *
                                  sizeof(float)),
                  0)
            << i;
      }
    }
  }
}

TEST(KVCache, FreesBlocksOnDestruction) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  {
    KVCache cache(pool);
    util::Xoshiro256 rng(5);
    fill(cache, 9, rng);
    EXPECT_EQ(pool.live_blocks(), 3u);
  }
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(KVCache, SequencesShareThePool) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  KVCache a(pool);
  KVCache b(pool);
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
std::vector<std::byte> plane_bytes(const KVCache& cache) {
  std::vector<std::byte> out;
  for (const Tensor& plane : {cache.keys(), cache.values()}) {
    const auto raw = plane.raw();
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

TEST(KVCache, CloneSharesBlocksAndCopiesOnWrite) {
  // Full tail block (8), partial tail (7, 9): every case forks with no
  // allocation and pays exactly one block on the fork's first write, for
  // f32 and quantized rows alike.
  for (const auto& [tokens, bits] :
       {std::pair{7, 16}, std::pair{8, 16}, std::pair{9, 16},
        std::pair{7, 4}, std::pair{8, 8}}) {
    SCOPED_TRACE(std::to_string(tokens) + " tokens, kv" +
                 std::to_string(bits));
    MemoryPool mem("p", 1 << 20);
    KVBlockPool pool(small_blocks(bits), &mem);
    util::Xoshiro256 rng(23);
    KVCache original(pool);
    fill(original, tokens, rng);
    const auto rows = plane_bytes(original);
    const std::size_t blocks = pool.live_blocks();
    const std::size_t bytes = mem.used();
    {
      auto fork = original.clone();
      EXPECT_EQ(pool.live_blocks(), blocks);  // 0 blocks allocated
      EXPECT_EQ(mem.used(), bytes);
      EXPECT_EQ(plane_bytes(fork), rows);

      fork.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
      EXPECT_EQ(pool.live_blocks(), blocks + 1);
      EXPECT_EQ(plane_bytes(original), rows);

      // Truncating into the shared prefix writes nothing; the next append
      // lands in a private copy of the shared block.
      fork.truncate(2);
      EXPECT_EQ(plane_bytes(original), rows);
      fork.append(Tensor::full({8}, 5.0f), Tensor::full({8}, -5.0f));
      EXPECT_EQ(plane_bytes(original), rows);
      EXPECT_EQ(fork.keys().at({2, 0}), 5.0f);
      EXPECT_EQ(fork.length(), 3);
    }
    EXPECT_EQ(pool.live_blocks(), blocks);  // back to baseline
    EXPECT_EQ(mem.used(), bytes);
    EXPECT_EQ(plane_bytes(original), rows);
  }
}

TEST(KVCache, RejectsWrongShape) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool(small_blocks(), &mem);
  KVCache cache(pool);
  EXPECT_THROW(cache.append(Tensor::zeros({4}), Tensor::zeros({4})),
               CheckError);
}

TEST(KVCache, GeneratorTokensDoNotDependOnTheBlockSize) {
  // Blocks change only the memory layout: routing the whole generator
  // through 4-token blocks must not change a single token.
  for (const int bits : {16, 4}) {
    RuntimeConfig coarse;
    coarse.spec = model::ModelSpec::tiny(2, 32, 4, 64);
    coarse.prefetch_threads = 0;
    coarse.kv_bits = bits;
    RuntimeConfig fine = coarse;
    fine.kv_block_tokens = 4;  // forces several blocks per sequence

    Generator g_coarse(coarse);
    Generator g_fine(fine);
    const std::vector<std::vector<std::int64_t>> prompts = {
        {5, 9, 2, 7, 1, 33}, {40, 41, 42}};
    const auto r_coarse = g_coarse.generate(prompts, 10);
    const auto r_fine = g_fine.generate(prompts, 10);
    EXPECT_EQ(r_coarse.tokens, r_fine.tokens) << "kv" << bits;
    EXPECT_GT(r_fine.kv_stored_bytes, 0u);
  }
}

TEST(KVCache, CheckpointRoundTripsAtBlockBoundaries) {
  // Snapshot exactly at a block boundary, one short of it, and one past it:
  // the restored cache must reproduce contents and block-table length
  // (block structure is a pure function of length).
  util::Xoshiro256 rng(17);
  for (const int tokens : {7, 8, 9}) {  // 4-token blocks: -1 / exact / +1
    MemoryPool mem("p", 1 << 20);
    KVBlockPool pool({.block_tokens = 4, .hidden = 16}, &mem);
    KVCache original(pool);
    for (int i = 0; i < tokens; ++i) {
      original.append(Tensor::uniform({16}, rng),
                      Tensor::uniform({16}, rng));
    }
    ckpt::ByteWriter writer;
    encode_kv_cache(writer, original);
    ckpt::ByteReader reader(writer.buffer());
    KVCache restored(pool);
    decode_kv_cache(reader, restored);
    ASSERT_EQ(restored.length(), tokens);
    EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
    EXPECT_EQ(restored.values().max_abs_diff(original.values()), 0.0f);
    EXPECT_EQ(restored.block_table().size(), original.block_table().size());
  }
}

}  // namespace
}  // namespace lmo::runtime
