// Tests for the sliding-window KV cache (Longformer-style bounded
// attention context): a block table that sees its last `window` rows and
// drops each block once all of its rows have left the window, and its
// accuracy trade-off through the transformer.
#include <gtest/gtest.h>

#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

/// 4-token blocks of `hidden`-wide f32 rows.
KVBlockPoolConfig blocks_of(std::int64_t hidden) {
  return {.block_tokens = 4, .hidden = hidden};
}

TEST(WindowKV, BehavesExactlyUntilTheWindowFills) {
  MemoryPool pool("h", 1 << 20);
  KVBlockPool blocks(blocks_of(8), &pool);
  KVCache window(blocks, 5);
  KVCache exact(blocks);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 5; ++i) {
    const Tensor k = Tensor::uniform({8}, rng);
    const Tensor v = Tensor::uniform({8}, rng);
    window.append(k, v);
    exact.append(k, v);
    EXPECT_EQ(window.keys().max_abs_diff(exact.keys()), 0.0f);
  }
  EXPECT_EQ(window.appended(), window.length());  // nothing evicted yet
}

TEST(WindowKV, EvictsOldestAndKeepsTemporalOrder) {
  MemoryPool pool("h", 1 << 20);
  KVBlockPool blocks(blocks_of(4), &pool);
  KVCache cache(blocks, 3);
  for (int i = 0; i < 7; ++i) {
    cache.append(Tensor::full({4}, static_cast<float>(i)),
                 Tensor::full({4}, static_cast<float>(-i)));
  }
  EXPECT_EQ(cache.length(), 3);
  EXPECT_EQ(cache.appended(), 7);
  const Tensor keys = cache.keys();  // tokens 4, 5, 6 in order
  EXPECT_FLOAT_EQ(keys.at({0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(keys.at({1, 0}), 5.0f);
  EXPECT_FLOAT_EQ(keys.at({2, 0}), 6.0f);
  EXPECT_FLOAT_EQ(cache.values().at({2, 0}), -6.0f);
  // Tokens 0-3 filled block 0, which no visible row uses any more.
  EXPECT_EQ(cache.block_table()[0], -1);
  EXPECT_EQ(blocks.live_blocks(), 1u);
}

TEST(WindowKV, ResidencyIsBoundedByTheWindow) {
  MemoryPool pool("h", 1 << 20);
  KVBlockPool blocks(blocks_of(16), &pool);
  KVCache cache(blocks, 8);
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    cache.append(Tensor::uniform({16}, rng), Tensor::uniform({16}, rng));
    // 8 visible rows span at most three 4-token blocks.
    EXPECT_LE(pool.used(), 3 * blocks.block_bytes()) << i;
  }
  EXPECT_EQ(pool.used(), 2 * blocks.block_bytes());  // tokens 92-99
}

TEST(WindowKV, TruncateDropsNewestAndCloneIsIndependent) {
  MemoryPool pool("h", 1 << 20);
  KVBlockPool blocks(blocks_of(4), &pool);
  KVCache cache(blocks, 3);
  for (int i = 0; i < 5; ++i) {
    cache.append(Tensor::full({4}, static_cast<float>(i)),
                 Tensor::full({4}, static_cast<float>(i)));
  }
  auto copy = cache.clone();
  cache.truncate(2);  // keep tokens 2, 3
  EXPECT_EQ(cache.length(), 2);
  EXPECT_FLOAT_EQ(cache.keys().at({1, 0}), 3.0f);
  EXPECT_EQ(copy.length(), 3);  // clone untouched
  EXPECT_THROW(cache.truncate(3), CheckError);
  // Appending after truncation writes where the dropped row was.
  cache.append(Tensor::full({4}, 9.0f), Tensor::full({4}, 9.0f));
  EXPECT_FLOAT_EQ(cache.keys().at({2, 0}), 9.0f);
  EXPECT_FLOAT_EQ(copy.keys().at({2, 0}), 4.0f);
}

TEST(WindowKV, TransformerRunsWithBoundedContext) {
  // Swap window caches into the transformer: generation still works, and
  // a window covering the whole sequence reproduces exact decoding.
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.prefetch_threads = 0;
  Generator g_exact(config);
  const std::vector<std::int64_t> prompt = {5, 9, 2, 7, 1, 33};
  const std::int64_t gen_len = 10;
  const auto exact = g_exact.generate({prompt}, gen_len).tokens[0];

  const auto run_with_window = [&](std::int64_t window) {
    Generator g(config);
    auto& transformer = g.transformer();
    SequenceCache cache;
    for (std::int64_t layer = 0; layer < config.spec.num_layers; ++layer) {
      cache.emplace_back(g.kv_blocks(), window);
    }
    std::vector<SequenceCache*> caches = {&cache};
    std::vector<tensor::Tensor> states = {transformer.embed(prompt)};
    transformer.forward(states, caches);
    std::vector<std::int64_t> tokens;
    std::int64_t next = tensor::argmax(transformer.logits(states[0]));
    tokens.push_back(next);
    for (std::int64_t t = 1; t < gen_len; ++t) {
      const std::int64_t input[] = {next};
      std::vector<tensor::Tensor> step = {transformer.embed(input)};
      transformer.forward(step, caches);
      next = tensor::argmax(transformer.logits(step[0]));
      tokens.push_back(next);
    }
    return tokens;
  };

  // Window ≥ total length → exact.
  EXPECT_EQ(run_with_window(64), exact);
  // A tight window still generates (approximately), without growth.
  const auto windowed = run_with_window(4);
  EXPECT_EQ(windowed.size(), static_cast<std::size_t>(gen_len));
}

TEST(WindowKV, CheckpointRoundTripsAcrossTheWrap) {
  // Snapshot before the window fills, exactly at the fill point, and after
  // it has slid: the record holds the visible rows only, and the restored
  // cache (a fresh window of the same size) must see the same rows as the
  // original from then on.
  util::Xoshiro256 rng(23);
  for (const int appends : {3, 5, 9}) {  // window 5: partial / full / slid
    MemoryPool mem_a("a", 1 << 20);
    MemoryPool mem_b("b", 1 << 20);
    KVBlockPool blocks_a(blocks_of(8), &mem_a);
    KVBlockPool blocks_b(blocks_of(8), &mem_b);
    KVCache original(blocks_a, 5);
    for (int i = 0; i < appends; ++i) {
      original.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
    }
    ckpt::ByteWriter writer;
    encode_kv_cache(writer, original);
    ckpt::ByteReader reader(writer.buffer());
    KVCache restored(blocks_b, 5);
    decode_kv_cache(reader, restored);
    EXPECT_EQ(restored.length(), original.length());
    EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
    EXPECT_EQ(restored.values().max_abs_diff(original.values()), 0.0f);
    // Both caches continue identically past the restore point.
    for (int i = 0; i < 4; ++i) {
      const Tensor k = Tensor::full({8}, static_cast<float>(100 + i));
      const Tensor v = Tensor::full({8}, static_cast<float>(-100 - i));
      original.append(k, v);
      restored.append(k, v);
      EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
    }
  }
}

/// A ring record as earlier builds wrote it: window 3 of 4-wide rows after
/// `appended` appends of token t = (t, …) keys and (-t, …) values.
ckpt::ByteWriter ring_record(std::int64_t appended, std::int64_t visible,
                             std::size_t ring_floats = 12) {
  std::vector<float> k(ring_floats, 0.0f), v(ring_floats, 0.0f);
  for (std::int64_t t = 0; t < appended; ++t) {
    for (std::int64_t d = 0; d < 4; ++d) {
      const auto at = static_cast<std::size_t>(t % 3 * 4 + d);
      if (at >= ring_floats) continue;
      k[at] = static_cast<float>(t);
      v[at] = -static_cast<float>(t);
    }
  }
  ckpt::ByteWriter writer;
  writer.u8(3);  // the window-ring tag
  writer.i64(4);
  writer.i64(3);
  writer.i64(appended);
  writer.i64(visible);
  writer.f32_array(k);
  writer.f32_array(v);
  return writer;
}

TEST(WindowKV, RingRecordsRestoreTheirVisibleRows) {
  MemoryPool pool("h", 1 << 20);
  KVBlockPool blocks(blocks_of(4), &pool);
  {
    const ckpt::ByteWriter writer = ring_record(7, 3);  // wrapped twice
    ckpt::ByteReader reader(writer.buffer());
    KVCache cache(blocks, 3);
    decode_kv_cache(reader, cache);
    EXPECT_TRUE(reader.exhausted());
    const Tensor keys = cache.keys();  // tokens 4, 5, 6 in order
    ASSERT_EQ(cache.length(), 3);
    EXPECT_FLOAT_EQ(keys.at({0, 0}), 4.0f);
    EXPECT_FLOAT_EQ(keys.at({2, 0}), 6.0f);
    EXPECT_FLOAT_EQ(cache.values().at({0, 0}), -4.0f);
  }
  // Ring size mismatch, and visible > min(appended, window).
  for (const ckpt::ByteWriter& bad : {ring_record(2, 2, 5), ring_record(2, 3)}) {
    ckpt::ByteReader reader(bad.buffer());
    KVCache cache(blocks, 3);
    EXPECT_THROW(decode_kv_cache(reader, cache), util::CheckpointCorrupt);
  }
  // Restoring over a cache that already holds rows.
  const ckpt::ByteWriter writer = ring_record(1, 1);
  ckpt::ByteReader reader(writer.buffer());
  KVCache cache(blocks, 3);
  cache.append(Tensor::zeros({4}), Tensor::zeros({4}));
  EXPECT_THROW(decode_kv_cache(reader, cache), CheckError);
}

TEST(WindowKV, ValidatesInputs) {
  MemoryPool pool("h", 1 << 20);
  KVBlockPool accounting({.block_tokens = 4, .bytes_per_block = 64}, &pool);
  EXPECT_THROW(KVCache(accounting, 4), CheckError);  // no rows to hold
  KVBlockPool blocks(blocks_of(8), &pool);
  EXPECT_THROW(KVCache(blocks, -1), CheckError);
  KVCache cache(blocks, 4);
  EXPECT_THROW(cache.append(Tensor::zeros({4}), Tensor::zeros({4})),
               CheckError);
}

}  // namespace
}  // namespace lmo::runtime
