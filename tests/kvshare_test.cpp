// Tests for the cross-request KV prefix-sharing subsystem: radix-tree
// longest-prefix matching, publishing by reference, copy-on-write fork
// isolation over shared blocks, refcount / eviction invariants (pinned
// chains survive pressure, pool bytes stay exact, pressure relief counts
// only freed bytes), the pool-accounting property every KV backend must
// honour (clone+destroy and truncate-to-zero return the pool to baseline),
// and the end-to-end contract — prefix sharing ON produces byte-identical
// tokens to OFF while strictly reducing prefilled tokens and moved bytes,
// through generation, serving, preemption and checkpoint kill-resume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/kvshare/radix_tree.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/tensor/tensor.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::kvshare {
namespace {

using runtime::MemoryPool;
using tensor::Tensor;

std::vector<std::int64_t> seq(std::int64_t n, std::int64_t start = 0) {
  std::vector<std::int64_t> tokens;
  for (std::int64_t i = 0; i < n; ++i) tokens.push_back(start + i);
  return tokens;
}

struct TempFile {
  explicit TempFile(std::string name) : path(std::move(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// -- radix tree ------------------------------------------------------------

TEST(RadixTree, LongestPrefixMatchIsWholeBlocks) {
  RadixTree tree(4);
  std::int64_t next_block = 0;
  const auto make_block = [&](std::int64_t) { return next_block++; };

  const auto tokens = seq(12);
  EXPECT_EQ(tree.insert(tokens, make_block).size(), 3u);
  EXPECT_EQ(tree.node_count(), 3u);

  EXPECT_EQ(tree.lookup(tokens).size(), 3u);
  // 7 tokens only cover one whole block.
  EXPECT_EQ(tree.lookup(std::span(tokens.data(), 7)).size(), 1u);
  // A prompt diverging inside the first block misses entirely.
  auto diverged = tokens;
  diverged[2] = 999;
  EXPECT_TRUE(tree.lookup(diverged).empty());
}

TEST(RadixTree, SameFirstTokenDivergentBlocksAreDistinctChildren) {
  RadixTree tree(4);
  std::int64_t next_block = 0;
  const auto make_block = [&](std::int64_t) { return next_block++; };

  const std::vector<std::int64_t> a = {5, 1, 2, 3};
  const std::vector<std::int64_t> b = {5, 1, 2, 9};  // diverges at slot 3
  tree.insert(a, make_block);
  tree.insert(b, make_block);
  EXPECT_EQ(tree.node_count(), 2u);
  EXPECT_EQ(tree.lookup(a).back()->block, 0);
  EXPECT_EQ(tree.lookup(b).back()->block, 1);
}

TEST(RadixTree, InsertReusesExistingNodesAndStopsOnDenial) {
  RadixTree tree(2);
  std::int64_t allocated = 0;
  tree.insert(seq(4), [&](std::int64_t) { return allocated++; });
  // Extending a cached chain only allocates the new tail block.
  tree.insert(seq(6), [&](std::int64_t offset) {
    EXPECT_EQ(offset, 4);  // only the missing block is requested
    return allocated++;
  });
  EXPECT_EQ(allocated, 3);
  // A denied allocation cuts the chain short instead of erroring.
  const auto chain = tree.insert(seq(10), [&](std::int64_t) {
    return std::int64_t{-1};
  });
  EXPECT_EQ(chain.size(), 3u);
  EXPECT_EQ(tree.node_count(), 3u);
}

TEST(RadixTree, EvictionIsLruByLeafAndPinsProtectAncestors) {
  RadixTree tree(2);
  std::int64_t next_block = 0;
  const auto make_block = [&](std::int64_t) { return next_block++; };

  // Chain A: blocks 0, 1. Chain B: block 2.
  tree.insert(seq(4, 100), make_block);
  tree.insert(seq(2, 200), make_block);
  // Touch A so B becomes the LRU leaf.
  tree.lookup(seq(4, 100));
  EXPECT_EQ(tree.evict_lru(), 2);

  // Pinning A's leaf protects the whole chain: nothing is evictable.
  auto chain = tree.lookup(seq(4, 100));
  ASSERT_EQ(chain.size(), 2u);
  tree.pin(chain.back());
  EXPECT_EQ(tree.evict_lru(), -1);
  tree.unpin(chain.back());
  // Unpinned, the chain dies tail-first (only leaves are candidates).
  EXPECT_EQ(tree.evict_lru(), 1);
  EXPECT_EQ(tree.evict_lru(), 0);
  EXPECT_EQ(tree.evict_lru(), -1);
  EXPECT_EQ(tree.node_count(), 0u);
}

using Blocks = std::vector<std::int64_t>;

// -- prefix cache ----------------------------------------------------------

/// 4-token blocks of 2-wide rows: one node is 64 bytes.
runtime::KVBlockPoolConfig small_blocks(std::int64_t hidden = 2) {
  runtime::KVBlockPoolConfig config;
  config.block_tokens = 4;
  config.hidden = hidden;
  return config;
}

/// A one-layer paged cache whose row t holds t in K and -t in V.
std::unique_ptr<runtime::KVCache> position_rows(
    runtime::KVBlockPool& blocks, std::int64_t tokens) {
  auto rows = std::make_unique<runtime::KVCache>(blocks);
  for (std::int64_t t = 0; t < tokens; ++t) {
    rows->append(Tensor::full({blocks.hidden()}, static_cast<float>(t)),
                 Tensor::full({blocks.hidden()}, -static_cast<float>(t)));
  }
  return rows;
}

/// Publish `tokens` the way a finished prefill does: the cache refs the
/// blocks of a sequence that computed them (position_rows).
std::shared_ptr<PrefixLease> publish(PrefixCache& cache,
                                     runtime::KVBlockPool& blocks,
                                     const std::vector<std::int64_t>& tokens) {
  const auto rows =
      position_rows(blocks, static_cast<std::int64_t>(tokens.size()));
  return cache.insert(tokens, [&](std::int64_t offset) {
    return Blocks{rows->block_table()[static_cast<std::size_t>(
        offset / blocks.block_tokens())]};
  });
}

TEST(PrefixCache, MatchIsCappedBelowThePromptLength) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  PrefixCache cache(blocks, 1, nullptr);
  publish(cache, blocks, seq(8));

  // A fully cached prompt still leaves one token to prefill.
  const auto full = cache.match(seq(8));
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->matched_tokens(), 4);
  // A longer prompt uses the whole cached chain.
  const auto longer = cache.match(seq(12));
  ASSERT_NE(longer, nullptr);
  EXPECT_EQ(longer->matched_tokens(), 8);
  EXPECT_EQ(cache.match(seq(3)), nullptr);  // shorter than one block
}

TEST(PrefixCache, MetricsFollowARegistryReset) {
  // The cache resolves its kvshare.* handles once; a registry reset()
  // invalidates them, and the next operation must record into the fresh
  // metrics rather than the dropped ones.
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  telemetry::MetricsRegistry metrics;
  PrefixCache cache(blocks, 1, &metrics);
  publish(cache, blocks, seq(8));
  EXPECT_EQ(cache.match(seq(12))->matched_tokens(), 8);
  EXPECT_EQ(metrics.counter("kvshare.hit_tokens").value(), 8u);
  EXPECT_EQ(metrics.counter("kvshare.miss_tokens").value(), 4u);
  EXPECT_EQ(metrics.counter("kvshare.inserted_blocks").value(), 2u);

  metrics.reset();
  EXPECT_EQ(cache.match(seq(8))->matched_tokens(), 4);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("kvshare.hit_tokens"), 4u);
  EXPECT_EQ(snap.counter("kvshare.miss_tokens"), 4u);
  EXPECT_EQ(snap.find("kvshare.inserted_blocks"), nullptr);  // none since
  EXPECT_EQ(snap.gauge("kvshare.blocks_in_use"), 2.0);
}

TEST(PrefixCache, PinnedChainsSurvivePressureAndBytesStayExact) {
  MemoryPool pool("host", 3 * 64);  // room for three blocks
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  PrefixCache cache(blocks, 1, nullptr);
  const std::size_t block_bytes = cache.node_bytes();
  ASSERT_EQ(block_bytes, 64u);

  auto pinned = cache.insert(seq(8, 1000));
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->blocks(), 2u);
  EXPECT_EQ(pool.used(), 2 * block_bytes);

  // Third block fits; the next insert must evict — but both candidates are
  // pinned, so the chain is cut short rather than evicting pinned blocks.
  auto overflow = cache.insert(seq(8, 2000));
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->blocks(), 1u);
  EXPECT_EQ(pool.used(), 3 * block_bytes);
  ASSERT_NE(cache.match(seq(8, 1000)), nullptr);  // pinned chain intact

  // Release the pins: pressure can now evict, and bytes return exactly.
  pinned.reset();
  overflow.reset();
  auto fresh = cache.insert(seq(12, 3000));
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->blocks(), 3u);
  EXPECT_EQ(pool.used(), 3 * block_bytes);
  EXPECT_EQ(cache.match(seq(8, 1000)), nullptr);  // old chain evicted

  fresh.reset();
  EXPECT_EQ(cache.evict(100), 3u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(cache.node_count(), 0u);
}

TEST(PrefixCache, PoolDenialEvictsOrCutsTheChainGracefully) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  PrefixCache cache(blocks, 1, nullptr);

  // Denied with nothing to evict: the insert yields nothing, no error.
  {
    util::ScopedFaultInjection chaos(7);
    util::FaultSpec spec;
    spec.alloc_failures = 1;  // deny exactly one block charge
    chaos.arm("pool.host.charge", spec);
    EXPECT_EQ(cache.insert(seq(12)), nullptr);
  }

  // With unpinned content cached, a denial evicts an LRU leaf and retries.
  cache.insert(seq(8, 900));
  {
    util::ScopedFaultInjection chaos(8);
    util::FaultSpec spec;
    spec.alloc_failures = 1;
    chaos.arm("pool.host.charge", spec);
    const auto lease = cache.insert(seq(12));
    ASSERT_NE(lease, nullptr);
    EXPECT_EQ(lease->blocks(), 3u);
  }
  // The victim came out of the earlier chain.
  EXPECT_EQ(cache.node_count(), 4u);
}

TEST(PrefixCache, PublishingSharesTheSequenceBlocks) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  PrefixCache cache(blocks, 1, nullptr);
  // A 10-token sequence: two full blocks and a partial tail.
  const auto rows = position_rows(blocks, 10);
  const std::size_t sequence_bytes = pool.used();
  const auto published = cache.insert(seq(10), [&](std::int64_t offset) {
    return Blocks{rows->block_table()[static_cast<std::size_t>(offset / 4)]};
  });
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->blocks(), 2u);  // full blocks only
  EXPECT_EQ(pool.used(), sequence_bytes);  // refs, not copies
  EXPECT_EQ(cache.bytes_in_use(), 2 * cache.node_bytes());
  EXPECT_EQ(blocks.refcount(rows->block_table()[0]), 2);
  EXPECT_EQ(blocks.refcount(rows->block_table()[2]), 1);
  EXPECT_EQ(published->block(1, 0), rows->block_table()[1]);
}

TEST(PrefixCache, PressureReliefReportsOnlyBytesActuallyFreed) {
  MemoryPool pool("host", 4 * 64);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  PrefixCache cache(blocks, 1, nullptr);
  // Two cached blocks whose publisher is still alive (refcount 2) and one
  // block only the cache holds.
  const auto live = position_rows(blocks, 8);
  cache.insert(seq(8), [&](std::int64_t offset) {
    return Blocks{live->block_table()[static_cast<std::size_t>(offset / 4)]};
  });
  publish(cache, blocks, seq(4, 500));
  ASSERT_EQ(pool.used(), 3 * 64u);
  // A sequence needing two more blocks: the first fits, the second makes
  // the pool ask the cache for relief. Evicting a block the live sequence
  // still reads would free nothing, so relief passes over the older chain
  // and evicts exactly the one node whose block comes free.
  runtime::KVCache next(blocks);
  util::Xoshiro256 rng(4);
  for (int t = 0; t < 8; ++t) {
    next.append(Tensor::uniform({2}, rng), Tensor::uniform({2}, rng));
  }
  EXPECT_EQ(next.block_table().size(), 2u);
  EXPECT_EQ(pool.used(), 4 * 64u);
  EXPECT_EQ(cache.node_count(), 2u);
  EXPECT_EQ(blocks.refcount(live->block_table()[0]), 2);  // still cached
  EXPECT_EQ(blocks.refcount(live->block_table()[1]), 2);
  EXPECT_EQ(cache.match(seq(12))->matched_tokens(), 8);
  EXPECT_EQ(cache.match(seq(8, 500)), nullptr);  // the evicted node
  // Explicit eviction keeps plain LRU order: the older chain's leaf goes
  // first even though that frees nothing.
  EXPECT_EQ(cache.evict(1), 1u);
  EXPECT_EQ(cache.match(seq(12))->matched_tokens(), 4);
  EXPECT_EQ(pool.used(), 4 * 64u);
}

// -- caches over a lease (copy-on-write) ------------------------------------

TEST(KVCacheOverLease, CowTruncateNeverTouchesSharedBlocks) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  PrefixCache cache(blocks, 1, nullptr);
  publish(cache, blocks, seq(8));
  auto lease = cache.match(seq(12));
  ASSERT_NE(lease, nullptr);
  const float* shared_block = blocks.data(lease->block(1, 0));

  runtime::KVCache a(*lease, 0);
  a.append(Tensor::full({2}, 100.0f), Tensor::full({2}, -100.0f));
  a.append(Tensor::full({2}, 101.0f), Tensor::full({2}, -101.0f));
  ASSERT_EQ(a.length(), 10);

  // Fork, then truncate the original into the shared region.
  auto fork = std::make_unique<runtime::KVCache>(a.clone());
  a.truncate(6);
  EXPECT_EQ(a.length(), 6);
  EXPECT_EQ(a.block_table().size(), 2u);  // the shared blocks, no copy yet

  // The fork still sees every original row…
  EXPECT_EQ(fork->length(), 10);
  EXPECT_FLOAT_EQ(fork->keys().at({9, 0}), 101.0f);
  EXPECT_FLOAT_EQ(fork->keys().at({5, 0}), 5.0f);
  // …the truncated cache re-reads its surviving rows bit-exactly…
  EXPECT_FLOAT_EQ(a.keys().at({5, 0}), 5.0f);
  EXPECT_FLOAT_EQ(a.values().at({5, 0}), -5.0f);
  // …and the shared payload itself was never written.
  EXPECT_FLOAT_EQ(shared_block[2 * 2], 6.0f);  // token 6, slot 2

  // Appending after the truncate copies the shared block first, so the
  // two caches diverge independently.
  a.append(Tensor::full({2}, 500.0f), Tensor::full({2}, -500.0f));
  EXPECT_NE(a.block_table()[1], lease->block(1, 0));
  EXPECT_FLOAT_EQ(a.keys().at({6, 0}), 500.0f);
  EXPECT_FLOAT_EQ(a.keys().at({5, 0}), 5.0f);
  EXPECT_FLOAT_EQ(fork->keys().at({6, 0}), 6.0f);  // still the shared row
  EXPECT_FLOAT_EQ(fork->keys().at({8, 0}), 100.0f);
  EXPECT_FLOAT_EQ(shared_block[2 * 2], 6.0f);  // token 6, slot 2
}

TEST(KVCacheOverLease, TruncateToZeroDropsEveryPrivateByte) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  PrefixCache cache(blocks, 1, nullptr);
  publish(cache, blocks, seq(8));
  const auto cached_bytes = pool.used();

  auto lease = cache.match(seq(12));
  ASSERT_NE(lease, nullptr);
  {
    runtime::KVCache a(*lease, 0);
    lease.reset();  // the cache's blocks outlive the pin they came from
    EXPECT_EQ(pool.used(), cached_bytes);  // starting from a lease is free
    a.append(Tensor::full({2}, 1.0f), Tensor::full({2}, 2.0f));
    EXPECT_GT(pool.used(), cached_bytes);
    a.truncate(0);
    EXPECT_EQ(a.length(), 0);
    EXPECT_EQ(pool.used(), cached_bytes);  // private bytes all returned
    a.append(Tensor::full({2}, 3.0f), Tensor::full({2}, 4.0f));
    EXPECT_FLOAT_EQ(a.keys().at({0, 0}), 3.0f);
  }
  EXPECT_EQ(pool.used(), cached_bytes);  // destructor exact too
  EXPECT_EQ(cache.pinned_leases(), 0u);
}

// -- pool-accounting property: every backend returns to baseline -----------

TEST(KVPoolAccounting, CloneDestroyAndTruncateToZeroReturnToBaseline) {
  util::Xoshiro256 rng(11);
  const std::int64_t hidden = 8;
  for (const char* flavor : {"dense", "kv4", "window", "shared"}) {
    SCOPED_TRACE(flavor);
    MemoryPool pool("host", 1 << 20);
    runtime::KVBlockPool blocks(small_blocks(hidden), &pool);
    runtime::KVBlockPool kv4_blocks(
        {.block_tokens = 4, .hidden = hidden, .bits = 4, .group_size = 4},
        &pool);
    std::unique_ptr<PrefixCache> prefix;
    std::unique_ptr<runtime::KVCache> cache;
    if (std::string(flavor) == "dense") {
      cache = std::make_unique<runtime::KVCache>(blocks);
    } else if (std::string(flavor) == "kv4") {
      cache = std::make_unique<runtime::KVCache>(kv4_blocks);
    } else if (std::string(flavor) == "window") {
      cache = std::make_unique<runtime::KVCache>(blocks, 32);
    } else {
      prefix = std::make_unique<PrefixCache>(blocks, 1, nullptr);
      publish(*prefix, blocks, seq(8));
      cache = std::make_unique<runtime::KVCache>(*prefix->match(seq(12)), 0);
    }
    const auto empty_bytes = pool.used();

    for (int i = 0; i < 10; ++i) {
      cache->append(Tensor::uniform({hidden}, rng),
                    Tensor::uniform({hidden}, rng));
    }
    const auto filled_bytes = pool.used();

    // clone + destroy-the-clone is byte-neutral.
    {
      const auto copy = cache->clone();
      EXPECT_GE(pool.used(), filled_bytes);
    }
    EXPECT_EQ(pool.used(), filled_bytes);

    // truncate-to-zero returns every variable byte (the prefix cache's
    // blocks are the cache's, included in empty_bytes).
    cache->truncate(0);
    EXPECT_EQ(pool.used(), empty_bytes);

    cache.reset();
    prefix.reset();
    EXPECT_EQ(pool.used(), 0u);
  }
}

// -- shared-prefix workload (satellite) ------------------------------------

TEST(SharedPrefixWorkload, DeterministicAndTemplateStructured) {
  serve::SharedPrefixProfile profile;
  profile.num_templates = 3;
  profile.template_tokens = 16;
  const auto a = serve::generate_shared_prefix_requests(profile, 40, 7);
  const auto b = serve::generate_shared_prefix_requests(profile, 40, 7);
  ASSERT_EQ(a.size(), 40u);

  std::set<std::vector<std::int64_t>> prefixes;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);  // same seed, same run
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].prompt_len,
              static_cast<std::int64_t>(a[i].prompt_tokens.size()));
    EXPECT_GT(a[i].prompt_len, profile.template_tokens);
    prefixes.insert({a[i].prompt_tokens.begin(),
                     a[i].prompt_tokens.begin() + profile.template_tokens});
  }
  EXPECT_LE(prefixes.size(), 3u);  // every prompt starts with a template
  EXPECT_GT(prefixes.size(), 1u);

  const auto other = serve::generate_shared_prefix_requests(profile, 40, 8);
  EXPECT_NE(other[0].prompt_tokens, a[0].prompt_tokens);
}

// -- serving simulator integration -----------------------------------------

TEST(ServeSim, PrefixShareCutsPrefilledTokensAndSwappedBytes) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto platform = hw::Platform::a100_single();
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.5;
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 4;
  policy.parallelism_control = true;

  serve::SharedPrefixProfile profile;
  profile.base.arrival_rate = 8.0;
  profile.num_templates = 3;
  profile.template_tokens = 96;
  const auto requests =
      serve::generate_shared_prefix_requests(profile, 60, 42);

  serve::ServeConfig config;
  config.max_batch = 8;
  config.prefill_chunk = 32;
  config.preempt = true;
  config.preempt_wait_seconds = 0.5;

  config.prefix_share = false;
  const auto off =
      serve::simulate_serving(spec, policy, platform, requests, config);
  config.prefix_share = true;
  config.kv_block_tokens = 16;
  const auto on =
      serve::simulate_serving(spec, policy, platform, requests, config);

  // Same requests complete either way; sharing only removes work.
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_GT(on.prefix_hit_tokens, 0u);
  EXPECT_GT(on.prefix_bytes_saved, 0.0);
  EXPECT_LT(on.prefill_tokens, off.prefill_tokens);  // strictly fewer
  ASSERT_GT(off.preemptions, 0u);
  EXPECT_LT(on.kv_swap_bytes, off.kv_swap_bytes);  // only private tails move
  EXPECT_LE(on.ttft_p50, off.ttft_p50);
  EXPECT_EQ(off.prefix_hit_tokens, 0u);  // OFF records nothing

  // Sharing is deterministic: the same run replays to identical metrics.
  const auto replay =
      serve::simulate_serving(spec, policy, platform, requests, config);
  EXPECT_EQ(replay.prefill_tokens, on.prefill_tokens);
  EXPECT_EQ(replay.prefix_hit_tokens, on.prefix_hit_tokens);
  EXPECT_EQ(replay.duration, on.duration);
}

// -- generator end-to-end ---------------------------------------------------

runtime::RuntimeConfig tiny_share_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 2, 64);
  config.weight_bits = 8;
  config.quant_group = 16;
  config.device_layers = 0;
  config.prefetch_threads = 0;
  return config;
}

std::vector<std::vector<std::int64_t>> shared_prompts(std::int64_t stem_len,
                                                      std::int64_t salt) {
  std::vector<std::int64_t> stem;
  for (std::int64_t t = 0; t < stem_len; ++t) {
    stem.push_back(1 + (t * 5) % 48);
  }
  std::vector<std::vector<std::int64_t>> prompts;
  for (std::int64_t s = 0; s < 2; ++s) {
    auto p = stem;
    p.push_back(50 + salt + s);
    p.push_back(51 + salt);
    prompts.push_back(std::move(p));
  }
  return prompts;
}

TEST(GeneratorPrefixShare, TokensAreByteIdenticalToSharingOff) {
  const auto batch_a = shared_prompts(16, 0);
  const auto batch_b = shared_prompts(16, 7);

  auto config = tiny_share_config();
  // Shared blocks hold the rows at the session's bit width, so reuse is
  // bit-exact for quantized KV too.
  for (const int bits : {16, 8, 4}) {
    SCOPED_TRACE("kv" + std::to_string(bits));
    config.kv_bits = bits;
    config.prefix_share = false;
    runtime::Generator off(config);
    const auto off_a = off.generate(batch_a, 8).tokens;
    const auto off_b = off.generate(batch_b, 8).tokens;
    config.prefix_share = true;
    config.kv_block_tokens = 4;
    runtime::Generator on(config);
    const auto on_a = on.generate(batch_a, 8).tokens;
    const auto on_b = on.generate(batch_b, 8).tokens;

    EXPECT_EQ(on_a, off_a);
    EXPECT_EQ(on_b, off_b);  // batch B decoded over reused prefix KV

    const auto snap = on.manager().metrics().snapshot();
    ASSERT_NE(snap.find("kvshare.hit_tokens"), nullptr);
    EXPECT_GT(snap.counter("kvshare.hit_tokens"), 0u);
    EXPECT_GT(snap.counter("kvshare.bytes_saved"), 0u);
  }
}

TEST(GeneratorPrefixShare, RejectsAWindowCache) {
  auto config = tiny_share_config();
  config.prefix_share = true;
  config.kv_flavor = runtime::KVFlavor::kWindow;
  EXPECT_THROW(runtime::Generator{config}, util::CheckError);
  config.kv_bits = 4;
  EXPECT_THROW(runtime::Generator{config}, util::CheckError);
  config.kv_flavor = runtime::KVFlavor::kDense;
  EXPECT_NO_THROW(runtime::Generator{config});
}

TEST(GeneratorPrefixShare, PoolBytesReturnToBaselineAfterEverySession) {
  auto config = tiny_share_config();
  config.prefix_share = true;
  config.kv_block_tokens = 4;
  runtime::Generator gen(config);
  const std::size_t baseline = gen.host_pool().used();
  // 20-token prompts: five full blocks each, the first four shared by
  // every prompt. Once a session ends, only published blocks stay charged:
  // one node is 4 tokens x 2 layers of 2 x 32-float rows.
  const std::size_t node = 2u * (2u * 4u * 32u * sizeof(float));
  gen.generate(shared_prompts(18, 0), 8);
  EXPECT_EQ(gen.host_pool().used(), baseline + 6 * node);
  gen.generate(shared_prompts(18, 7), 8);  // hits 4 blocks, adds 1 each
  EXPECT_EQ(gen.host_pool().used(), baseline + 8 * node);
  const auto snap = gen.manager().metrics().snapshot();
  EXPECT_EQ(snap.find("kvshare.bytes_in_use")->value,
            static_cast<double>(8 * node));
  EXPECT_EQ(snap.find("kvshare.pinned")->value, 0.0);
  EXPECT_EQ(snap.counter("kvshare.hit_tokens"), 32u);
}

TEST(GeneratorPrefixShare, CheckpointKillResumeStaysBitExact) {
  TempFile file("kvshare_kill_resume.ckpt");
  auto config = tiny_share_config();
  config.prefix_share = true;
  config.kv_block_tokens = 4;
  const auto warm = shared_prompts(16, 0);
  const auto prompts = shared_prompts(16, 7);
  const std::int64_t gen_len = 8;

  // Reference: warm the cache, then one uninterrupted generation.
  std::vector<std::vector<std::int64_t>> reference;
  {
    runtime::Generator gen(config);
    gen.generate(warm, 4);
    reference = gen.generate(prompts, gen_len).tokens;
  }

  // Crash mid-decode of the second (prefix-reusing) batch…
  {
    runtime::Generator gen(config);
    gen.generate(warm, 4);
    gen.begin(prompts, gen_len);
    while (gen.step_index() < gen_len / 2 && !gen.done()) gen.step();
    gen.snapshot(file.path);
  }
  // …and resume in a fresh process-equivalent (cold prefix cache: the
  // checkpoint materializes shared chains losslessly, so no warmup run).
  {
    runtime::Generator gen(config);
    gen.resume(file.path);
    while (!gen.done()) gen.step();
    EXPECT_EQ(gen.finish().tokens, reference);
  }
}

// -- concurrency (exercised under TSan in CI) -------------------------------

TEST(PrefixCacheConcurrency, ParallelMatchInsertEvictStaysConsistent) {
  MemoryPool pool("host", 1 << 22);
  runtime::KVBlockPool blocks(small_blocks(4), &pool);
  PrefixCache cache(blocks, 1, nullptr);

  std::atomic<bool> failed{false};
  const auto worker = [&](std::int64_t base) {
    for (int i = 0; i < 200 && !failed.load(); ++i) {
      const auto tokens = seq(8 + (i % 3) * 4, base + (i % 5) * 1000);
      auto lease = cache.insert(tokens);
      auto match = cache.match(tokens);
      if (match != nullptr && match->blocks() > 0) {
        // Pinned blocks stay live and hold what insert stored (zeros).
        if (blocks.data(match->block(0, 0))[0] != 0.0f) failed.store(true);
      }
      if (i % 16 == 0) cache.evict(1);
    }
  };
  std::vector<std::thread> threads;
  for (std::int64_t t = 0; t < 4; ++t) {
    threads.emplace_back(worker, t * 100);
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  cache.evict(1u << 20);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(pool.used(), 0u);  // refcounts balanced across all threads
}

TEST(PrefixCacheConcurrency, ReliefOnAnotherThreadWhileSequencesPublish) {
  // The block pool is shared: one thread appends to paged caches and
  // publishes them while another drives the memory pool into pressure, so
  // the cache's relief callback frees blocks concurrently.
  MemoryPool pool("host", 64 * 64);  // 64 blocks of 4 x 2-wide rows
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  telemetry::MetricsRegistry metrics;
  PrefixCache cache(blocks, 1, &metrics);

  std::thread pressure([&] {
    for (int i = 0; i < 300; ++i) {
      if (pool.try_charge(16 * 64)) pool.release(16 * 64);
    }
  });
  for (int i = 0; i < 300; ++i) {
    try {
      publish(cache, blocks, seq(12, (i % 40) * 100));
    } catch (const util::ResourceExhausted&) {
      // The other thread held the headroom this instant.
    }
  }
  pressure.join();
  EXPECT_GT(metrics.counter("kvshare.evicted_blocks").value(), 0u);
  cache.evict(1u << 20);
  EXPECT_EQ(blocks.live_blocks(), 0u);
  EXPECT_EQ(pool.used(), 0u);
}

// -- integrity quarantine --------------------------------------------------

TEST(PrefixCacheIntegrity, CorruptBlockIsQuarantinedAndExcludedFromMatch) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  integrity::IntegrityConfig iconfig;
  iconfig.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(iconfig, &metrics);
  PrefixCache cache(blocks, 1, &metrics, &registry);

  publish(cache, blocks, seq(12));
  ASSERT_NE(cache.match(seq(12)), nullptr);  // clean chain matches
  ASSERT_EQ(cache.blocks_in_use(), 3u);

  {
    util::ScopedFaultInjection chaos(1);
    util::FaultSpec spec;
    spec.flip_probability = 1.0;  // the first verified block rots at rest
    chaos.arm("integrity.kvshare.flip", spec);
    // The match truncates at the corrupt root block: a total miss.
    EXPECT_EQ(cache.match(seq(12)), nullptr);
  }
  // Nothing pinned the subtree, so quarantine freed it immediately.
  EXPECT_EQ(cache.quarantined_blocks(), 0u);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(metrics.counter("integrity.repair.quarantine").value(), 1u);
  EXPECT_EQ(metrics.counter("integrity.quarantine.blocks").value(), 3u);
  EXPECT_GE(metrics.counter("integrity.verify.failures").value(), 1u);

  // The quarantined prefix stays unmatchable; a fresh insert of the same
  // tokens rebuilds clean blocks that match again.
  EXPECT_EQ(cache.match(seq(12)), nullptr);
  publish(cache, blocks, seq(12));
  EXPECT_NE(cache.match(seq(12)), nullptr);
}

TEST(PrefixCacheIntegrity, LiveLeaseDefersQuarantineFreeUntilRelease) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  integrity::IntegrityConfig iconfig;
  iconfig.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(iconfig, &metrics);
  PrefixCache cache(blocks, 1, &metrics, &registry);

  publish(cache, blocks, seq(12));
  auto lease = cache.match(seq(12));  // pins the chain before the rot
  ASSERT_NE(lease, nullptr);
  const std::int64_t root_block = lease->block(0, 0);
  const float* plane = blocks.data(root_block);

  {
    util::ScopedFaultInjection chaos(1);
    util::FaultSpec spec;
    spec.flip_probability = 1.0;
    chaos.arm("integrity.kvshare.flip", spec);
    EXPECT_EQ(cache.match(seq(12)), nullptr);
  }
  // The subtree is detached from matching but the live lease still pins
  // it: its blocks stay referenced and mapped (ASan guards this read).
  EXPECT_EQ(cache.quarantined_blocks(), 3u);
  EXPECT_EQ(cache.pinned_leases(), 1u);
  EXPECT_EQ(blocks.refcount(root_block), 1);
  volatile float still_mapped = plane[0];
  (void)still_mapped;

  lease.reset();  // the aborted request drops its pin
  EXPECT_EQ(cache.quarantined_blocks(), 0u);
  EXPECT_EQ(cache.pinned_leases(), 0u);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(blocks.live_blocks(), 0u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(metrics.gauge("kvshare.pinned").value(), 0.0);
}

TEST(PrefixCacheIntegrity, RepublishedBlocksKeepTheirOwnFingerprint) {
  MemoryPool pool("host", 1 << 20);
  runtime::KVBlockPool blocks(small_blocks(), &pool);
  integrity::IntegrityConfig iconfig;
  iconfig.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(iconfig, &metrics);
  PrefixCache cache(blocks, 1, &metrics, &registry);
  const auto rot_on_next_match = [] {
    util::FaultSpec spec;
    spec.flip_probability = 1.0;
    return spec;
  };

  publish(cache, blocks, seq(8));
  auto lease = cache.match(seq(12));
  ASSERT_NE(lease, nullptr);
  runtime::KVCache reader(*lease, 0);  // shares the chain's blocks
  {
    util::ScopedFaultInjection chaos(1);
    chaos.arm("integrity.kvshare.flip", rot_on_next_match());
    EXPECT_EQ(cache.match(seq(12)), nullptr);  // quarantined, still pinned
  }
  // The reader publishes the same blocks again under fresh nodes, then the
  // quarantined subtree is reaped. The new nodes' fingerprints must
  // survive that: the next rot is still caught.
  cache.insert(seq(8), [&](std::int64_t offset) {
    return Blocks{reader.block_table()[static_cast<std::size_t>(offset / 4)]};
  });
  lease.reset();
  EXPECT_EQ(cache.quarantined_blocks(), 0u);
  {
    util::ScopedFaultInjection chaos(2);
    chaos.arm("integrity.kvshare.flip", rot_on_next_match());
    EXPECT_EQ(cache.match(seq(12)), nullptr);
  }
  EXPECT_EQ(metrics.counter("integrity.repair.quarantine").value(), 2u);
}

TEST(PrefixCacheIntegrity, AbortStormUnderConcurrentChaosLeaksNothing) {
  MemoryPool pool("host", 1 << 22);
  runtime::KVBlockPool blocks(small_blocks(4), &pool);
  integrity::IntegrityConfig iconfig;
  iconfig.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(iconfig, &metrics);
  PrefixCache cache(blocks, 1, &metrics, &registry);

  util::ScopedFaultInjection chaos(17);
  util::FaultSpec spec;
  spec.flip_probability = 0.02;  // occasional at-rest rot mid-storm
  chaos.arm("integrity.kvshare.flip", spec);

  const auto worker = [&](std::int64_t base) {
    for (int i = 0; i < 150; ++i) {
      const auto tokens = seq(8 + (i % 3) * 4, base + (i % 5) * 1000);
      auto inserted = cache.insert(tokens);
      auto matched = cache.match(tokens);
      if (i % 16 == 0) cache.evict(1);
      // Aborted request: both leases drop unconsumed at scope end.
    }
  };
  std::vector<std::thread> threads;
  for (std::int64_t t = 0; t < 4; ++t) {
    threads.emplace_back(worker, t * 100);
  }
  for (auto& t : threads) t.join();

  // Every abort released its pin and reaped its quarantines: the pinned
  // gauge and the quarantine backlog both return to zero, and the pool
  // balances once the surviving clean blocks are evicted.
  EXPECT_EQ(cache.pinned_leases(), 0u);
  EXPECT_EQ(metrics.gauge("kvshare.pinned").value(), 0.0);
  EXPECT_EQ(cache.quarantined_blocks(), 0u);
  cache.evict(1u << 20);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_GT(metrics.counter("integrity.repair.quarantine").value(), 0u);
}

}  // namespace
}  // namespace lmo::kvshare
