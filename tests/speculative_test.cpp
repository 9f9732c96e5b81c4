// Tests for speculative decoding and KV-cache truncation (its substrate).
#include <gtest/gtest.h>

#include "lmo/runtime/kv_cache.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/runtime/speculative.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

// ------------------------------------------------------------- truncate --

TEST(Truncate, RollsBackRowsAndRefundsWholeBlocks) {
  MemoryPool mem("h", 1 << 20);
  KVBlockPool pool({.block_tokens = 4, .hidden = 8}, &mem);
  KVCache cache(pool);
  util::Xoshiro256 rng(1);
  std::vector<Tensor> ks;
  for (int i = 0; i < 6; ++i) {
    ks.push_back(Tensor::uniform({8}, rng));
    cache.append(ks.back(), ks.back());
  }
  const auto used_at_6 = mem.used();  // two 4-token blocks
  cache.truncate(3);
  EXPECT_EQ(cache.length(), 3);
  EXPECT_EQ(mem.used(), used_at_6 / 2);
  // Remaining rows intact.
  EXPECT_EQ(cache.keys().max_abs_diff(
                tensor::concat_rows(
                    tensor::concat_rows(ks[0].reshaped({1, 8}),
                                        ks[1].reshaped({1, 8})),
                    ks[2].reshaped({1, 8}))),
            0.0f);
  // Re-append after truncation works.
  cache.append(ks[0], ks[0]);
  EXPECT_EQ(cache.length(), 4);
  EXPECT_THROW(cache.truncate(5), CheckError);
}

TEST(Truncate, FreesWholeBlocks) {
  MemoryPool mem("p", 1 << 20);
  KVBlockPool pool({.block_tokens = 4, .hidden = 8}, &mem);
  KVCache cache(pool);
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 10; ++i) {
    cache.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
  }
  EXPECT_EQ(pool.live_blocks(), 3u);  // ceil(10/4)
  cache.truncate(4);                  // exactly one block's worth
  EXPECT_EQ(cache.length(), 4);
  EXPECT_EQ(pool.live_blocks(), 1u);
  cache.truncate(0);
  EXPECT_EQ(pool.live_blocks(), 0u);
}

// ----------------------------------------------------------- speculative --

RuntimeConfig model_config(std::int64_t layers, std::int64_t hidden,
                           std::uint64_t seed) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(layers, hidden, 4, 64);
  config.prefetch_threads = 0;
  config.seed = seed;
  return config;
}

TEST(Speculative, LosslessVsVanillaGreedy) {
  const std::vector<std::int64_t> prompt = {5, 9, 2, 7, 1, 33};
  const std::int64_t gen_len = 20;

  // Vanilla target-only greedy decoding.
  Generator vanilla(model_config(2, 32, 42));
  const auto reference = vanilla.generate({prompt}, gen_len).tokens[0];

  // Speculative with an unrelated (bad) draft must still match exactly.
  for (int k : {1, 3, 6}) {
    Generator target(model_config(2, 32, 42));
    Generator draft(model_config(1, 32, 99));  // different weights
    SpeculativeConfig config;
    config.draft_tokens = k;
    const auto result =
        speculative_generate(target, draft, prompt, gen_len, config);
    EXPECT_EQ(result.tokens, reference) << "k=" << k;
    EXPECT_GT(result.draft_proposed, 0);
  }
}

TEST(Speculative, PerfectDraftAcceptsEverythingAndSavesPasses) {
  // Draft == target (same seed & shape): every proposal is accepted, so
  // the target verifies in blocks instead of stepping token by token.
  const std::vector<std::int64_t> prompt = {3, 1, 4, 1, 5};
  const std::int64_t gen_len = 16;
  Generator target(model_config(2, 32, 7));
  Generator draft(model_config(2, 32, 7));
  SpeculativeConfig config;
  config.draft_tokens = 4;
  const auto result =
      speculative_generate(target, draft, prompt, gen_len, config);
  EXPECT_EQ(result.acceptance_rate(), 1.0);
  // Block verification: far fewer target passes than tokens.
  EXPECT_LT(result.target_forward_passes, gen_len);

  Generator vanilla(model_config(2, 32, 7));
  EXPECT_EQ(result.tokens, vanilla.generate({prompt}, gen_len).tokens[0]);
}

TEST(Speculative, ReportsAcceptanceStats) {
  Generator target(model_config(2, 32, 11));
  Generator draft(model_config(1, 32, 13));
  const auto result = speculative_generate(target, draft, {8, 6, 4}, 12,
                                           SpeculativeConfig{3});
  EXPECT_EQ(result.tokens.size(), 12u);
  EXPECT_GE(result.draft_accepted, 0);
  EXPECT_LE(result.draft_accepted, result.draft_proposed);
  EXPECT_GE(result.acceptance_rate(), 0.0);
  EXPECT_LE(result.acceptance_rate(), 1.0);
  EXPECT_GT(result.target_forward_passes, 0);
}

TEST(Speculative, ValidatesInputs) {
  Generator target(model_config(2, 32, 1));
  Generator draft(model_config(1, 32, 2));
  EXPECT_THROW(speculative_generate(target, draft, {}, 4), CheckError);
  EXPECT_THROW(speculative_generate(target, draft, {1}, 0), CheckError);
  EXPECT_THROW(
      speculative_generate(target, draft, {1}, 4, SpeculativeConfig{0}),
      CheckError);
  // Vocabulary mismatch rejected.
  RuntimeConfig other = model_config(1, 32, 3);
  other.spec.vocab = 128;
  Generator mismatched(other);
  EXPECT_THROW(speculative_generate(target, mismatched, {1}, 4), CheckError);
}

}  // namespace
}  // namespace lmo::runtime
