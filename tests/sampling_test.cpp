// Tests for sampling-based decoding and per-family MLP activations.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "lmo/runtime/generator.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

// ------------------------------------------------------------ activations --

TEST(Activation, SiluMatchesReference) {
  Tensor a = Tensor::from_values({3}, {-2.0f, 0.0f, 2.0f});
  Tensor s = tensor::silu(a);
  EXPECT_NEAR(s.at({0}), -2.0f / (1.0f + std::exp(2.0f)), 1e-6f);
  EXPECT_FLOAT_EQ(s.at({1}), 0.0f);
  EXPECT_NEAR(s.at({2}), 2.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
}

TEST(Activation, ModelFamiliesUseTheRightOne) {
  EXPECT_EQ(model::ModelSpec::opt_30b().activation,
            model::Activation::kRelu);
  EXPECT_EQ(model::ModelSpec::llama_65b().activation,
            model::Activation::kSilu);
  EXPECT_EQ(model::ModelSpec::tiny().activation, model::Activation::kGelu);
  EXPECT_STREQ(model::to_string(model::Activation::kRelu), "relu");
}

TEST(Activation, ChangingActivationChangesLogits) {
  RuntimeConfig gelu_config;
  gelu_config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  gelu_config.prefetch_threads = 0;
  RuntimeConfig relu_config = gelu_config;
  relu_config.spec.activation = model::Activation::kRelu;

  Generator g_gelu(gelu_config);
  Generator g_relu(relu_config);
  const std::vector<std::int64_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6};

  auto logits_of = [&](Generator& g) {
    auto cache = g.transformer().make_cache(g.kv_blocks());
    std::vector<Tensor> states = {g.transformer().embed(prompt)};
    std::vector<SequenceCache*> caches = {&cache};
    g.transformer().forward(states, caches);
    return g.transformer().logits(states[0]);
  };
  // Same synthetic weights, different MLP non-linearity → different logits.
  EXPECT_GT(logits_of(g_gelu).max_abs_diff(logits_of(g_relu)), 1e-3f);
}

// --------------------------------------------------------------- sampling --

Tensor peaked_logits() {
  // Token 2 strongly preferred, 5 and 7 plausible, rest negligible.
  Tensor logits = Tensor::full({10}, -10.0f);
  logits.set({2}, 5.0f);
  logits.set({5}, 3.5f);
  logits.set({7}, 3.0f);
  return logits;
}

TEST(Sampling, GreedyPicksArgmax) {
  SamplingConfig config;  // temperature 0
  util::Xoshiro256 rng(1);
  EXPECT_EQ(sample_token(peaked_logits(), config, rng), 2);
}

TEST(Sampling, ValidatesConfig) {
  SamplingConfig config;
  config.temperature = -1.0;
  EXPECT_THROW(config.validate(), CheckError);
  config.temperature = 1.0;
  config.top_k = -1;
  EXPECT_THROW(config.validate(), CheckError);
}

TEST(Sampling, DeterministicForFixedSeed) {
  SamplingConfig config;
  config.temperature = 1.0;
  util::Xoshiro256 a(99), b(99);
  const Tensor logits = peaked_logits();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sample_token(logits, config, a),
              sample_token(logits, config, b));
  }
}

TEST(Sampling, TopKExcludesTail) {
  SamplingConfig config;
  config.temperature = 5.0;  // nearly uniform over candidates
  config.top_k = 3;
  util::Xoshiro256 rng(7);
  const Tensor logits = peaked_logits();
  for (int i = 0; i < 200; ++i) {
    const auto token = sample_token(logits, config, rng);
    EXPECT_TRUE(token == 2 || token == 5 || token == 7) << token;
  }
}

TEST(Sampling, FrequenciesFollowTemperatureSoftmax) {
  SamplingConfig config;
  config.temperature = 1.0;
  util::Xoshiro256 rng(13);
  const Tensor logits = peaked_logits();
  std::map<std::int64_t, int> counts;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) ++counts[sample_token(logits, config, rng)];
  // p(2) = e^5 / (e^5 + e^3.5 + e^3 + 7·e^-10) ≈ 0.736.
  EXPECT_NEAR(static_cast<double>(counts[2]) / draws, 0.736, 0.04);
  EXPECT_GT(counts[5], counts[7]);
  EXPECT_EQ(counts.count(0), 0u);  // e^-10 tail essentially never drawn
}

TEST(Sampling, TopPKeepsOnlyTheNucleus) {
  // With p(2) ≈ 0.74, top_p = 0.7 keeps only token 2.
  SamplingConfig config;
  config.temperature = 1.0;
  config.top_p = 0.7;
  util::Xoshiro256 rng(29);
  const Tensor logits = peaked_logits();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sample_token(logits, config, rng), 2);
  }
  // top_p = 0.95 keeps {2, 5, 7}.
  config.top_p = 0.95;
  for (int i = 0; i < 200; ++i) {
    const auto token = sample_token(logits, config, rng);
    EXPECT_TRUE(token == 2 || token == 5 || token == 7) << token;
  }
}

TEST(Sampling, TopPValidated) {
  SamplingConfig config;
  config.temperature = 1.0;
  config.top_p = 1.5;
  EXPECT_THROW(config.validate(), CheckError);
  config.top_p = 1.0;  // exactly 1 = keep everything
  EXPECT_NO_THROW(config.validate());
}

TEST(Sampling, TopPComposesWithTopK) {
  SamplingConfig config;
  config.temperature = 2.0;
  config.top_k = 2;   // {2, 5}
  config.top_p = 0.5; // then keep just the head of that set
  util::Xoshiro256 rng(31);
  const Tensor logits = peaked_logits();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_token(logits, config, rng), 2);
  }
}

TEST(Sampling, LowTemperatureApproachesGreedy) {
  SamplingConfig config;
  config.temperature = 0.05;
  util::Xoshiro256 rng(17);
  const Tensor logits = peaked_logits();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_token(logits, config, rng), 2);
  }
}

TEST(Sampling, GeneratorEndToEndSampledRunsAreSeedReproducible) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.prefetch_threads = 0;
  config.sampling.temperature = 0.8;
  config.sampling.top_k = 8;
  config.sampling.seed = 555;

  Generator g1(config);
  Generator g2(config);
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  const auto run1 = g1.generate(prompts, 10).tokens;
  EXPECT_EQ(run1, g2.generate(prompts, 10).tokens);

  // At a very high temperature the distribution is near-uniform over the
  // vocabulary, so the sampled continuation must diverge from greedy.
  config.sampling.temperature = 50.0;
  config.sampling.top_k = 0;
  Generator hot(config);
  RuntimeConfig greedy_config = config;
  greedy_config.sampling = SamplingConfig{};
  Generator greedy(greedy_config);
  EXPECT_NE(hot.generate(prompts, 10).tokens,
            greedy.generate(prompts, 10).tokens);
}

}  // namespace
}  // namespace lmo::runtime
