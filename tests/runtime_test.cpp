// Tests for the real-execution path: memory pools, the offload manager
// (including async prefetch staging), the compressed KV cache, the tiny
// transformer's numerics and the end-to-end generator.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "lmo/runtime/evaluate.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/parallel/parallelism_search.hpp"
#include "lmo/runtime/offload_manager.hpp"
#include "lmo/runtime/profiler.hpp"
#include "lmo/runtime/transformer.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

// ----------------------------------------------------------------- pools --

TEST(MemoryPool, ChargesReleasesAndTracksPeak) {
  MemoryPool pool("gpu", 100);
  pool.charge(60);
  EXPECT_EQ(pool.used(), 60u);
  EXPECT_EQ(pool.available(), 40u);
  pool.charge(40);
  EXPECT_EQ(pool.peak(), 100u);
  pool.release(50);
  EXPECT_EQ(pool.used(), 50u);
  EXPECT_EQ(pool.peak(), 100u);  // high-water mark sticks
}

TEST(MemoryPool, OverflowThrowsWithDiagnostics) {
  MemoryPool pool("gpu", 100);
  pool.charge(80);
  try {
    pool.charge(30);
    FAIL() << "expected exhaustion";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("gpu"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos);
  }
  EXPECT_EQ(pool.used(), 80u);  // failed charge left no residue
}

TEST(MemoryPool, ReleasingMoreThanUsedThrows) {
  MemoryPool pool("x", 10);
  pool.charge(5);
  EXPECT_THROW(pool.release(6), CheckError);
}

TEST(PoolCharge, RaiiReleasesOnScopeExit) {
  MemoryPool pool("x", 100);
  {
    PoolCharge charge(pool, 40);
    EXPECT_EQ(pool.used(), 40u);
    PoolCharge moved = std::move(charge);
    EXPECT_EQ(pool.used(), 40u);
  }
  EXPECT_EQ(pool.used(), 0u);
}

// -------------------------------------------------------- offload manager --

TEST(OffloadManager, DeviceTierServedWithoutTraffic) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  util::Xoshiro256 rng(1);
  mgr.register_tensor("w", Tensor::uniform({16, 16}, rng), Tier::kDevice);
  EXPECT_EQ(mgr.tier_of("w"), Tier::kDevice);
  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 256);
  EXPECT_EQ(mgr.stats().bytes_host_to_device, 0.0);
  EXPECT_EQ(mgr.stats().device_hits, 1u);
  EXPECT_GT(device.used(), 0u);
  EXPECT_EQ(host.used(), 0u);
}

TEST(OffloadManager, HostTierFp16RoundTrip) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  util::Xoshiro256 rng(2);
  const Tensor original = Tensor::uniform({32, 8}, rng);
  mgr.register_tensor("w", original, Tier::kHost);
  EXPECT_EQ(mgr.stored_bytes("w"), 32u * 8u * 2u);  // fp16
  const Tensor fetched = mgr.fetch("w");
  EXPECT_LE(original.max_abs_diff(fetched), 1e-3f);
  EXPECT_GT(mgr.stats().bytes_host_to_device, 0.0);
}

TEST(OffloadManager, QuantizedHostTierCompressesAndDequantizes) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 4, /*group_size=*/32);
  util::Xoshiro256 rng(3);
  const Tensor original = Tensor::uniform({64, 64}, rng);
  mgr.register_tensor("w", original, Tier::kHost);
  // 4-bit payload ≈ fp32/8.
  EXPECT_LT(mgr.stored_bytes("w"), original.byte_size() / 4);
  EXPECT_GT(mgr.stats().quantize_seconds, 0.0);
  const Tensor fetched = mgr.fetch("w");
  // 4-bit group-wise error on uniform[-1,1] data: ≤ half a step ≈ 0.067.
  EXPECT_LE(original.max_abs_diff(fetched), 0.08f);
  EXPECT_GT(mgr.stats().dequantize_seconds, 0.0);
}

TEST(OffloadManager, PrefetchStagesAndFetchConsumes) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 8, 32);
  util::Xoshiro256 rng(4);
  mgr.register_tensor("w", Tensor::uniform({32, 32}, rng), Tier::kHost);

  parallel::ThreadPool pool(2);
  mgr.prefetch("w", pool).get();
  const double bytes_after_prefetch = mgr.stats().bytes_host_to_device;
  EXPECT_GT(bytes_after_prefetch, 0.0);

  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 1024);
  // Served from staging — no second transfer.
  EXPECT_EQ(mgr.stats().bytes_host_to_device, bytes_after_prefetch);
  EXPECT_EQ(mgr.stats().staging_hits, 1u);

  // A further fetch transfers again (staging slot consumed).
  (void)mgr.fetch("w");
  EXPECT_GT(mgr.stats().bytes_host_to_device, bytes_after_prefetch);
}

TEST(OffloadManager, DuplicateAndUnknownNamesThrow) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host);
  util::Xoshiro256 rng(5);
  mgr.register_tensor("w", Tensor::uniform({4}, rng), Tier::kDevice);
  EXPECT_THROW(
      mgr.register_tensor("w", Tensor::uniform({4}, rng), Tier::kDevice),
      CheckError);
  EXPECT_THROW(mgr.fetch("missing"), CheckError);
  EXPECT_THROW(mgr.tier_of("missing"), CheckError);
}

// --------------------------------------------------------------- kv cache --

TEST(KVCache, QuantizedStorageShrinksAndStaysClose) {
  MemoryPool pool_plain("p", 1 << 20);
  MemoryPool pool_quant("q", 1 << 20);
  KVBlockPool plain_blocks({.block_tokens = 4, .hidden = 64}, &pool_plain);
  KVBlockPool quant_blocks(
      {.block_tokens = 4, .hidden = 64, .bits = 4, .group_size = 32},
      &pool_quant);
  KVCache plain(plain_blocks);
  KVCache quant(quant_blocks);
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 10; ++i) {
    const Tensor k = Tensor::uniform({64}, rng);
    const Tensor v = Tensor::uniform({64}, rng);
    plain.append(k, v);
    quant.append(k, v);
  }
  EXPECT_LT(quant.private_bytes(), plain.private_bytes() / 4);
  EXPECT_LE(plain.keys().max_abs_diff(quant.keys()), 0.08f);
  EXPECT_GT(quant.quantize_seconds(), 0.0);
  (void)quant.values();
  EXPECT_GT(quant.dequantize_seconds(), 0.0);
}

// ------------------------------------------------------------ transformer --

RuntimeConfig tiny_config(int weight_bits = 16, int kv_bits = 16,
                          std::int64_t device_layers = 0) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.weight_bits = weight_bits;
  config.kv_bits = kv_bits;
  config.quant_group = 16;
  config.device_layers = device_layers;
  config.prefetch_threads = 0;
  return config;
}

TEST(Transformer, DeterministicLogits) {
  Generator g1(tiny_config());
  Generator g2(tiny_config());
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  const auto r1 = g1.generate(prompts, 6);
  const auto r2 = g2.generate(prompts, 6);
  EXPECT_EQ(r1.tokens, r2.tokens);
  EXPECT_EQ(r1.tokens[0].size(), 6u);
}

TEST(Transformer, KvCacheMatchesFullRecompute) {
  // Decoding token-by-token with the cache must equal prefilling the whole
  // sequence at once — the cache is exact, not an approximation.
  RuntimeConfig config = tiny_config();
  const std::vector<std::int64_t> prompt = {5, 9, 2, 7, 1};

  Generator incremental(config);
  const auto inc =
      incremental.generate({{prompt[0], prompt[1], prompt[2]}}, 3);

  // Build the "full" run: feed the prompt plus the first two generated
  // tokens, and check the third prediction matches.
  std::vector<std::int64_t> extended = {prompt[0], prompt[1], prompt[2]};
  extended.push_back(inc.tokens[0][0]);
  extended.push_back(inc.tokens[0][1]);
  Generator full(config);
  const auto one = full.generate({extended}, 1);
  EXPECT_EQ(one.tokens[0][0], inc.tokens[0][2]);
}

TEST(Transformer, QuantizedWeightsStayNumericallyClose) {
  const std::vector<std::vector<std::int64_t>> prompts = {{3, 1, 4, 1, 5}};
  Generator full(tiny_config(16, 16));
  Generator quant8(tiny_config(8, 16));
  const auto r_full = full.generate(prompts, 8);
  const auto r_q8 = quant8.generate(prompts, 8);
  // 8-bit group-wise weights rarely flip greedy decisions on a tiny model;
  // require a mostly matching prefix rather than exact equality.
  std::size_t matching = 0;
  while (matching < 8 && r_full.tokens[0][matching] == r_q8.tokens[0][matching]) {
    ++matching;
  }
  EXPECT_GE(matching, 4u);
}

TEST(Transformer, DeviceResidentLayersSkipTraffic) {
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3}};
  Generator offloaded(tiny_config(16, 16, /*device_layers=*/0));
  Generator resident(tiny_config(16, 16, /*device_layers=*/2));
  const auto r_off = offloaded.generate(prompts, 4);
  const auto r_res = resident.generate(prompts, 4);
  EXPECT_GT(r_off.offload.bytes_host_to_device, 0.0);
  EXPECT_EQ(r_res.offload.bytes_host_to_device, 0.0);
  EXPECT_EQ(r_off.tokens, r_res.tokens);  // placement must not change math
}

TEST(Transformer, WeightNameScheme) {
  EXPECT_EQ(Transformer::weight_name(3, "wq"), "layer3.wq");
}

// -------------------------------------------------------------- generator --

TEST(Generator, BatchedPromptsShareWeightFetches) {
  // Layer-outer execution: doubling the batch should not double the
  // weight traffic (it is amortized across sequences).
  const std::vector<std::vector<std::int64_t>> one = {{1, 2, 3}};
  const std::vector<std::vector<std::int64_t>> four = {
      {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {2, 4, 6}};
  Generator g1(tiny_config());
  Generator g4(tiny_config());
  const auto r1 = g1.generate(one, 4);
  const auto r4 = g4.generate(four, 4);
  EXPECT_EQ(r4.tokens.size(), 4u);
  EXPECT_NEAR(r4.offload.bytes_host_to_device,
              r1.offload.bytes_host_to_device, 1.0);
}

TEST(Generator, QuantizedKvChargesLessHostMemory) {
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4, 5}};
  Generator plain(tiny_config(16, 16));
  Generator quant(tiny_config(16, 4));
  const auto r_plain = plain.generate(prompts, 8);
  const auto r_quant = quant.generate(prompts, 8);
  EXPECT_LT(r_quant.kv_stored_bytes, r_plain.kv_stored_bytes / 3);
  EXPECT_GT(r_quant.kv_quantize_seconds, 0.0);
  EXPECT_GT(r_quant.kv_dequantize_seconds, 0.0);
  EXPECT_EQ(r_plain.kv_quantize_seconds, 0.0);
}

TEST(Generator, ReportsPhaseTimesAndPeaks) {
  Generator g(tiny_config());
  const auto r = g.generate({{1, 2, 3, 4}}, 5);
  EXPECT_GT(r.prefill_seconds, 0.0);
  EXPECT_GT(r.decode_seconds, 0.0);
  EXPECT_GT(r.tokens_per_second, 0.0);
  EXPECT_GT(r.host_peak_bytes, 0u);   // offloaded weights + KV
  EXPECT_GT(r.device_peak_bytes, 0u); // embeddings... device pool holds none
}

TEST(Generator, AsyncPrefetchKeepsResultsIdentical) {
  RuntimeConfig sync_config = tiny_config(4, 16);
  RuntimeConfig async_config = sync_config;
  async_config.prefetch_threads = 2;
  Generator sync_gen(sync_config);
  Generator async_gen(async_config);
  const std::vector<std::vector<std::int64_t>> prompts = {{9, 8, 7}};
  const auto r_sync = sync_gen.generate(prompts, 6);
  const auto r_async = async_gen.generate(prompts, 6);
  EXPECT_EQ(r_sync.tokens, r_async.tokens);
  EXPECT_GT(r_async.offload.staging_hits, 0u);
}

TEST(Generator, RingPrefetchServesEveryLaterFetchFromStaging) {
  // Every layer is host-resident. The last layer of each forward stages
  // layer 0 for the next one, so after the first forward (whose layer 0 is
  // cold) no fetch waits on a synchronous transfer.
  RuntimeConfig config = tiny_config();
  config.prefetch_threads = 2;
  auto gen = std::make_unique<Generator>(config);
  gen->begin({{9, 8, 7}, {1, 2, 3, 4}}, 6);
  const OffloadStats first = gen->manager().stats();
  while (!gen->done()) gen->step();
  const OffloadStats after = gen->manager().stats();
  const std::uint64_t host_fetches = (after.fetches - first.fetches) -
                                     (after.device_hits - first.device_hits);
  EXPECT_GT(host_fetches, 0u);
  EXPECT_EQ(after.staging_hits - first.staging_hits, host_fetches);
  EXPECT_EQ(after.sync_fallbacks, 0u);
  // finish() waits out the layer-0 prefetch the last step started, so its
  // stats are final and the Generator can go away at once.
  const GenerationResult result = gen->finish();
  EXPECT_EQ(result.offload.host_transfers,
            gen->manager().stats().host_transfers);
  gen.reset();

  // Torn down mid-session, with that prefetch possibly still running: the
  // prefetch pool drains before the manager it writes into is destroyed.
  Generator mid(config);
  mid.begin({{5, 6, 7}}, 4);
  mid.step();
}

/// FNV-1a over the logits bytes of `steps` teacher-forced decode steps of
/// `prompts` as one batch, through `gen`'s transformer and KV pool, over
/// caches that see every row (`window` 0) or the last `window` rows.
/// Sampled tokens can stay the same when a logit drifts; this cannot.
std::uint64_t decode_logits_digest(
    Generator& gen, const std::vector<std::vector<std::int64_t>>& prompts,
    std::int64_t window, int steps) {
  Transformer& model = gen.transformer();
  std::vector<SequenceCache> caches(prompts.size());
  std::vector<SequenceCache*> cache_ptrs;
  std::vector<Tensor> states;
  for (std::size_t b = 0; b < prompts.size(); ++b) {
    for (std::int64_t layer = 0; layer < model.spec().num_layers; ++layer) {
      caches[b].emplace_back(gen.kv_blocks(), window);
    }
    cache_ptrs.push_back(&caches[b]);
    states.push_back(model.embed(prompts[b]));
  }
  std::uint64_t hash = 1469598103934665603ull;
  for (int step = 0; step < steps; ++step) {
    model.forward(states, cache_ptrs);
    const Tensor logits = model.logits(states);
    for (std::byte byte : logits.raw()) {
      hash = (hash ^ static_cast<std::uint64_t>(byte)) * 1099511628211ull;
    }
    for (std::size_t b = 0; b < states.size(); ++b) {
      const std::int64_t token[] = {static_cast<std::int64_t>(b * 7 + step)};
      states[b] = model.embed(token);
    }
  }
  return hash;
}

TEST(Generator, TokensAreBitIdenticalAtAnyLaneCount) {
  // Prompts long enough that prefill crosses every fork-join floor (GEMM
  // column panels, activation ranges, attention heads) and that every
  // decode step's attention fans out over (sequence, head), window caches
  // included; a batch of eight ragged sequences, sampled hot. Tokens
  // alone can miss a drifted logit, so a teacher-forced NLL over a
  // 70-token sequence (a sum of every row's log-softmax) and the logits
  // bytes of teacher-forced decode steps of the batch must match exactly
  // too. Any difference between lane counts means a race or a split that
  // changed an element's summation order.
  RuntimeConfig base = tiny_config();
  base.spec = model::ModelSpec::tiny(2, 128, 4, 256);
  base.sampling.temperature = 8.0;
  base.window_tokens = 80;
  std::vector<std::vector<std::int64_t>> prompts = {
      {}, {5, 9, 2, 7, 1, 33, 21, 60}, {}};
  for (std::int64_t i = 0; i < 70; ++i) prompts[0].push_back(i * 37 % 256);
  for (std::int64_t i = 0; i < 40; ++i) prompts[2].push_back(i * 11 % 97);
  for (std::int64_t s = 0; s < 5; ++s) {
    prompts.emplace_back();
    for (std::int64_t i = 0; i < 90; ++i) {
      prompts.back().push_back((i * 13 + s * 29) % 256);
    }
  }
  std::int64_t window_decode = 0;  // the smallest decode group's work
  for (const auto& prompt : prompts) {
    window_decode += std::min<std::int64_t>(
        static_cast<std::int64_t>(prompt.size()), base.window_tokens);
  }
  ASSERT_GE(window_decode * base.spec.hidden,
            Transformer::kAttentionSplitWork);
  struct Case {
    const char* name;
    int kv_bits;
    KVFlavor kv;
  };
  for (const Case& c : {Case{"kv16", 16, KVFlavor::kDense},
                        Case{"kv4", 4, KVFlavor::kDense},
                        Case{"kv8", 8, KVFlavor::kDense},
                        Case{"window", 16, KVFlavor::kWindow},
                        Case{"window-kv4", 4, KVFlavor::kWindow}}) {
    RuntimeConfig config = base;
    config.kv_bits = c.kv_bits;
    config.kv_flavor = c.kv;
    const auto run = [&](int lanes) {
      config.compute_threads = lanes;
      Generator gen(config);
      const std::int64_t window =
          c.kv == KVFlavor::kWindow ? config.window_tokens : 0;
      return std::tuple(gen.generate(prompts, 10).tokens,
                        evaluate_sequence(gen, prompts[0]).nll,
                        decode_logits_digest(gen, prompts, window, 4));
    };
    const auto serial = run(1);
    for (int lanes : {2, 3, 4}) {
      EXPECT_EQ(run(lanes), serial) << c.name << " at " << lanes << " lanes";
    }
  }

  // kv4 rows verified on every read while integrity.kv.flip corrupts
  // some in flight: the flip draws and verification run on the calling
  // thread in row order and a detected row is recomputed, so the tokens,
  // the repair counts and every site's draw count match at any lane
  // count.
  RuntimeConfig config = base;
  config.kv_bits = 4;
  config.integrity.policy = integrity::VerifyPolicy::kAlways;
  config.integrity.max_repair_attempts = 8;
  struct Drill {
    std::vector<std::vector<std::int64_t>> tokens;
    std::uint64_t failures = 0, recomputes = 0;
    std::vector<std::pair<std::int64_t, std::uint64_t>> sites;  // ops, draws
  };
  const auto drill = [&](int lanes) {
    config.compute_threads = lanes;
    util::ScopedFaultInjection chaos(31);
    util::FaultSpec flips;
    flips.flip_probability = 2e-4;
    chaos.arm("integrity.kv.flip", flips);
    Generator gen(config);
    Drill out;
    out.tokens = gen.generate(prompts, 10).tokens;
    auto& metrics = gen.manager().metrics();
    out.failures = metrics.counter("integrity.verify.failures").value();
    out.recomputes = metrics.counter("integrity.repair.recompute").value();
    for (const util::FaultSiteState& site : chaos.site_states()) {
      out.sites.emplace_back(site.ops, site.draws);
    }
    return out;
  };
  const Drill serial = drill(1);
  const Drill three = drill(3);
  EXPECT_GT(serial.recomputes, 0u) << "no flip was detected and repaired";
  EXPECT_EQ(serial.recomputes, serial.failures);
  EXPECT_EQ(three.tokens, serial.tokens);
  EXPECT_EQ(three.failures, serial.failures);
  EXPECT_EQ(three.recomputes, serial.recomputes);
  EXPECT_EQ(three.sites, serial.sites);
}

TEST(Profiler, MeasuresRealKernelAndFeedsAlgorithm3) {
  const auto spec = model::ModelSpec::tiny(2, 32, 4, 64);
  model::AttentionGraphParams params{.hidden = spec.hidden, .seq_len = 16,
                                     .batch = 2, .num_batches = 1,
                                     .kv_bits = 16};
  const auto graph = model::build_attention_graph(params);

  ProfileOptions options;
  options.seq_len = 12;
  options.batch = 2;
  options.repeats = 2;
  const auto db =
      profile_attention_op(spec, graph, {1, 2}, options);

  // Raw layer-step measurement plus per-op apportioned entries.
  EXPECT_GT(db.lookup("decode_layer_step", 1), 0.0);
  EXPECT_GT(db.lookup("decode_layer_step", 2), 0.0);
  double op_sum = 0.0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto& name = graph.node(static_cast<model::OpId>(i)).name;
    EXPECT_TRUE(db.has(name, 1)) << name;
    op_sum += db.lookup(name, 1);
  }
  EXPECT_NEAR(op_sum, db.lookup("decode_layer_step", 1), 1e-9);

  // The measured DB plugs into Algorithm 3 as overrides.
  parallel::SearchInput input;
  input.compute_graph = graph;
  input.io_bytes = {1e6, 0.0, 1e4, 0.0, 1e4};
  input.platform = hw::Platform::a100_single();
  input.max_threads = 16;
  const auto plan = parallel::find_optimal_parallelism(input, &db);
  EXPECT_TRUE(plan.valid);
}

TEST(Generator, PoolExhaustionSurfacesAsError) {
  RuntimeConfig config = tiny_config();
  config.host_capacity = 1024;  // far too small for offloaded weights
  EXPECT_THROW(Generator g(config), CheckError);
}

}  // namespace
}  // namespace lmo::runtime
