// Tests for the end-to-end integrity layer: the shared CRC-32, the verify
// policy gate, the ChecksumRegistry's accounting, the seeded bit-flip
// fault class, and the typed repair ladder on each surface — weight shards
// re-fetched by the OffloadManager, corrupt KV rows recomputed by the
// Generator via re-prefill, silent propagation under verify=off — plus the
// estimator's and serving simulator's verification-bandwidth accounting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "lmo/ckpt/binary_io.hpp"
#include "lmo/hw/platform.hpp"
#include "lmo/integrity/integrity.hpp"
#include "lmo/model/llm_config.hpp"
#include "lmo/perfmodel/estimator.hpp"
#include "lmo/perfmodel/policy.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/runtime/offload_manager.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/tensor/tensor.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/checksum.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo {
namespace {

std::span<const std::byte> as_bytes(const std::string& text) {
  return std::as_bytes(std::span<const char>(text.data(), text.size()));
}

// -- shared CRC-32 ---------------------------------------------------------

TEST(Crc32, KnownVectorAndOverloadsAgree) {
  // The canonical IEEE/zlib check value.
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(as_bytes(check)), 0xCBF43926u);
  EXPECT_EQ(util::crc32(std::span<const std::byte>{}), 0u);

  std::vector<std::byte> copy(check.size());
  std::memcpy(copy.data(), check.data(), check.size());
  EXPECT_EQ(util::crc32(copy), util::crc32(as_bytes(check)));
  // The checkpoint envelope delegates to the same table.
  EXPECT_EQ(ckpt::crc32(copy), util::crc32(copy));

  const std::vector<float> floats = {1.0f, -2.5f, 3.25f};
  const auto raw = std::as_bytes(
      std::span<const float>(floats.data(), floats.size()));
  EXPECT_EQ(util::crc32(std::span<const float>(floats)), util::crc32(raw));
}

// -- policy parsing and gating ---------------------------------------------

TEST(VerifyPolicy, ParsesAndPrints) {
  using integrity::VerifyPolicy;
  EXPECT_EQ(integrity::verify_policy_from_string("off"), VerifyPolicy::kOff);
  EXPECT_EQ(integrity::verify_policy_from_string("sample"),
            VerifyPolicy::kSample);
  EXPECT_EQ(integrity::verify_policy_from_string("always"),
            VerifyPolicy::kAlways);
  EXPECT_STREQ(integrity::to_string(VerifyPolicy::kSample), "sample");
  EXPECT_THROW(integrity::verify_policy_from_string("sometimes"),
               util::CheckError);
}

TEST(IntegrityConfig, ValidatesAndGatesByOrdinal) {
  integrity::IntegrityConfig config;
  config.validate();  // defaults are valid
  EXPECT_FALSE(config.enabled());
  EXPECT_FALSE(config.should_verify(0));

  config.policy = integrity::VerifyPolicy::kSample;
  config.sample_period = 4;
  EXPECT_TRUE(config.enabled());
  EXPECT_TRUE(config.should_verify(0));
  EXPECT_FALSE(config.should_verify(1));
  EXPECT_FALSE(config.should_verify(3));
  EXPECT_TRUE(config.should_verify(4));

  config.policy = integrity::VerifyPolicy::kAlways;
  EXPECT_TRUE(config.should_verify(7));

  config.sample_period = 0;
  EXPECT_THROW(config.validate(), util::ConfigError);
  config.sample_period = 16;
  config.checksum_gbps = 0.0;
  EXPECT_THROW(config.validate(), util::ConfigError);
}

// -- the registry ----------------------------------------------------------

TEST(ChecksumRegistry, NamedRegionsVerifyCountAndSample) {
  integrity::IntegrityConfig config;
  config.policy = integrity::VerifyPolicy::kSample;
  config.sample_period = 2;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(config, &metrics);

  const std::string payload = "the weights of layer 0";
  registry.record("weights.l0", util::crc32(as_bytes(payload)));
  EXPECT_EQ(registry.region_count(), 1u);
  EXPECT_EQ(metrics.gauge("integrity.regions").value(), 1.0);

  // Ordinals 0, 2 verify under period 2; ordinal 1 is waved through.
  EXPECT_TRUE(registry.should_verify("weights.l0"));
  EXPECT_FALSE(registry.should_verify("weights.l0"));
  EXPECT_TRUE(registry.should_verify("weights.l0"));
  // Unknown regions never gate in.
  EXPECT_FALSE(registry.should_verify("weights.l9"));

  EXPECT_TRUE(registry.verify("weights.l0", as_bytes(payload)));
  const std::string tampered = "the weights of layer O";
  EXPECT_FALSE(registry.verify("weights.l0", as_bytes(tampered)));
  EXPECT_EQ(metrics.counter("integrity.verify.total").value(), 2u);
  EXPECT_EQ(metrics.counter("integrity.verify.failures").value(), 1u);
  EXPECT_EQ(metrics.gauge("integrity.verify.bytes").value(),
            2.0 * static_cast<double>(payload.size()));

  registry.forget("weights.l0");
  EXPECT_EQ(registry.region_count(), 0u);
  // Forgotten = unknown: verification passes vacuously and gates out.
  EXPECT_FALSE(registry.should_verify("weights.l0"));
  EXPECT_TRUE(registry.verify("weights.l0", as_bytes(tampered)));
}

TEST(ChecksumRegistry, ValueVerifyAndRepairAccounting) {
  integrity::IntegrityConfig config;
  config.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(config, &metrics);

  const std::vector<float> row = {0.5f, 1.5f, -2.0f};
  const auto crc = util::crc32(std::span<const float>(row));
  EXPECT_TRUE(registry.verify_value(std::span<const float>(row), crc));
  EXPECT_FALSE(registry.verify_value(std::span<const float>(row), crc ^ 1u));

  registry.note_repair(integrity::RepairKind::kRefetch);
  registry.note_repair(integrity::RepairKind::kRecompute);
  registry.note_repair(integrity::RepairKind::kQuarantine);
  registry.note_quarantined_blocks(3);
  registry.note_unrepairable();
  EXPECT_EQ(metrics.counter("integrity.repair.refetch").value(), 1u);
  EXPECT_EQ(metrics.counter("integrity.repair.recompute").value(), 1u);
  EXPECT_EQ(metrics.counter("integrity.repair.quarantine").value(), 1u);
  EXPECT_EQ(metrics.counter("integrity.quarantine.blocks").value(), 3u);
  EXPECT_EQ(metrics.counter("integrity.unrepairable").value(), 1u);
}

// -- the bit-flip fault class ----------------------------------------------

TEST(BitFlipFault, DeterministicRangedAndFreeWhenUnarmed) {
  const auto draw_sequence = [](std::uint64_t seed) {
    util::ScopedFaultInjection chaos(seed);
    util::FaultSpec spec;
    spec.flip_probability = 0.5;
    chaos.arm("flip.site", spec);
    std::vector<std::int64_t> flips;
    for (int i = 0; i < 64; ++i) {
      const auto flip = util::FaultInjector::instance().corrupt_bit(
          "flip.site", 128);
      EXPECT_GE(flip, -1);
      EXPECT_LT(flip, 128);
      flips.push_back(flip);
    }
    // At p = 0.5 over 64 draws the site must both fire and skip.
    EXPECT_GT(chaos.count("flip.site", util::FaultKind::kBitFlip), 0u);
    EXPECT_LT(chaos.count("flip.site", util::FaultKind::kBitFlip), 64u);
    return flips;
  };
  const auto a = draw_sequence(7);
  EXPECT_EQ(a, draw_sequence(7));  // same seed, same schedule
  EXPECT_NE(a, draw_sequence(8));  // a different seed moves it
  // Unarmed sites never flip.
  EXPECT_EQ(util::FaultInjector::instance().corrupt_bit("flip.site", 128),
            -1);
}

TEST(BitFlipFault, ArmingFlipsConsumesNoDrawsFromOtherSchedules) {
  // The transient schedule of a site must be byte-identical whether or not
  // corrupt_bit is interleaved with flip_probability == 0 (the default for
  // every pre-existing chaos profile).
  const auto transient_outcomes = [](bool interleave_flips) {
    util::ScopedFaultInjection chaos(99);
    util::FaultSpec spec;
    spec.fail_probability = 0.3;  // flip_probability stays 0
    chaos.arm("wire", spec);
    std::vector<bool> outcomes;
    for (int i = 0; i < 48; ++i) {
      if (interleave_flips) {
        EXPECT_EQ(util::FaultInjector::instance().corrupt_bit("wire", 64),
                  -1);
      }
      outcomes.push_back(util::FaultInjector::instance().should_fail("wire"));
    }
    EXPECT_EQ(chaos.count("wire", util::FaultKind::kBitFlip), 0u);
    return outcomes;
  };
  EXPECT_EQ(transient_outcomes(false), transient_outcomes(true));
}

TEST(BitFlipFault, SiteStateRestoreContinuesTheFlipSchedule) {
  util::FaultSpec spec;
  spec.flip_probability = 0.4;
  std::vector<std::int64_t> full;
  {
    util::ScopedFaultInjection chaos(11);
    chaos.arm("flip.site", spec);
    for (int i = 0; i < 32; ++i) {
      full.push_back(
          util::FaultInjector::instance().corrupt_bit("flip.site", 256));
    }
  }
  // Replay the first half, snapshot, restore into a fresh injector, and
  // the second half must continue identically.
  std::vector<util::FaultSiteState> states;
  {
    util::ScopedFaultInjection chaos(11);
    chaos.arm("flip.site", spec);
    for (int i = 0; i < 16; ++i) {
      util::FaultInjector::instance().corrupt_bit("flip.site", 256);
    }
    states = chaos.site_states();
  }
  util::ScopedFaultInjection chaos(11);
  chaos.arm("flip.site", spec);
  for (const auto& state : states) chaos.restore_site_state(state);
  for (int i = 16; i < 32; ++i) {
    EXPECT_EQ(util::FaultInjector::instance().corrupt_bit("flip.site", 256),
              full[static_cast<std::size_t>(i)]);
  }
}

// -- weight-shard repair (OffloadManager) ----------------------------------

tensor::Tensor ramp_tensor(std::int64_t rows, std::int64_t cols) {
  tensor::Tensor t = tensor::Tensor::zeros({rows, cols});
  auto data = t.f32();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i % 17) - 8.0f;
  }
  return t;
}

TEST(OffloadIntegrity, FlippedFetchIsRefetchedBitExactly) {
  integrity::IntegrityConfig config;
  config.policy = integrity::VerifyPolicy::kAlways;
  config.max_repair_attempts = 8;

  runtime::MemoryPool device("device", 1 << 24);
  runtime::MemoryPool host("host", 1 << 24);
  runtime::OffloadManager manager(device, host, 8, 32);
  integrity::ChecksumRegistry registry(config, &manager.metrics());
  manager.set_integrity(&registry);
  manager.register_tensor("w", ramp_tensor(8, 32), runtime::Tier::kHost);

  const auto clean = manager.fetch("w");

  util::ScopedFaultInjection chaos(5);
  util::FaultSpec spec;
  spec.flip_probability = 1.0;  // every arrival corrupt until the rung
  chaos.arm("integrity.weights.flip", spec);
  // With p == 1 every re-fetch is corrupt too: the ladder must exhaust.
  EXPECT_THROW(manager.fetch("w"), util::DataCorruption);
  EXPECT_GT(manager.metrics().counter("integrity.unrepairable").value(), 0u);

  // At p = 0.5 the seeded schedule recovers within the attempt budget and
  // the repaired bytes equal the clean fetch exactly.
  spec.flip_probability = 0.5;
  chaos.arm("integrity.weights.flip", spec);
  const auto repaired = manager.fetch("w");
  const auto a = clean.f32();
  const auto b = repaired.f32();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  EXPECT_GT(manager.metrics().counter("integrity.repair.refetch").value(),
            0u);
  EXPECT_EQ(manager.metrics().counter("integrity.verify.failures").value(),
            chaos.count("integrity.weights.flip", util::FaultKind::kBitFlip));
}

TEST(OffloadIntegrity, VerifyOffLetsCorruptionThroughSilently) {
  runtime::MemoryPool device("device", 1 << 24);
  runtime::MemoryPool host("host", 1 << 24);
  runtime::OffloadManager manager(device, host, 8, 32);
  // No integrity registry attached: the seed path, bit rot and all.
  manager.register_tensor("w", ramp_tensor(8, 32), runtime::Tier::kHost);
  const auto clean = manager.fetch("w");

  util::ScopedFaultInjection chaos(5);
  util::FaultSpec spec;
  spec.flip_probability = 1.0;
  chaos.arm("integrity.weights.flip", spec);
  const auto corrupted = manager.fetch("w");  // no throw, no repair
  const auto a = clean.f32();
  const auto b = corrupted.f32();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// -- KV-row detection (KVCache) --------------------------------------------

TEST(KVIntegrity, FlippedRowThrowsUnderAlwaysAndPropagatesUnderOff) {
  integrity::IntegrityConfig config;
  config.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(config, &metrics);

  runtime::MemoryPool pool("host", 1 << 24);
  runtime::KVBlockPool blocks({.block_tokens = 4, .hidden = 8}, &pool);
  runtime::KVCache cache(blocks);
  cache.set_integrity(&registry, "kv.test");
  for (int i = 0; i < 4; ++i) {
    cache.append(ramp_tensor(1, 8).reshaped({8}),
                 ramp_tensor(1, 8).reshaped({8}));
  }
  const auto clean = cache.keys();

  {
    util::ScopedFaultInjection chaos(3);
    util::FaultSpec spec;
    spec.flip_probability = 1.0;
    chaos.arm("integrity.kv.flip", spec);
    EXPECT_THROW(cache.keys(), util::DataCorruption);
    EXPECT_GT(metrics.counter("integrity.verify.failures").value(), 0u);
  }
  // The stored rows were never mutated (the flip rides a wire copy):
  // with the injector gone the cache reads back clean.
  const auto after = cache.keys();
  EXPECT_EQ(std::memcmp(clean.f32().data(), after.f32().data(),
                        clean.f32().size() * sizeof(float)),
            0);

  // Same flips with no registry attached: silent corruption, no throw.
  runtime::KVCache unverified(blocks);
  for (int i = 0; i < 4; ++i) {
    unverified.append(ramp_tensor(1, 8).reshaped({8}),
                      ramp_tensor(1, 8).reshaped({8}));
  }
  util::ScopedFaultInjection chaos(3);
  util::FaultSpec spec;
  spec.flip_probability = 1.0;
  chaos.arm("integrity.kv.flip", spec);
  const auto corrupted = unverified.keys();
  EXPECT_NE(std::memcmp(clean.f32().data(), corrupted.f32().data(),
                        clean.f32().size() * sizeof(float)),
            0);
}

// -- end-to-end Generator repair -------------------------------------------

runtime::RuntimeConfig tiny_integrity_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(4, 64, 4, 128);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;  // every layer streams through the fetch path
  config.prefetch_threads = 0;
  config.compute_threads = 1;
  config.recovery.retry_backoff_seconds = 1e-5;
  config.integrity.policy = integrity::VerifyPolicy::kAlways;
  config.integrity.max_repair_attempts = 8;
  return config;
}

TEST(GeneratorIntegrity, RepairsFlipsToByteIdenticalTokens) {
  const auto config = tiny_integrity_config();
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  const std::int64_t gen_len = 8;

  std::vector<std::vector<std::int64_t>> clean;
  {
    runtime::Generator gen(config);
    clean = gen.generate(prompts, gen_len).tokens;
  }

  util::ScopedFaultInjection chaos(2024);
  util::FaultSpec weights_spec;
  weights_spec.flip_probability = 0.05;
  util::FaultSpec kv_spec;
  kv_spec.flip_probability = 0.005;
  chaos.arm("integrity.weights.flip", weights_spec);
  chaos.arm("integrity.kv.flip", kv_spec);

  runtime::Generator gen(config);
  const auto chaotic = gen.generate(prompts, gen_len).tokens;
  EXPECT_EQ(chaotic, clean);

  const auto fired =
      chaos.count("integrity.weights.flip", util::FaultKind::kBitFlip) +
      chaos.count("integrity.kv.flip", util::FaultKind::kBitFlip);
  ASSERT_GT(fired, 0u) << "drill did not exercise the integrity path";
  auto& metrics = gen.manager().metrics();
  EXPECT_EQ(metrics.counter("integrity.verify.failures").value(), fired);
  EXPECT_EQ(metrics.counter("integrity.repair.refetch").value() +
                metrics.counter("integrity.repair.recompute").value(),
            fired);
  EXPECT_EQ(metrics.counter("integrity.unrepairable").value(), 0u);
}

TEST(GeneratorIntegrity, ConfigSurvivesCheckpointFingerprint) {
  // The integrity policy is a serving-time knob like the adaptive
  // controller: deliberately not part of the checkpoint fingerprint, so a
  // snapshot taken under verify=always restores under verify=off.
  auto config = tiny_integrity_config();
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  const std::string path = "integrity_ckpt_test.ckpt";

  std::vector<std::vector<std::int64_t>> reference;
  {
    runtime::Generator gen(config);
    reference = gen.generate(prompts, 8).tokens;
  }
  {
    runtime::Generator gen(config);
    gen.begin(prompts, 8);
    while (gen.step_index() < 4) gen.step();
    gen.snapshot(path);
  }
  config.integrity.policy = integrity::VerifyPolicy::kOff;
  runtime::Generator gen(config);
  gen.resume(path);
  while (!gen.done()) gen.step();
  EXPECT_EQ(gen.finish().tokens, reference);
  std::remove(path.c_str());
}

// -- estimator verification-bandwidth term ---------------------------------

TEST(EstimatorIntegrity, VerifyTermIsZeroCostOffAndMonotoneOn) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto platform = hw::Platform::a100_single();
  model::Workload w;
  w.prompt_len = 128;
  w.gen_len = 16;
  w.gpu_batch = 8;
  w.num_batches = 1;
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.3;
  policy.attention_on_cpu = true;
  policy.activations_on_gpu = 0.0;
  policy.weight_bits = 4;
  policy.kv_bits = 4;

  const auto base = perfmodel::estimate(spec, w, policy, platform);
  EXPECT_EQ(base.total_verify_time, 0.0);

  perfmodel::EstimatorOptions off;
  off.verify_gbps = 0.0;
  const auto still_off = perfmodel::estimate(spec, w, policy, platform, off);
  EXPECT_EQ(still_off.total_time, base.total_time);  // bit-for-bit legacy

  perfmodel::EstimatorOptions fast;
  fast.verify_gbps = 25.0;
  perfmodel::EstimatorOptions slow;
  slow.verify_gbps = 2.5;
  const auto v_fast = perfmodel::estimate(spec, w, policy, platform, fast);
  const auto v_slow = perfmodel::estimate(spec, w, policy, platform, slow);
  EXPECT_GT(v_fast.total_verify_time, 0.0);
  EXPECT_GT(v_fast.total_time, base.total_time);
  // A 10x slower checksum costs 10x the verify time.
  EXPECT_NEAR(v_slow.total_verify_time, 10.0 * v_fast.total_verify_time,
              1e-9 * v_slow.total_verify_time);
  EXPECT_GT(v_slow.total_time, v_fast.total_time);
  // The per-step term is folded into CPU compute, mirrored for accounting.
  const auto costs = perfmodel::step_costs(spec, w, policy, platform,
                                           w.gen_len / 2, fast);
  EXPECT_GT(costs.verify_time, 0.0);
  const auto bare = perfmodel::step_costs(spec, w, policy, platform,
                                          w.gen_len / 2);
  EXPECT_NEAR(costs.compute_cpu - bare.compute_cpu, costs.verify_time,
              1e-12);
}

// -- serving simulator -----------------------------------------------------

std::vector<serve::Request> fixed_requests(int count) {
  std::vector<serve::Request> requests;
  for (int i = 0; i < count; ++i) {
    serve::Request r;
    r.id = i;
    r.arrival_seconds = 0.25 * i;
    r.prompt_len = 48;
    r.gen_len = 96;
    requests.push_back(r);
  }
  return requests;
}

serve::ServeConfig sim_config() {
  serve::ServeConfig config;
  config.max_batch = 4;
  config.batching = serve::Batching::kContinuous;
  return config;
}

perfmodel::Policy sim_policy() {
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.5;  // offloaded stream = bytes to verify
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 8;
  return policy;
}

TEST(ServeIntegrity, VerifyOffChargesExactlyZero) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto platform = hw::Platform::a100_single();
  const auto requests = fixed_requests(6);

  const auto baseline = serve::simulate_serving(spec, sim_policy(), platform,
                                                requests, sim_config());
  auto off = sim_config();
  off.integrity.policy = integrity::VerifyPolicy::kOff;
  const auto with_off = serve::simulate_serving(spec, sim_policy(), platform,
                                                requests, off);
  EXPECT_EQ(with_off.duration, baseline.duration);  // bit-for-bit
  EXPECT_EQ(with_off.verify_seconds, 0.0);
}

TEST(ServeIntegrity, VerifyAlwaysChargesAndSampleChargesLess) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto platform = hw::Platform::a100_single();
  const auto requests = fixed_requests(6);

  const auto baseline = serve::simulate_serving(spec, sim_policy(), platform,
                                                requests, sim_config());
  auto always = sim_config();
  always.integrity.policy = integrity::VerifyPolicy::kAlways;
  auto sample = sim_config();
  sample.integrity.policy = integrity::VerifyPolicy::kSample;
  sample.integrity.sample_period = 16;

  const auto m_always = serve::simulate_serving(spec, sim_policy(), platform,
                                                requests, always);
  const auto m_sample = serve::simulate_serving(spec, sim_policy(), platform,
                                                requests, sample);
  EXPECT_GT(m_always.verify_seconds, 0.0);
  EXPECT_GT(m_always.duration, baseline.duration);
  EXPECT_GT(m_sample.verify_seconds, 0.0);
  // 1/16th of the loads verified, ~1/16th of the charge.
  EXPECT_LT(m_sample.verify_seconds, m_always.verify_seconds / 8.0);
  EXPECT_EQ(m_always.corruption_detected, 0u);
  EXPECT_EQ(m_always.corruption_undetected, 0u);
}

TEST(ServeIntegrity, CorruptionRollsBackUnderVerifyAndCountsUnderOff) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto platform = hw::Platform::a100_single();
  const auto requests = fixed_requests(4);

  auto config = sim_config();
  config.integrity.policy = integrity::VerifyPolicy::kAlways;
  config.ckpt_interval_tokens = 16;
  serve::CorruptionEvent event;
  event.request_id = 1;
  config.corruptions.push_back(event);

  // Place the event mid-decode: run once to learn request 1's TTFT.
  const auto probe = serve::simulate_serving(spec, sim_policy(), platform,
                                             requests, sim_config());
  config.corruptions[0].at_seconds = probe.outcomes[1].ttft + 1.0;

  telemetry::MetricsRegistry registry;
  const auto m = serve::simulate_serving(spec, sim_policy(), platform,
                                         requests, config, &registry);
  EXPECT_EQ(m.corruption_detected, 1u);
  EXPECT_EQ(m.corruption_undetected, 0u);
  EXPECT_GT(m.rollback_tokens, 0u);
  EXPECT_EQ(m.completed, requests.size());  // rolled back, not lost
  EXPECT_EQ(registry.counter("integrity.repair.recompute").value(), 1u);
  EXPECT_GE(m.outcomes[1].tokens, requests[1].gen_len);
  // The re-decoded tail costs engine time.
  EXPECT_GT(m.duration, probe.duration);

  // Same event under verify=off: nobody notices, nothing rolls back.
  auto off = sim_config();
  off.corruptions = config.corruptions;
  const auto m_off = serve::simulate_serving(spec, sim_policy(), platform,
                                             requests, off);
  EXPECT_EQ(m_off.corruption_detected, 0u);
  EXPECT_EQ(m_off.corruption_undetected, 1u);
  EXPECT_EQ(m_off.rollback_tokens, 0u);

  // Events naming finished (or never-started) requests are inert.
  auto inert = sim_config();
  inert.integrity.policy = integrity::VerifyPolicy::kAlways;
  inert.corruptions.push_back({1e9, 2});
  inert.corruptions.push_back({0.0, 999});
  const auto m_inert = serve::simulate_serving(spec, sim_policy(), platform,
                                               requests, inert);
  EXPECT_EQ(m_inert.corruption_detected, 0u);
  EXPECT_EQ(m_inert.completed, requests.size());
}

TEST(ServeIntegrity, ConfigValidation) {
  auto config = sim_config();
  config.ckpt_interval_tokens = 0;
  EXPECT_THROW(config.validate(), util::ConfigError);

  config = sim_config();
  config.corruptions.push_back({-1.0, 0});
  EXPECT_THROW(config.validate(), util::ConfigError);

  config = sim_config();
  config.corruptions.push_back({1.0, -2});
  EXPECT_THROW(config.validate(), util::ConfigError);

  config = sim_config();
  config.integrity.sample_period = -3;
  EXPECT_THROW(config.validate(), util::ConfigError);
}

}  // namespace
}  // namespace lmo
