// Tests for LM-Offload's planning stack: the §3.2 decision procedure, the
// quantization-aware policy search, and parallelism-control integration.
#include <gtest/gtest.h>

#include "lmo/core/decisions.hpp"
#include "lmo/core/lm_offload.hpp"
#include "lmo/sched/flexgen.hpp"
#include "lmo/sched/zero_inference.hpp"
#include "lmo/util/check.hpp"

namespace lmo::core {
namespace {

using model::ModelSpec;
using model::Workload;
using perfmodel::Policy;

Workload paper_workload(std::int64_t gen_len = 128) {
  return Workload{.prompt_len = 64,
                  .gen_len = gen_len,
                  .gpu_batch = 64,
                  .num_batches = 10};
}

TEST(Version, NonEmpty) { EXPECT_GT(std::string(version()).size(), 0u); }

// -------------------------------------------------------------- decisions --

TEST(Decisions, WeightQuantizationHelpsWhenStreamingDominates) {
  // Weights mostly offloaded → 4-bit streaming cuts load_weight ~4×, far
  // more than the dequant costs.
  Policy base;
  base.weights_on_gpu = 0.2;
  base.attention_on_cpu = true;
  const auto d = decide_weight_quantization(
      ModelSpec::opt_30b(), paper_workload(), base, 4,
      hw::Platform::a100_single());
  EXPECT_TRUE(d.beneficial);
  EXPECT_GT(d.gain(), 2.0);
  EXPECT_LT(d.gain(), 4.5);
}

TEST(Decisions, WeightQuantizationPointlessWhenResident) {
  Policy base;
  base.weights_on_gpu = 1.0;  // nothing streams
  base.attention_on_cpu = true;
  const auto d = decide_weight_quantization(
      ModelSpec::opt_30b(), paper_workload(), base, 4,
      hw::Platform::a100_single());
  EXPECT_FALSE(d.beneficial);
}

TEST(Decisions, KvQuantizationHurtsWithAttentionOffloading) {
  // Paper Observation 1, as a decision-procedure outcome.
  Policy base;
  base.weights_on_gpu = 0.5;
  base.attention_on_cpu = true;
  const auto d =
      decide_kv_quantization(ModelSpec::opt_30b(), paper_workload(), base, 4,
                             hw::Platform::a100_single());
  EXPECT_FALSE(d.beneficial);
  EXPECT_GT(d.seconds_with, d.seconds_without);
}

TEST(Decisions, KvQuantizationHelpsWithGpuAttention) {
  Policy base;
  base.attention_on_cpu = false;
  base.activations_on_gpu = 1.0;
  const auto d =
      decide_kv_quantization(ModelSpec::opt_30b(), paper_workload(), base, 4,
                             hw::Platform::a100_single());
  EXPECT_TRUE(d.beneficial);
  EXPECT_GT(d.gain(), 1.5);
}

TEST(Decisions, AttentionPlacementEvaluatesBothSidesBestQuant) {
  Policy base;
  base.weights_on_gpu = 0.4;
  const auto d = decide_attention_placement(
      ModelSpec::opt_30b(), paper_workload(), base,
      hw::Platform::a100_single());
  EXPECT_GT(d.cpu_seconds, 0.0);
  EXPECT_GT(d.gpu_seconds, 0.0);
  EXPECT_EQ(d.offload_to_cpu, d.cpu_seconds <= d.gpu_seconds);
}

TEST(Decisions, AttentionPlacementProbesTheGpuSideOfAHybridPlan) {
  Policy base;
  base.weights_on_gpu = 0.4;
  base.hybrid_attention = true;
  base.validate();  // a valid hybrid plan: CPU attention plus a GPU slice
  AttentionPlacementDecision d;
  EXPECT_NO_THROW(d = decide_attention_placement(
                      ModelSpec::opt_30b(), paper_workload(), base,
                      hw::Platform::a100_single()));
  EXPECT_GT(d.gpu_seconds, 0.0);
  EXPECT_EQ(d.offload_to_cpu, d.cpu_seconds <= d.gpu_seconds);
}

// ------------------------------------------------------------- LMOffload --

TEST(LMOffload, PlanUsesQuantization) {
  const auto plan = LMOffload::plan(ModelSpec::opt_30b(), paper_workload(),
                                    hw::Platform::a100_single());
  // The paper's headline: LM-Offload's model finds quantization wins that
  // FlexGen's search cannot see.
  EXPECT_TRUE(plan.policy().weights_quantized() ||
              plan.policy().kv_quantized());
  EXPECT_TRUE(plan.policy().parallelism_control);
  EXPECT_TRUE(plan.parallelism.valid);
  EXPECT_GT(plan.compute_graph.size(), 0u);
}

TEST(LMOffload, BeatsFlexGenOnPaperConfigs) {
  // Table 3's qualitative shape on the A100 platform: LM-Offload ≥ FlexGen
  // across generation lengths, by a healthy factor.
  const auto platform = hw::Platform::a100_single();
  const auto spec = ModelSpec::opt_30b();
  for (std::int64_t len : {8, 32, 128}) {
    const auto w = paper_workload(len);
    const auto lmo = LMOffload::run(spec, w, platform);
    const auto fg = sched::FlexGen::run(spec, w, platform);
    EXPECT_GT(lmo.throughput, fg.throughput * 1.2) << "len=" << len;
    EXPECT_LT(lmo.throughput, fg.throughput * 5.0) << "len=" << len;
  }
}

TEST(LMOffload, BeatsZeroInferenceOnLargeModels) {
  // At 66B scale ZeRO's tiny whole-tensor batches collapse (paper: up to
  // 2.88× advantage).
  const auto platform = hw::Platform::a100_single();
  const auto spec = ModelSpec::opt_66b();
  const auto w = Workload{.prompt_len = 64, .gen_len = 32,
                          .gpu_batch = 64, .num_batches = 10};
  const auto lmo = LMOffload::run(spec, w, platform);
  const auto zr = sched::ZeroInference::run(spec, w, platform);
  EXPECT_GT(lmo.throughput, zr.throughput * 1.3);
}

TEST(LMOffload, ParallelismControlOptionChangesPlan) {
  const auto spec = ModelSpec::opt_30b();
  const auto w = paper_workload(8);
  const auto platform = hw::Platform::a100_single();
  PlanOptions with;
  PlanOptions without;
  without.parallelism_control = false;
  const auto plan_with = LMOffload::plan(spec, w, platform, with);
  const auto plan_without = LMOffload::plan(spec, w, platform, without);
  EXPECT_TRUE(plan_with.policy().parallelism_control);
  EXPECT_FALSE(plan_without.policy().parallelism_control);
  // The controlled compute allocation respects the Algorithm-3 budget.
  EXPECT_GE(platform.cpu.cores -
                plan_with.parallelism.inter_op_compute *
                    plan_with.parallelism.intra_op_compute,
            5);
  // Uncontrolled: framework defaults (oversubscribed).
  EXPECT_EQ(plan_without.parallelism.intra_op_compute, platform.cpu.cores);
}

TEST(LMOffload, QuantRestrictionsRespected) {
  const auto spec = ModelSpec::opt_30b();
  const auto w = paper_workload(8);
  const auto platform = hw::Platform::a100_single();
  PlanOptions options;
  options.allow_weight_quant = false;
  options.allow_kv_quant = false;
  const auto plan = LMOffload::plan(spec, w, platform, options);
  EXPECT_EQ(plan.policy().weight_bits, 16);
  EXPECT_EQ(plan.policy().kv_bits, 16);
}

TEST(LMOffload, IoVolumesMatchPolicyShape) {
  const auto spec = ModelSpec::opt_30b();
  const auto w = paper_workload(8);
  Policy cpu_attn;
  cpu_attn.weights_on_gpu = 0.5;
  cpu_attn.attention_on_cpu = true;
  auto vols = LMOffload::io_volumes(spec, w, cpu_attn);
  EXPECT_GT(vols[parallel::kLoadWeight], 0.0);
  EXPECT_EQ(vols[parallel::kLoadCache], 0.0);  // cache never moves
  EXPECT_GT(vols[parallel::kLoadActivation], 0.0);

  Policy gpu_attn;
  gpu_attn.attention_on_cpu = false;
  gpu_attn.activations_on_gpu = 1.0;
  vols = LMOffload::io_volumes(spec, w, gpu_attn);
  EXPECT_GT(vols[parallel::kLoadCache], 0.0);
  EXPECT_GT(vols[parallel::kStoreCache], 0.0);
  EXPECT_EQ(vols[parallel::kLoadActivation], 0.0);
}

TEST(LMOffload, EstimateAgreesWithSimulationWithinBand) {
  // The analytical estimator that guides the search should stay within a
  // reasonable factor of the DES that executes the plan.
  const auto spec = ModelSpec::opt_30b();
  const auto w = paper_workload(16);
  const auto platform = hw::Platform::a100_single();
  const auto plan = LMOffload::plan(spec, w, platform);
  const auto report =
      LMOffload::run_with_policy(spec, w, plan.policy(), platform);
  const double ratio = plan.search.estimate.throughput / report.throughput;
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

}  // namespace
}  // namespace lmo::core
