#include "lmo/core/decisions.hpp"

#include <algorithm>

#include "lmo/perfmodel/estimator.hpp"
#include "lmo/perfmodel/quant_model.hpp"

namespace lmo::core {
namespace {

using perfmodel::Policy;
using perfmodel::StepCosts;

StepCosts mid_step(const model::ModelSpec& spec, const model::Workload& w,
                   const Policy& policy, const hw::Platform& platform) {
  return perfmodel::step_costs(spec, w, policy, platform, w.gen_len / 2);
}

}  // namespace

QuantDecision decide_weight_quantization(const model::ModelSpec& spec,
                                         const model::Workload& w,
                                         const Policy& base, int bits,
                                         const hw::Platform& platform) {
  Policy plain = base;
  plain.weight_bits = 16;
  Policy quantized = base;
  quantized.weight_bits = bits;

  QuantDecision decision;
  decision.seconds_without = mid_step(spec, w, plain, platform).load_weight;

  // Quantized load already folds in the GPU dequant (Eq. 4); add the
  // one-time CPU quantization (Eq. 3) amortized over every (step, layer)
  // load it pays for.
  const double steps =
      static_cast<double>(std::max<std::int64_t>(w.gen_len - 1, 1));
  const double one_time =
      perfmodel::quan_pf_wgt_seconds(spec, 1.0 - base.weights_on_gpu,
                                     platform) /
      steps;
  decision.seconds_with =
      mid_step(spec, w, quantized, platform).load_weight + one_time;
  decision.beneficial = decision.seconds_with < decision.seconds_without;
  return decision;
}

QuantDecision decide_kv_quantization(const model::ModelSpec& spec,
                                     const model::Workload& w,
                                     const Policy& base, int bits,
                                     const hw::Platform& platform) {
  Policy plain = base;
  plain.kv_bits = 16;
  Policy quantized = base;
  quantized.kv_bits = bits;

  const StepCosts without = mid_step(spec, w, plain, platform);
  const StepCosts with = mid_step(spec, w, quantized, platform);

  QuantDecision decision;
  if (base.attention_on_cpu) {
    // No cache traffic either way; the (de)quant work lands on the CPU
    // compute task (paper Observation 1: pure overhead).
    decision.seconds_without = without.compute_cpu;
    decision.seconds_with = with.compute_cpu;
  } else {
    decision.seconds_without = without.load_cache + without.store_cache;
    decision.seconds_with = with.load_cache + with.store_cache;
  }
  decision.beneficial = decision.seconds_with < decision.seconds_without;
  return decision;
}

AttentionPlacementDecision decide_attention_placement(
    const model::ModelSpec& spec, const model::Workload& w,
    const Policy& base, const hw::Platform& platform) {
  auto best_t_gen = [&](bool on_cpu) {
    double best = 0.0;
    bool first = true;
    for (int kv_bits : {16, 8, 4}) {
      Policy p = base;
      p.attention_on_cpu = on_cpu;
      p.kv_bits = kv_bits;
      if (on_cpu) p.cache_on_gpu = 0.0;
      // Hybrid attention extends CPU attention; the GPU side has none.
      if (!on_cpu) p.hybrid_attention = false;
      const double t = mid_step(spec, w, p, platform).t_gen;
      if (first || t < best) {
        best = t;
        first = false;
      }
    }
    return best;
  };

  AttentionPlacementDecision decision;
  decision.cpu_seconds = best_t_gen(true);
  decision.gpu_seconds = best_t_gen(false);
  decision.offload_to_cpu = decision.cpu_seconds <= decision.gpu_seconds;
  return decision;
}

}  // namespace lmo::core
