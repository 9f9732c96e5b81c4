#include "lmo/runtime/profiler.hpp"

#include <chrono>

#include "lmo/runtime/generator.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {

parallel::ProfileDB profile_attention_op(const model::ModelSpec& spec,
                                         const model::OpGraph& graph,
                                         const std::vector<int>&
                                             thread_counts,
                                         const ProfileOptions& options) {
  LMO_CHECK(!thread_counts.empty());
  LMO_CHECK_GE(options.repeats, 1);
  LMO_CHECK_GT(options.seq_len, 0);
  LMO_CHECK_GT(options.batch, 0);

  // Per-op cost shares from the graph (roofline-weighted: flops dominate
  // GEMMs, bytes dominate scans — use flops + bytes as a simple blend).
  std::vector<double> shares(graph.size());
  double total_cost = 0.0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto& op = graph.node(static_cast<model::OpId>(i));
    shares[i] = op.flops + op.bytes;
    total_cost += shares[i];
  }
  LMO_CHECK_GT(total_cost, 0.0);
  for (double& share : shares) share /= total_cost;

  parallel::ProfileDB db;
  for (int threads : thread_counts) {
    LMO_CHECK_GE(threads, 1);
    RuntimeConfig config;
    config.spec = spec;
    config.prefetch_threads = 0;
    config.compute_threads = threads;
    config.device_layers = spec.num_layers;  // no transfer noise
    config.seed = options.seed;
    Generator generator(config);

    // Prefill to the measurement context, then time pure decode steps.
    std::vector<std::int64_t> prompt(
        static_cast<std::size_t>(options.seq_len));
    for (std::size_t i = 0; i < prompt.size(); ++i) {
      prompt[i] = static_cast<std::int64_t>(i) % spec.vocab;
    }
    std::vector<std::vector<std::int64_t>> prompts(
        static_cast<std::size_t>(options.batch), prompt);

    double best = 1e30;
    for (int r = 0; r < options.repeats; ++r) {
      const auto result = generator.generate(prompts, 4);
      // Per-layer decode step time: decode phase / (steps × layers).
      const double per_layer =
          result.decode_seconds /
          (3.0 * static_cast<double>(spec.num_layers));
      best = std::min(best, per_layer);
    }
    db.record("decode_layer_step", threads, best);
    for (std::size_t i = 0; i < graph.size(); ++i) {
      db.record(graph.node(static_cast<model::OpId>(i)).name, threads,
                best * shares[i]);
    }
  }
  return db;
}

}  // namespace lmo::runtime
