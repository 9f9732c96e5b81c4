// lmo — command-line front end for the LM-Offload library.
//
//   lmo plan     --model opt-30b --len 32 [--bls 640] [--platform FILE]
//   lmo compare  --model opt-30b --len 32        (FlexGen/ZeRO/LM-Offload)
//   lmo sweep    --model opt-30b                 (all Table-3 lengths)
//   lmo trace    --model opt-30b --len 8 --out trace.json
//   lmo trace    --runtime 1 --out trace.json    (measured Generator spans)
//   lmo chaos    --profile flaky-pcie            (generation under faults)
//   lmo chaos    --profile kill-resume           (crash-recovery determinism)
//   lmo chaos    --profile bitflip               (silent-corruption repair)
//   lmo chaos    --profile diskfault             (disk-tier read-fault drill)
//   lmo chaos    --profile crash                 (fork/SIGKILL recovery drill)
//   lmo checkpoint --out gen.ckpt                (snapshot mid-generation)
//   lmo checkpoint --verify gen.ckpt             (validate without restoring)
//   lmo resume     --from gen.ckpt               (finish from the snapshot)
//   lmo recover    --dir crash_dir               (restore a supervised run)
//   lmo models                                    (list presets)
//
// trace/serve/chaos accept --metrics-out FILE to export the run's telemetry
// registry as JSON; serve also accepts --trace-out FILE for request
// lifecycle spans. See docs/observability.md.
//
// --platform takes either a preset name (a100-single, v100-quad) or a path
// to a key=value platform config (see lmo/hw/platform_config.hpp).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lmo/ckpt/format.hpp"
#include "lmo/core/decisions.hpp"
#include "lmo/core/lm_offload.hpp"
#include "lmo/core/plan_io.hpp"
#include "lmo/hw/platform_config.hpp"
#include "lmo/integrity/integrity.hpp"
#include "lmo/parallel/adaptive_controller.hpp"
#include "lmo/recover/recovery_manager.hpp"
#include "lmo/recover/wal.hpp"
#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/sched/flexgen.hpp"
#include "lmo/sched/zero_inference.hpp"
#include "lmo/perfmodel/calibration.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/sim/trace_export.hpp"
#include "lmo/store/block_store.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"
#include "lmo/util/csv.hpp"
#include "lmo/util/table.hpp"
#include "lmo/util/units.hpp"

namespace {

using namespace lmo;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stoll(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    LMO_CHECK_MSG(key.rfind("--", 0) == 0, "expected --option, got: " + key);
    args.options[key.substr(2)] = argv[i + 1];
  }
  return args;
}

hw::Platform load_platform(const Args& args) {
  const std::string spec = args.get("platform", "a100-single");
  try {
    return hw::platform_by_name(spec);  // preset name?
  } catch (const util::CheckError&) {
    return hw::platform_from_file(spec);  // otherwise a config file
  }
}

model::Workload load_workload(const Args& args) {
  model::Workload w;
  w.prompt_len = args.get_int("prompt", 64);
  w.gen_len = args.get_int("len", 32);
  w.gpu_batch = args.get_int("batch", 64);
  w.num_batches = args.get_int("batches", 10);
  const std::int64_t bls = args.get_int("bls", 0);
  if (bls > 0) {
    w.gpu_batch = std::min<std::int64_t>(bls, 64);
    w.num_batches = std::max<std::int64_t>(bls / w.gpu_batch, 1);
  }
  w.validate();
  return w;
}

/// `--metrics-out FILE`: save `registry` as JSON and say so.
void save_metrics(const Args& args, const telemetry::MetricsRegistry& registry,
                  const char* what) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return;
  registry.snapshot().save(path);
  std::printf("wrote %s to %s\n", what, path.c_str());
}

int cmd_models(const Args&) {
  util::Table table({"model", "layers", "hidden", "mlp", "heads", "params",
                     "fp16 weights"});
  for (const auto& name : model::ModelSpec::known_names()) {
    const auto spec = model::ModelSpec::by_name(name);
    table.add_row({spec.name, std::to_string(spec.num_layers),
                   std::to_string(spec.hidden),
                   std::to_string(spec.mlp_hidden),
                   std::to_string(spec.num_heads),
                   util::Table::num(
                       static_cast<double>(spec.total_weights()) / 1e9, 1) +
                       "B",
                   util::format_bytes(model::total_weight_bytes(spec, 16))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_plan(const Args& args) {
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  model::Workload workload = load_workload(args);
  const auto platform = load_platform(args);

  // --auto-block 1: let the search pick the zig-zag block too.
  if (args.get_int("auto-block", 0) != 0) {
    const auto block = sched::search_block_size(
        spec, workload, platform, sched::SearchSpace::lm_offload());
    workload = block.workload;
    std::printf("auto block: %lld (= %lld x %lld), %zu/%zu candidate "
                "blocks feasible\n",
                static_cast<long long>(workload.block_size()),
                static_cast<long long>(workload.gpu_batch),
                static_cast<long long>(workload.num_batches),
                block.blocks_feasible, block.blocks_tried);
  }

  const auto plan = core::LMOffload::plan(spec, workload, platform);
  std::printf("model:     %s on %s\n", spec.name.c_str(),
              platform.name.c_str());
  std::printf("workload:  s=%lld n=%lld block=%lld (%lld x %lld)\n",
              static_cast<long long>(workload.prompt_len),
              static_cast<long long>(workload.gen_len),
              static_cast<long long>(workload.block_size()),
              static_cast<long long>(workload.gpu_batch),
              static_cast<long long>(workload.num_batches));
  std::printf("policy:    %s\n", plan.policy().to_string().c_str());
  std::printf("threads:   inter-op %d x intra-op %d + 5 I/O tasks\n",
              plan.parallelism.inter_op_compute,
              plan.parallelism.intra_op_compute);
  std::printf("estimate:  %.1f tokens/s | GPU %s | CPU %s | init %s\n",
              plan.search.estimate.throughput,
              util::format_bytes(plan.search.estimate.gpu_bytes_needed)
                  .c_str(),
              util::format_bytes(plan.search.estimate.cpu_bytes_needed)
                  .c_str(),
              util::format_seconds(plan.search.estimate.t_init).c_str());

  const std::string save_path = args.get("save", "");
  if (!save_path.empty()) {
    core::SavedPlan saved{spec.name, workload, plan.policy()};
    core::save_plan(saved, save_path);
    std::printf("plan saved to %s (replay: lmo compare --plan %s)\n",
                save_path.c_str(), save_path.c_str());
  }
  return 0;
}

int cmd_compare(const Args& args) {
  // A saved plan fixes model, workload and the LM-Offload policy.
  const std::string plan_path = args.get("plan", "");
  model::ModelSpec spec =
      model::ModelSpec::by_name(args.get("model", "opt-30b"));
  model::Workload workload = load_workload(args);
  const auto platform = load_platform(args);

  sched::SimulationReport lmo;
  if (!plan_path.empty()) {
    const auto saved = core::load_plan(plan_path);
    spec = model::ModelSpec::by_name(saved.model);
    workload = saved.workload;
    lmo = core::LMOffload::run_with_policy(spec, workload, saved.policy,
                                           platform);
  } else {
    lmo = core::LMOffload::run(spec, workload, platform);
  }
  const auto fg = sched::FlexGen::run(spec, workload, platform);
  const auto zr = sched::ZeroInference::run(spec, workload, platform);

  util::Table table({"framework", "policy", "bsz", "mem", "tput (tok/s)",
                     "norm"});
  const std::vector<const sched::SimulationReport*> reports = {&fg, &zr,
                                                               &lmo};
  for (const sched::SimulationReport* r : reports) {
    table.add_row({r->framework, r->policy.to_string(),
                   std::to_string(r->workload.block_size()),
                   util::format_bytes(r->memory_bytes),
                   util::Table::num(r->throughput, 1),
                   util::Table::num(r->throughput / lmo.throughput, 2)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  const auto platform = load_platform(args);
  util::Table table({"len", "FlexGen", "ZeRO-Inference", "LM-Offload",
                     "vs FG", "vs ZeRO"});
  for (std::int64_t len : {8, 16, 32, 64, 128}) {
    model::Workload w{.prompt_len = 64, .gen_len = len, .gpu_batch = 64,
                      .num_batches = 10};
    const auto fg = sched::FlexGen::run(spec, w, platform);
    const auto zr = sched::ZeroInference::run(spec, w, platform);
    const auto lmo = core::LMOffload::run(spec, w, platform);
    table.add_row({std::to_string(len), util::Table::num(fg.throughput, 1),
                   util::Table::num(zr.throughput, 1),
                   util::Table::num(lmo.throughput, 1),
                   util::Table::num(lmo.throughput / fg.throughput, 2) + "x",
                   util::Table::num(lmo.throughput / zr.throughput, 2) +
                       "x"});
  }
  table.print(std::cout);
  return 0;
}

int cmd_decide(const Args& args) {
  // The three model-guided decisions of paper §3.2, standalone.
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  const auto workload = load_workload(args);
  const auto platform = load_platform(args);

  perfmodel::Policy base;
  base.weights_on_gpu = args.get_int("wg", 50) / 100.0;
  base.attention_on_cpu = args.get("attn", "cpu") == "cpu";
  base.activations_on_gpu = base.attention_on_cpu ? 0.0 : 1.0;

  const int bits = static_cast<int>(args.get_int("bits", 4));
  const auto wq = core::decide_weight_quantization(spec, workload, base,
                                                   bits, platform);
  const auto kq = core::decide_kv_quantization(spec, workload, base, bits,
                                               platform);
  const auto place = core::decide_attention_placement(spec, workload, base,
                                                      platform);

  std::printf("base policy: %s\n\n", base.to_string().c_str());
  std::printf("weight %d-bit quantization: %-14s load_weight %s -> %s "
              "(%.2fx)\n",
              bits, wq.beneficial ? "BENEFICIAL" : "not beneficial",
              util::format_seconds(wq.seconds_without).c_str(),
              util::format_seconds(wq.seconds_with).c_str(), wq.gain());
  std::printf("KV %d-bit quantization:     %-14s cache path  %s -> %s "
              "(%.2fx)\n",
              bits, kq.beneficial ? "BENEFICIAL" : "not beneficial",
              util::format_seconds(kq.seconds_without).c_str(),
              util::format_seconds(kq.seconds_with).c_str(), kq.gain());
  std::printf("attention placement:       %-14s per layer-step: cpu %s vs "
              "gpu %s\n",
              place.offload_to_cpu ? "OFFLOAD TO CPU" : "KEEP ON GPU",
              util::format_seconds(place.cpu_seconds).c_str(),
              util::format_seconds(place.gpu_seconds).c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  // Online-serving simulation: requests from --trace CSV (arrival_seconds,
  // prompt_len, gen_len) or a Poisson profile (--rate, --requests).
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-13b"));
  const auto platform = load_platform(args);

  std::vector<serve::Request> requests;
  const std::string trace = args.get("trace", "");
  const std::int64_t templates = args.get_int("templates", 0);
  if (!trace.empty()) {
    requests = serve::requests_from_csv(trace);
  } else if (templates > 0) {
    // Shared-prefix workload: N templates × unique suffixes, so prefix
    // sharing has something to hit. Token-level prompts ride along even
    // with sharing off (they are then simply ignored).
    serve::SharedPrefixProfile profile;
    profile.base.arrival_rate = std::stod(args.get("rate", "2.0"));
    profile.num_templates = templates;
    profile.template_tokens = args.get_int("template-tokens", 64);
    requests = serve::generate_shared_prefix_requests(
        profile, args.get_int("requests", 100), 2024);
  } else {
    serve::RequestProfile profile;
    profile.arrival_rate = std::stod(args.get("rate", "2.0"));
    requests = serve::generate_requests(
        profile, args.get_int("requests", 100), 2024);
  }

  perfmodel::Policy policy;
  const std::string plan_path = args.get("plan", "");
  if (!plan_path.empty()) {
    policy = core::load_plan(plan_path).policy;
  } else {
    policy.weights_on_gpu = 0.5;
    policy.attention_on_cpu = false;
    policy.activations_on_gpu = 1.0;
    policy.weight_bits = 4;
    policy.kv_bits = 4;
    policy.parallelism_control = true;
  }

  serve::ServeConfig config;
  config.max_batch = args.get_int("max-batch", 16);
  config.prefill_chunk = args.get_int("chunk", 0);
  config.batching = args.get("batching", "continuous") == "static"
                        ? serve::Batching::kStatic
                        : serve::Batching::kContinuous;
  config.prefix_share = args.get_int("prefix-share", 0) != 0;
  config.kv_block_tokens = args.get_int("kv-block-tokens", 16);

  // Overload protection: bounded admission plus the degradation ladder
  // over a modelled KV pool (see docs/robustness.md).
  config.deadline_seconds = std::stod(args.get("deadline", "0"));
  config.max_retries = static_cast<int>(args.get_int("retries", 0));
  config.admission =
      overload::admission_policy_from_string(args.get("admission",
                                                      "unbounded"));
  config.max_queue = static_cast<std::size_t>(args.get_int("max-queue", 0));
  const std::int64_t kv_pool_mb = args.get_int("kv-pool-mb", 0);
  if (kv_pool_mb > 0) {
    config.overload.enabled = true;
    config.overload.kv_pool_bytes =
        static_cast<std::size_t>(kv_pool_mb) << 20;
  }

  // Online adaptive parallelism control: the engine closes the loop from
  // observed task spans back into the Algorithm-3 thread allocation.
  config.adaptive.enabled = args.get_int("adaptive", 0) != 0;
  config.adaptive.window_steps =
      static_cast<int>(args.get_int("window-steps", 8));

  // End-to-end integrity accounting (see docs/robustness.md): --verify
  // off|sample|always charges each step the checksum time for its host
  // fetches; --corrupt "T:ID[,T:ID...]" injects silent-corruption events
  // the engine repairs by checkpoint rollback (or, under verify=off,
  // counts as undetected).
  config.integrity.policy =
      integrity::verify_policy_from_string(args.get("verify", "off"));
  config.integrity.sample_period = args.get_int("verify-sample", 16);
  config.ckpt_interval_tokens = args.get_int("ckpt-interval", 32);
  const std::string corrupt = args.get("corrupt", "");
  for (std::size_t pos = 0; pos < corrupt.size();) {
    const auto comma = corrupt.find(',', pos);
    const std::string item = corrupt.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto colon = item.find(':');
    LMO_CHECK_MSG(colon != std::string::npos,
                  "--corrupt wants T:ID[,T:ID...], got: " + item);
    serve::CorruptionEvent event;
    event.at_seconds = std::stod(item.substr(0, colon));
    event.request_id = std::stoll(item.substr(colon + 1));
    config.corruptions.push_back(event);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder trace_recorder;
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) trace_recorder.enable();
  const auto m = serve::simulate_serving(
      spec, policy, platform, requests, config, &registry,
      trace_out.empty() ? nullptr : &trace_recorder);
  std::printf("served %zu requests on %s (%s batching%s)\n", m.completed,
              spec.name.c_str(),
              config.batching == serve::Batching::kStatic ? "static"
                                                          : "continuous",
              config.prefill_chunk > 0 ? ", chunked prefill" : "");
  std::printf("duration %.1f s | %.0f tok/s | %.2f req/s | occupancy "
              "%.1f/%lld\n",
              m.duration, m.token_throughput, m.request_throughput,
              m.mean_batch_occupancy,
              static_cast<long long>(config.max_batch));
  std::printf("TTFT p50/p95: %.2f / %.2f s | latency p50/p95: %.2f / "
              "%.2f s\n",
              m.ttft_p50, m.ttft_p95, m.latency_p50, m.latency_p95);
  if (config.prefix_share) {
    const auto total = m.prefix_hit_tokens + m.prefix_miss_tokens;
    std::printf("prefix sharing: %llu/%llu prompt tokens reused (%.0f%%), "
                "%llu prefilled, %s saved, %llu blocks evicted\n",
                static_cast<unsigned long long>(m.prefix_hit_tokens),
                static_cast<unsigned long long>(total),
                total > 0 ? 100.0 * static_cast<double>(m.prefix_hit_tokens) /
                                static_cast<double>(total)
                          : 0.0,
                static_cast<unsigned long long>(m.prefill_tokens),
                util::format_bytes(
                    static_cast<std::size_t>(m.prefix_bytes_saved))
                    .c_str(),
                static_cast<unsigned long long>(m.prefix_evicted_blocks));
  }

  if (config.admission != overload::AdmissionPolicy::kUnbounded ||
      config.overload.enabled) {
    std::printf("overload (%s): %zu shed, %zu rejected, %zu escalations / "
                "%zu de-escalations, %zu demoted, %zu preempted | goodput "
                "%.2f req/s\n",
                overload::to_string(config.admission), m.shed, m.rejected,
                m.overload_escalations, m.overload_deescalations,
                m.demoted_sessions, m.overload_preemptions,
                m.request_goodput);
  }

  if (config.integrity.enabled() || !config.corruptions.empty()) {
    std::printf("integrity (verify=%s): %zu corruption(s) detected, %zu "
                "undetected | %llu tokens re-decoded after rollback | "
                "%.2f s verifying\n",
                integrity::to_string(config.integrity.policy),
                m.corruption_detected, m.corruption_undetected,
                static_cast<unsigned long long>(m.rollback_tokens),
                m.verify_seconds);
  }

  if (config.adaptive.enabled) {
    std::printf("adaptive parallelism: %llu attempts, %llu applied, %llu "
                "reverted, %llu held | threads %g/%g/%g "
                "(intra/inter/io) | step factor %.3f\n",
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.attempts").value()),
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.applied").value()),
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.reverted").value()),
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.held").value()),
                registry.gauge("parallel.threads.intra").value(),
                registry.gauge("parallel.threads.inter").value(),
                registry.gauge("parallel.threads.io_total").value(),
                registry.gauge("parallel.adaptive.step_factor").value());
  }

  save_metrics(args, registry, "serve metrics");
  if (!trace_out.empty()) {
    trace_recorder.save(trace_out);
    std::printf("wrote request-lifecycle trace to %s\n", trace_out.c_str());
  }
  return 0;
}

/// The tiny streamed-weights runtime setup shared by the generation-level
/// verbs (chaos, checkpoint, resume): every layer offloaded so transfer
/// fault sites are actually exercised, 8-bit weights to keep it quick.
runtime::RuntimeConfig tiny_runtime_config(const Args& args) {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(4, 64, 4, 128);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;
  config.prefetch_threads = 0;
  config.recovery.retry_backoff_seconds = 1e-5;
  config.kv_flavor = runtime::kv_flavor_from_string(args.get("kv", "dense"));
  if (config.kv_flavor == runtime::KVFlavor::kWindow) {
    config.window_tokens = args.get_int("window", 8);
  }
  return config;
}

using Tokens = std::vector<std::vector<std::int64_t>>;

/// The prompt batch the tiny-runtime verbs generate from.
const Tokens kTinyPrompts = {{1, 2, 3, 4}};

constexpr const char* kFetchSite = "offload.fetch.transfer";
constexpr const char* kPrefetchSite = "offload.prefetch.transfer";

void print_tokens(const Tokens& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::printf("sequence %zu tokens:", i);
    for (std::int64_t tok : tokens[i]) {
      std::printf(" %lld", static_cast<long long>(tok));
    }
    std::printf("\n");
  }
}

/// A drill's pass/fail report. Each check prints `label yes` or
/// `label NO — why` (labels carry their own colon and alignment); each
/// requirement that the drill exercised its path prints a warning when it
/// did not. Both fold into the exit code.
struct Verdict {
  bool ok = true;

  void check(const char* label, bool pass, const char* why,
             const char* end = "\n") {
    std::printf("%s %s%s%s", label, pass ? "yes" : "NO — ", pass ? "" : why,
                end);
    ok = ok && pass;
  }
  void require(bool exercised, const char* warning) {
    if (!exercised) std::printf("WARNING: %s\n", warning);
    ok = ok && exercised;
  }
  int exit_code() const { return ok ? 0 : 1; }
};

/// A fault site to arm, and the fault kind whose firings a drill reports.
struct Arm {
  std::string site;
  util::FaultSpec spec;
  util::FaultKind kind = util::FaultKind::kTransient;
};

/// What one drill generation produced: the tokens, how often each arm's
/// fault kind fired, and the requested offload-registry counters (a
/// lazily registered counter that never fired reads 0).
struct DrillRun {
  Tokens tokens;
  std::vector<std::uint64_t> fired;
  std::map<std::string, std::uint64_t> counters;

  bool operator==(const DrillRun&) const = default;
};

/// Generate `batches` in turn on one fresh Generator, under fault
/// injection seeded with `seed` and armed with `arms` (no arms: no
/// injector at all).
DrillRun run_armed(const runtime::RuntimeConfig& config,
                   const std::vector<Tokens>& batches, std::int64_t gen_len,
                   std::uint64_t seed = 0, const std::vector<Arm>& arms = {},
                   const std::vector<std::string>& counters = {}) {
  DrillRun run;
  std::optional<util::ScopedFaultInjection> chaos;
  if (!arms.empty()) {
    chaos.emplace(seed);
    for (const Arm& a : arms) chaos->arm(a.site, a.spec);
  }
  runtime::Generator gen(config);
  for (const Tokens& prompts : batches) {
    for (auto& tokens : gen.generate(prompts, gen_len).tokens) {
      run.tokens.push_back(std::move(tokens));
    }
  }
  for (const Arm& a : arms) run.fired.push_back(chaos->count(a.site, a.kind));
  const auto snap = gen.manager().metrics().snapshot();
  for (const std::string& name : counters) {
    const auto* c = snap.find(name);
    run.counters[name] = c != nullptr ? c->count : 0;
  }
  return run;
}

/// Run `body(registry, recorder)` twice on a fresh registry and an enabled
/// recorder; returns whether the two metrics snapshots, and the two trace
/// JSONs, matched byte for byte.
template <typename Body>
std::pair<bool, bool> run_twice(Body body) {
  std::string metrics[2];
  std::string traces[2];
  for (int i = 0; i < 2; ++i) {
    telemetry::MetricsRegistry reg;
    telemetry::TraceRecorder rec;
    rec.enable();
    body(reg, rec);
    metrics[i] = reg.snapshot().to_json();
    traces[i] = rec.to_json();
  }
  return {metrics[0] == metrics[1], traces[0] == traces[1]};
}

/// Step a supervised generation to completion, journaling every step.
Tokens run_supervised(recover::RecoveryManager& manager,
                      runtime::Generator& gen) {
  while (!gen.done()) {
    gen.step();
    manager.note_step(gen);
  }
  return gen.finish().tokens;
}

/// `lmo chaos --profile kill-resume`: the crash-recovery determinism drill.
/// Reference run generates end-to-end under transient transfer faults; the
/// second run is killed mid-decode (snapshot, then the Generator and the
/// fault injector are destroyed), and a fresh process-equivalent resumes
/// from the checkpoint file. Byte-identical tokens prove the checkpoint
/// captures everything: KV state, RNG, and the per-site fault-stream
/// positions.
int cmd_chaos_kill_resume(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::int64_t gen_len = args.get_int("len", 12);
  const std::string path = args.get("out", "lmo_kill_resume.ckpt");
  const auto config = tiny_runtime_config(args);

  util::FaultSpec spec;
  spec.fail_probability = std::stod(args.get("rate", "0.05"));
  const std::vector<Arm> arms = {{kFetchSite, spec}, {kPrefetchSite, spec}};

  // Reference: one uninterrupted generation under chaos.
  const Tokens reference =
      run_armed(config, {kTinyPrompts}, gen_len, seed, arms).tokens;

  // "Crash": same chaos schedule, but the process dies halfway — snapshot,
  // then everything in scope (Generator, injector state) is destroyed.
  const std::int64_t kill_at = std::max<std::int64_t>(1, gen_len / 2);
  std::size_t payload_bytes = 0;
  {
    util::ScopedFaultInjection chaos(seed);
    for (const Arm& a : arms) chaos.arm(a.site, a.spec);
    runtime::Generator gen(config);
    gen.begin(kTinyPrompts, gen_len);
    while (gen.step_index() < kill_at && !gen.done()) gen.step();
    payload_bytes = gen.snapshot(path);
  }

  // Recovery: a fresh injector (same seed and arms — the checkpoint
  // fast-forwards each site's draw stream) and a fresh Generator resume
  // from the file and run to completion.
  Tokens resumed;
  std::int64_t resumed_from = 0;
  {
    util::ScopedFaultInjection chaos(seed);
    for (const Arm& a : arms) chaos.arm(a.site, a.spec);
    runtime::Generator gen(config);
    gen.resume(path);
    resumed_from = gen.step_index();
    while (!gen.done()) gen.step();
    resumed = gen.finish().tokens;
  }
  std::remove(path.c_str());

  std::printf("chaos profile 'kill-resume' (seed %llu, fault rate %.0f%%) "
              "on %s, %s KV\n",
              static_cast<unsigned long long>(seed),
              spec.fail_probability * 100.0, config.spec.name.c_str(),
              runtime::to_string(config.kv_flavor));
  std::printf("killed at token %lld/%lld; checkpoint %s (%zu payload "
              "bytes); resumed at token %lld\n",
              static_cast<long long>(kill_at),
              static_cast<long long>(gen_len), path.c_str(), payload_bytes,
              static_cast<long long>(resumed_from));
  Verdict verdict;
  verdict.check("tokens identical to uninterrupted run:",
                resumed == reference, "checkpoint determinism bug");
  return verdict.exit_code();
}

/// `lmo chaos --profile shared-prefix`: prefix-sharing determinism drill.
/// Two generation batches whose prompts share long prefixes run twice: a
/// clean reference with sharing off, and a chaos run with sharing on plus
/// transient transfer faults. The second batch's prefills hit the radix
/// cache warmed by the first, so byte-identical tokens prove shared KV
/// reuse is exact even while the recovery machinery is retrying transfers.
int cmd_chaos_shared_prefix(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::int64_t gen_len = args.get_int("len", 10);

  runtime::RuntimeConfig config = tiny_runtime_config(args);
  const std::int64_t block_tokens = args.get_int("kv-block-tokens", 8);

  // Batch A warms the cache; batch B shares A's leading tokens and adds
  // fresh suffixes. Deterministic literal prompts, multi-block prefixes.
  std::vector<std::int64_t> stem;
  for (std::int64_t t = 0; t < 4 * block_tokens; ++t) {
    stem.push_back(1 + (t * 7) % 96);
  }
  auto with_suffix = [&stem](std::initializer_list<std::int64_t> tail) {
    std::vector<std::int64_t> p = stem;
    p.insert(p.end(), tail);
    return p;
  };
  const std::vector<Tokens> batches = {
      {with_suffix({101, 102, 103}), with_suffix({44, 45})},
      {with_suffix({7, 8, 9, 10}), with_suffix({101, 102, 99})}};

  util::FaultSpec fault;
  fault.fail_probability = std::stod(args.get("rate", "0.05"));

  // Clean reference: sharing off, no faults.
  const Tokens clean = run_armed(config, batches, gen_len).tokens;

  // Chaos run: sharing on, transfer faults armed.
  config.prefix_share = true;
  config.kv_block_tokens = block_tokens;
  const DrillRun shared = run_armed(
      config, batches, gen_len, seed,
      {{kFetchSite, fault}, {kPrefetchSite, fault}},
      {"kvshare.hit_tokens", "kvshare.evicted_blocks"});
  const std::uint64_t hit_tokens = shared.counters.at("kvshare.hit_tokens");

  std::printf("chaos profile 'shared-prefix' (seed %llu, fault rate "
              "%.0f%%) on %s, block %lld tokens\n",
              static_cast<unsigned long long>(seed),
              fault.fail_probability * 100.0, config.spec.name.c_str(),
              static_cast<long long>(block_tokens));
  std::printf("batch B reused %llu prompt tokens from batch A's cache "
              "(%llu blocks evicted)\n",
              static_cast<unsigned long long>(hit_tokens),
              static_cast<unsigned long long>(
                  shared.counters.at("kvshare.evicted_blocks")));
  Verdict verdict;
  verdict.check("tokens identical to sharing-off fault-free run:",
                shared.tokens == clean, "prefix-sharing determinism bug");
  verdict.require(hit_tokens > 0, "no prefix hits recorded — drill did not "
                                  "exercise sharing");
  return verdict.exit_code();
}

/// `lmo chaos --profile bitflip`: the silent-corruption determinism drill.
/// A clean reference generation (verification on, no faults) is compared
/// against two identically-seeded runs with the bit-flip fault class armed
/// on the weight-fetch and KV read-back wires under verify=always. Exit 0
/// requires all of:
///   * chaos tokens byte-identical to the clean run — every flip was
///     detected and repaired, zero silent divergence;
///   * the two seeded runs agree on tokens *and* integrity.* counters —
///     detection and repair are deterministic;
///   * every fired flip was detected (verify.failures == flips fired) and
///     repaired on the right ladder rung (refetch + recompute == failures,
///     nothing unrepairable).
/// Single-threaded on purpose: the per-site flip draw order is the one
/// thread-sensitive part of the path, and the drill pins it down.
int cmd_chaos_bitflip(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::int64_t gen_len = args.get_int("len", 12);

  runtime::RuntimeConfig config = tiny_runtime_config(args);
  config.prefetch_threads = 0;  // deterministic draw order
  config.compute_threads = 1;
  config.integrity.policy = integrity::VerifyPolicy::kAlways;
  config.integrity.max_repair_attempts = args.get_int("repair-attempts", 8);

  // Per-draw flip probabilities. The KV site draws once per row *read*
  // (hundreds per step, and every repair re-prefill re-reads them all), so
  // its rate must sit well below the weight site's once-per-fetch rate or
  // repairs re-corrupt faster than the ladder converges.
  util::FaultSpec weights_fault;
  weights_fault.flip_probability = std::stod(args.get("rate", "0.05"));
  util::FaultSpec kv_fault;
  kv_fault.flip_probability = std::stod(args.get("kv-rate", "0.005"));
  const std::vector<Arm> arms = {
      {"integrity.weights.flip", weights_fault, util::FaultKind::kBitFlip},
      {"integrity.kv.flip", kv_fault, util::FaultKind::kBitFlip}};
  const std::vector<std::string> counters = {
      "integrity.verify.total", "integrity.verify.failures",
      "integrity.repair.refetch", "integrity.repair.recompute",
      "integrity.unrepairable"};

  // Clean reference: same config (verification armed), no injector.
  const Tokens clean = run_armed(config, {kTinyPrompts}, gen_len).tokens;
  const DrillRun a =
      run_armed(config, {kTinyPrompts}, gen_len, seed, arms, counters);
  const DrillRun b =
      run_armed(config, {kTinyPrompts}, gen_len, seed, arms, counters);
  const std::uint64_t failures = a.counters.at("integrity.verify.failures");
  const std::uint64_t refetch = a.counters.at("integrity.repair.refetch");
  const std::uint64_t recompute = a.counters.at("integrity.repair.recompute");
  const std::uint64_t unrepairable = a.counters.at("integrity.unrepairable");

  std::printf("chaos profile 'bitflip' (seed %llu, flip rate %.1f%% per "
              "fetch / %.2f%% per KV row) on %s, %s KV, verify=always\n",
              static_cast<unsigned long long>(seed),
              weights_fault.flip_probability * 100.0,
              kv_fault.flip_probability * 100.0, config.spec.name.c_str(),
              runtime::to_string(config.kv_flavor));
  std::printf("flips fired: %llu on weight fetches, %llu on KV read-backs "
              "| %llu loads verified\n",
              static_cast<unsigned long long>(a.fired[0]),
              static_cast<unsigned long long>(a.fired[1]),
              static_cast<unsigned long long>(
                  a.counters.at("integrity.verify.total")));
  std::printf("repair ladder: %llu detected -> %llu weight re-fetches + "
              "%llu KV re-prefills, %llu unrepairable\n",
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(refetch),
              static_cast<unsigned long long>(recompute),
              static_cast<unsigned long long>(unrepairable));

  const std::uint64_t fired = a.fired[0] + a.fired[1];
  Verdict verdict;
  verdict.check("tokens identical to fault-free run:", a.tokens == clean,
                "silent corruption leaked");
  verdict.check("seeded runs identical (tokens + integrity counters):",
                a == b, "integrity determinism bug");
  verdict.check("every fired flip detected:", failures == fired,
                "a verified region missed a flip", " | ");
  verdict.check("repairs account for every detection:",
                refetch + recompute == failures && unrepairable == 0,
                "repair accounting mismatch");
  verdict.require(fired > 0, "no bit flips fired — drill did not exercise "
                             "the integrity path");
  return verdict.exit_code();
}

/// `lmo chaos --profile diskfault`: the three-tier determinism drill.
/// The coldest layers live on the disk tier (in-memory backend, so the
/// drill is hermetic — the fault sites and CRC path are identical to a
/// file backend). A fault-free disk-off run is the reference; a fault-free
/// disk-on run proves the tier is transparent; two identically-seeded runs
/// with torn writes armed on the spill path and read errors on the staging
/// path prove the store's bounded retries absorb both classes without
/// perturbing a single token. Single-threaded so the per-site draw order
/// is pinned.
int cmd_chaos_diskfault(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::int64_t gen_len = args.get_int("len", 12);

  runtime::RuntimeConfig config = tiny_runtime_config(args);
  config.prefetch_threads = 0;  // deterministic draw order
  config.compute_threads = 1;

  // Reference: the whole model on the device+host tiers.
  const Tokens reference = run_armed(config, {kTinyPrompts}, gen_len).tokens;

  // Disk tier on: the back half of the model spills to the block store.
  config.disk_layers = std::max<std::int64_t>(1, config.spec.num_layers / 2);
  config.disk_capacity = 64u << 20;
  const Tokens spilled = run_armed(config, {kTinyPrompts}, gen_len).tokens;

  // Spill writes happen once per shard at registration (a few dozen), so
  // the torn-write rate sits well above the per-read error rate or the
  // drill never exercises the write-verify path.
  util::FaultSpec write_fault;
  write_fault.torn_write_probability = std::stod(args.get("rate", "0.2"));
  util::FaultSpec read_fault;
  read_fault.read_error_probability =
      std::stod(args.get("read-rate", "0.05"));
  const std::vector<Arm> arms = {
      {store::BlockStore::kWriteSite, write_fault,
       util::FaultKind::kTornWrite},
      {store::BlockStore::kReadSite, read_fault,
       util::FaultKind::kReadError}};
  const std::vector<std::string> counters = {"store.write.retries",
                                             "store.read.retries"};
  const DrillRun a =
      run_armed(config, {kTinyPrompts}, gen_len, seed, arms, counters);
  const DrillRun b =
      run_armed(config, {kTinyPrompts}, gen_len, seed, arms, counters);

  std::printf("chaos profile 'diskfault' (seed %llu, torn-write rate "
              "%.0f%% / read-error rate %.0f%%) on %s, %lld of %lld "
              "layers on disk\n",
              static_cast<unsigned long long>(seed),
              write_fault.torn_write_probability * 100.0,
              read_fault.read_error_probability * 100.0,
              config.spec.name.c_str(),
              static_cast<long long>(config.disk_layers),
              static_cast<long long>(config.spec.num_layers));
  std::printf("faults fired: %llu torn writes, %llu read errors | "
              "retries: %llu write, %llu read\n",
              static_cast<unsigned long long>(a.fired[0]),
              static_cast<unsigned long long>(a.fired[1]),
              static_cast<unsigned long long>(
                  a.counters.at("store.write.retries")),
              static_cast<unsigned long long>(
                  a.counters.at("store.read.retries")));
  Verdict verdict;
  verdict.check("disk-on tokens identical to disk-off run:",
                spilled == reference, "spill changed the output");
  verdict.check("tokens identical under disk faults:", a.tokens == reference,
                "a fault leaked into the output");
  verdict.check("seeded runs identical (tokens + store counters):", a == b,
                "store determinism bug");
  verdict.require(a.fired[0] + a.fired[1] > 0,
                  "no disk faults fired — drill did not exercise the "
                  "store's retry path");
  return verdict.exit_code();
}

/// `lmo chaos --profile overload`: the overload-protection determinism
/// drill. A seeded burst workload slams the serving simulator with the
/// degradation ladder, a tight KV pool, and deadline-aware shedding armed;
/// the identical run repeats and the two metrics snapshots and trace JSONs
/// (which carry every ladder transition and shed/reject span) must match
/// byte for byte. Exit 0 additionally requires that the drill actually
/// escalated the ladder and shed work — a drill that never left kNormal
/// proves nothing.
int cmd_chaos_overload(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-13b"));
  const auto platform = load_platform(args);

  serve::BurstProfile profile;
  profile.base.arrival_rate = 0.5;
  profile.base.prompt_mean = 64;
  profile.base.gen_mean = 48;
  profile.base.gen_max = 128;
  profile.burst_rate = std::stod(args.get("burst-rate", "8.0"));
  profile.burst_start = 10.0;
  profile.burst_duration = 30.0;
  profile.ramp_seconds = 5.0;
  profile.num_priorities = 3;
  const std::int64_t count = args.get_int("requests", 140);

  // GPU-resident weights: the engine has genuine capacity at the base
  // rate, so overload comes from the burst — not from a server that was
  // already drowning.
  perfmodel::Policy policy;
  policy.weights_on_gpu = 1.0;
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 8;
  policy.parallelism_control = true;

  serve::ServeConfig config;
  config.max_batch = 8;
  config.deadline_seconds = std::stod(args.get("deadline", "30.0"));
  config.admission = overload::AdmissionPolicy::kDeadlineShed;
  config.max_queue = static_cast<std::size_t>(args.get_int("max-queue", 24));
  config.overload.enabled = true;
  config.overload.kv_pool_bytes =
      static_cast<std::size_t>(args.get_int("kv-pool-kb", 10240)) << 10;
  config.overload.ladder.escalate_steps = 2;
  config.overload.ladder.deescalate_steps = 4;

  const auto requests = serve::generate_burst_requests(profile, count, seed);
  serve::ServeMetrics m;
  const auto [metrics_identical, traces_identical] =
      run_twice([&](telemetry::MetricsRegistry& reg,
                    telemetry::TraceRecorder& rec) {
        m = serve::simulate_serving(spec, policy, platform, requests, config,
                                    &reg, &rec);
      });

  std::printf("chaos profile 'overload' (seed %llu) on %s: %lld requests, "
              "burst %.0f req/s, KV pool %s\n",
              static_cast<unsigned long long>(seed), spec.name.c_str(),
              static_cast<long long>(count), profile.burst_rate,
              util::format_bytes(
                  static_cast<double>(config.overload.kv_pool_bytes))
                  .c_str());
  std::printf("ladder: %zu escalations / %zu de-escalations | %zu shed, "
              "%zu rejected, %zu demoted, %zu preempted\n",
              m.overload_escalations, m.overload_deescalations, m.shed,
              m.rejected, m.demoted_sessions, m.overload_preemptions);
  std::printf("goodput %.2f req/s | SLO attainment %.0f%% | %zu completed\n",
              m.request_goodput, m.slo_attainment * 100.0, m.completed);
  Verdict verdict;
  verdict.check("metrics snapshots byte-identical:", metrics_identical,
                "overload determinism bug");
  verdict.check("overload traces byte-identical:  ", traces_identical,
                "overload determinism bug");
  verdict.require(m.overload_escalations > 0,
                  "ladder never escalated — drill did not exercise overload");
  verdict.require(m.shed + m.rejected > 0,
                  "nothing was shed or rejected — drill did not exercise "
                  "load shedding");
  return verdict.exit_code();
}

/// `lmo chaos --profile adaptive`: the adaptive-parallelism determinism
/// drill, in two parts. (1) Two seeded closed-loop simulations on a
/// miscalibrated believed input (copy bandwidth 4x too optimistic) must
/// produce byte-identical metrics snapshots and replan traces, and the
/// controller must actually re-plan to at least match the static plan.
/// (2) Real tiny-Generator runs: adaptive twice must agree token-for-token,
/// and adaptive vs. control-off must too — the controller moves threads,
/// never tokens.
int cmd_chaos_adaptive(const Args& args) {
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-13b"));
  // Default to the desktop preset: 16 cores and a PCIe 4 link make the
  // believed plan I/O-bound once the true copy bandwidth is 4x lower, so
  // the drill genuinely forces a re-plan (the datacenter presets stay
  // compute-bound and would hold forever).
  const auto platform = hw::platform_by_name(
      args.get("platform", "rtx4090-desktop"));
  const int windows = static_cast<int>(args.get_int("windows", 6));

  model::Workload w;
  w.prompt_len = 512;
  w.gen_len = 32;
  w.gpu_batch = 8;
  w.num_batches = 1;
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.5;
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 4;
  policy.parallelism_control = true;

  parallel::SearchInput believed;
  believed.compute_graph = core::LMOffload::compute_graph(spec, w, policy);
  believed.io_bytes = core::LMOffload::io_volumes(spec, w, policy);
  believed.platform = platform;
  parallel::SearchInput truth = believed;
  truth.per_thread_copy_bw = believed.per_thread_copy_bw / 4.0;

  parallel::AdaptiveConfig aconfig;
  aconfig.enabled = true;

  parallel::AdaptiveSimResult sim_result;
  const auto [metrics_identical, traces_identical] =
      run_twice([&](telemetry::MetricsRegistry& reg,
                    telemetry::TraceRecorder& rec) {
        sim_result = parallel::simulate_adaptive(believed, truth, aconfig,
                                                 windows, &reg, &rec);
      });

  std::printf("chaos profile 'adaptive' on %s: believed copy bw %.1f "
              "GB/s/thread, true %.1f\n",
              spec.name.c_str(), believed.per_thread_copy_bw / 1e9,
              truth.per_thread_copy_bw / 1e9);
  std::printf("closed loop over %d windows: t_gen %.3f s static -> %.3f s "
              "adaptive (%d applied, %d reverted)\n",
              windows, sim_result.static_t_gen, sim_result.adaptive_t_gen,
              sim_result.applied, sim_result.reverted);
  Verdict verdict;
  verdict.check("metrics snapshots byte-identical:", metrics_identical,
                "adaptive determinism bug");
  verdict.check("replan traces byte-identical:    ", traces_identical,
                "adaptive determinism bug");

  // Part 2: the real runtime. Same prompts, controller on/on/off.
  runtime::RuntimeConfig rconfig = tiny_runtime_config(args);
  const std::int64_t gen_len = args.get_int("len", 12);
  rconfig.adaptive.enabled = true;
  rconfig.adaptive.window_steps = 3;
  const Tokens adaptive_1 = run_armed(rconfig, {kTinyPrompts}, gen_len).tokens;
  const Tokens adaptive_2 = run_armed(rconfig, {kTinyPrompts}, gen_len).tokens;
  rconfig.adaptive.enabled = false;
  const Tokens control_off =
      run_armed(rconfig, {kTinyPrompts}, gen_len).tokens;
  verdict.check("runtime tokens identical across adaptive runs:",
                adaptive_1 == adaptive_2, "adaptive determinism bug");
  verdict.check("runtime tokens identical with controller off:",
                adaptive_1 == control_off, "controller perturbed tokens");
  verdict.require(sim_result.applied > 0,
                  "controller never applied a re-plan — drill did not "
                  "exercise adaptation");
  verdict.require(
      sim_result.adaptive_t_gen <= sim_result.static_t_gen * 1.0001,
      "adaptive t_gen regressed past the static plan");
  return verdict.exit_code();
}

/// `lmo checkpoint --verify FILE`: validate a checkpoint without restoring
/// it. Two passes, each reporting a typed verdict: the envelope (magic,
/// format version, payload kind, length, CRC-32 trailer — see
/// ckpt/format.hpp for the error taxonomy and check order), then the
/// payload's section ordering (config fingerprint + progress decode, the
/// same probe `lmo resume` runs). No pools are touched and no Generator is
/// built, so a corrupt file can be triaged on a machine that could never
/// host the model.
int cmd_checkpoint_verify(const Args& args) {
  const std::string path = args.get("verify", "");
  std::printf("verifying checkpoint %s\n", path.c_str());

  std::size_t payload_bytes = 0;
  try {
    payload_bytes =
        ckpt::read_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState)
            .size();
  } catch (const util::CheckpointTruncated& e) {
    std::printf("envelope: TRUNCATED — %s\n", e.what());
    return 1;
  } catch (const util::CheckpointVersionMismatch& e) {
    std::printf("envelope: VERSION MISMATCH — %s\n", e.what());
    return 1;
  } catch (const util::CheckpointMismatch& e) {
    std::printf("envelope: WRONG PAYLOAD KIND — %s\n", e.what());
    return 1;
  } catch (const util::CheckpointCorrupt& e) {
    std::printf("envelope: CORRUPT — %s\n", e.what());
    return 1;
  }
  std::printf("envelope: ok — magic, format v%u, generator-state payload "
              "(%zu bytes), CRC-32 intact\n",
              ckpt::kFormatVersion, payload_bytes);

  try {
    const auto meta = runtime::read_checkpoint_meta(path);
    std::printf("sections: ok — config fingerprint and progress decode "
                "in order\n");
    std::printf("contents: %s, %s KV, %zu sequence(s) at token %lld/%lld\n",
                meta.config.spec.name.c_str(),
                runtime::to_string(meta.config.kv_flavor),
                meta.num_sequences, static_cast<long long>(meta.produced),
                static_cast<long long>(meta.gen_len));
  } catch (const util::CheckpointError& e) {
    std::printf("sections: INVALID — %s\n", e.what());
    return 1;
  } catch (const util::CheckError& e) {
    std::printf("sections: INVALID — %s\n", e.what());
    return 1;
  }
  std::printf("checkpoint is valid; restore with: lmo resume --from %s\n",
              path.c_str());
  return 0;
}

/// `lmo checkpoint`: run the tiny generator partway and snapshot its state
/// to a file `lmo resume` can pick up — the smallest end-to-end exercise of
/// the crash-resume path. With --verify FILE, validate an existing
/// checkpoint instead (no generation, no restore).
int cmd_checkpoint(const Args& args) {
  if (!args.get("verify", "").empty()) return cmd_checkpoint_verify(args);
  const std::string out = args.get("out", "lmo_generation.ckpt");
  const std::int64_t gen_len = args.get_int("len", 12);
  const std::int64_t at =
      std::max<std::int64_t>(1, args.get_int("at", gen_len / 2));
  const auto config = tiny_runtime_config(args);

  runtime::Generator gen(config);
  gen.begin(kTinyPrompts, gen_len);
  while (gen.step_index() < at && !gen.done()) gen.step();
  const std::size_t payload_bytes = gen.snapshot(out);

  std::printf("checkpointed %lld/%lld tokens (%s, %s KV) to %s "
              "(%zu payload bytes)\n",
              static_cast<long long>(gen.step_index()),
              static_cast<long long>(gen_len), config.spec.name.c_str(),
              runtime::to_string(config.kv_flavor), out.c_str(),
              payload_bytes);
  std::printf("continue with: lmo resume --from %s\n", out.c_str());
  return 0;
}

/// `lmo resume`: reconstruct a Generator from a checkpoint file and run the
/// interrupted generation to completion. The runtime configuration comes
/// from the checkpoint itself (read_checkpoint_meta), so no flags beyond
/// --from are needed — and none can silently mismatch.
int cmd_resume(const Args& args) {
  const std::string from = args.get("from", "lmo_generation.ckpt");
  const auto meta = runtime::read_checkpoint_meta(from);
  std::printf("checkpoint %s: %s, %s KV, %zu sequence(s) at token "
              "%lld/%lld\n",
              from.c_str(), meta.config.spec.name.c_str(),
              runtime::to_string(meta.config.kv_flavor), meta.num_sequences,
              static_cast<long long>(meta.produced),
              static_cast<long long>(meta.gen_len));

  runtime::Generator gen(meta.config);
  gen.resume(from);
  while (!gen.done()) gen.step();
  const auto result = gen.finish();
  print_tokens(result.tokens);
  std::printf("resumed run: %.1f tok/s (%lld tokens finished after "
              "restore)\n",
              result.tokens_per_second,
              static_cast<long long>(meta.gen_len - meta.produced));
  save_metrics(args, gen.manager().metrics(), "resume-run offload metrics");
  return 0;
}

/// `lmo recover --dir D`: restore the last durable state a supervised run
/// (RecoveryManager) left in a recovery directory — WAL replay, spill-block
/// adoption, checkpoint restore — and finish the generation under continued
/// supervision. The runtime configuration comes from the checkpoint itself.
int cmd_recover(const Args& args) {
  const std::string dir = args.get("dir", "lmo_crash_drill");
  recover::RecoveryManager manager({dir});
  recover::RecoveredSession session = manager.recover();
  runtime::Generator& gen = *session.generator;
  std::printf("recovered %s: epoch %llu, %llu WAL record(s) replayed, "
              "%llu orphan block(s) freed, %llu torn byte(s) truncated, "
              "%llu stale payload(s) swept (%.3f ms replay)\n",
              dir.c_str(), static_cast<unsigned long long>(session.epoch),
              static_cast<unsigned long long>(session.replay_records),
              static_cast<unsigned long long>(session.orphan_blocks),
              static_cast<unsigned long long>(session.truncated_bytes),
              static_cast<unsigned long long>(session.stale_payloads),
              session.replay_seconds * 1e3);
  print_tokens(run_supervised(manager, gen));
  save_metrics(args, gen.manager().metrics(), "recovery-run metrics");
  return 0;
}

/// `lmo chaos --profile crash`: the kill -9 drill. A reference supervised
/// run records the expected tokens; then, for every crash-point fault site
/// on the offload path, a forked child re-runs the same supervised
/// generation with SIGKILL armed at successive operation indices of that
/// site. The parent recovers each kill from the on-disk state alone and
/// asserts byte-identical tokens. A clean child exit means the site ran
/// out of operations — the sweep moves to the next site.
int cmd_chaos_crash(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::int64_t gen_len = args.get_int("len", 8);
  const int max_ops = args.get_int("ops", 4);
  const std::string dir = args.get("dir", "lmo_crash_drill");

  runtime::RuntimeConfig config = tiny_runtime_config(args);
  // Disk tier on (journaled spills) and strictly no threads: the child is
  // forked, and a forked process must not inherit pool threads mid-state.
  config.disk_layers = 2;
  config.disk_capacity = 8u << 20;
  config.spill_block_bytes = 4096;
  config.prefetch_threads = 0;
  config.compute_threads = 1;

  // One uninterrupted supervised run: the reference, and what each child
  // re-runs with a kill armed.
  const auto supervised_run = [&] {
    recover::RecoveryManager manager({dir});
    auto gen = manager.start(config);
    gen->begin(kTinyPrompts, gen_len);
    return run_supervised(manager, *gen);
  };
  const Tokens reference = supervised_run();

  const std::vector<std::string> sites = {
      recover::kJournalAppendSite,
      store::BlockStore::kWriteSite,
      recover::kJournalFsyncSite,
      ckpt::kPublishSite,
  };
  int kills = 0;
  int recovered_ok = 0;
  int failures = 0;
  for (const std::string& site : sites) {
    for (int at = 0; at < max_ops; ++at) {
      std::fflush(stdout);
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Child: same supervised run, SIGKILL armed at operation `at` of
        // `site`. _exit(0) means the schedule never fired.
        util::ScopedFaultInjection chaos(seed);
        util::FaultSpec spec;
        spec.crash_at_op = at;
        chaos.arm(site, spec);
        try {
          supervised_run();
        } catch (...) {
          ::_exit(3);
        }
        ::_exit(0);
      }
      LMO_CHECK_MSG(pid > 0, "fork failed");
      int status = 0;
      LMO_CHECK_MSG(::waitpid(pid, &status, 0) == pid, "waitpid failed");
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) break;  // site done
      const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
      if (!killed) {
        std::printf("site %s op %d: child failed unexpectedly (status %d)\n",
                    site.c_str(), at, status);
        ++failures;
        continue;
      }
      ++kills;
      // Parent: recover from the on-disk state alone. A crash before the
      // first checkpoint legitimately recovers unresumed — then the drill
      // begins from scratch (identical tokens either way: deterministic).
      recover::RecoveryManager manager({dir});
      recover::RecoveredSession session = manager.recover(&config);
      runtime::Generator& gen = *session.generator;
      if (!session.resumed) gen.begin(kTinyPrompts, gen_len);
      const bool identical = run_supervised(manager, gen) == reference;
      std::printf("site %-24s op %d: killed, recovered at epoch %llu "
                  "(%s, %llu orphan block(s)) -> tokens %s\n",
                  site.c_str(), at,
                  static_cast<unsigned long long>(session.epoch),
                  session.resumed ? "resumed" : "fresh start",
                  static_cast<unsigned long long>(session.orphan_blocks),
                  identical ? "identical" : "DIVERGED");
      if (identical) {
        ++recovered_ok;
      } else {
        ++failures;
      }
    }
  }
  std::printf("chaos profile 'crash' (seed %llu): %d kill(s), %d recovered "
              "byte-identically, %d failure(s)\n",
              static_cast<unsigned long long>(seed), kills, recovered_ok,
              failures);
  if (kills == 0) {
    std::printf("no crash site ever fired — drill is vacuous\n");
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

/// `lmo chaos --profile flaky-pcie|congested|dead-prefetch|oom`: real
/// generation under a transfer or allocation fault profile, reporting how
/// the recovery machinery absorbed it. The robustness contract: faults
/// perturb timing, never tokens (except `oom`, whose degradation ladder
/// lowers weight precision by design).
int cmd_chaos_faults(const Args& args) {
  const std::string profile = args.get("profile", "flaky-pcie");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::int64_t gen_len = args.get_int("len", 12);
  runtime::RuntimeConfig config = tiny_runtime_config(args);

  std::vector<Arm> arms;
  bool tokens_must_match = true;
  util::FaultSpec spec;
  if (profile == "flaky-pcie") {
    // Transient transfer failures on every host->device path.
    spec.fail_probability = std::stod(args.get("rate", "0.05"));
    arms = {{kFetchSite, spec}, {kPrefetchSite, spec}};
  } else if (profile == "congested") {
    // Latency spikes plus one hard bandwidth-degradation window.
    spec.latency_probability = 0.2;
    spec.latency_seconds = 2e-4;
    spec.window_begin = 8;
    spec.window_end = 24;
    arms = {{kFetchSite, spec}};
  } else if (profile == "dead-prefetch") {
    // Async loads always die; fetches must fall back synchronously.
    config.prefetch_threads = 2;
    spec.fail_probability = 1.0;
    arms = {{kPrefetchSite, spec}};
  } else {
    // oom: the host pool denies the first allocations and registration
    // re-quantizes. Start at fp16 so the ladder has two rungs (8-bit,
    // 4-bit) to absorb the denials with.
    config.weight_bits = 16;
    spec.alloc_failures = args.get_int("denials", 2);
    arms = {{"pool.host.charge", spec}};
    tokens_must_match = false;  // lower precision changes the tokens
  }

  runtime::Generator clean_gen(config);
  const auto clean = clean_gen.generate(kTinyPrompts, gen_len);

  util::ScopedFaultInjection chaos(seed);
  for (const Arm& a : arms) chaos.arm(a.site, a.spec);
  runtime::Generator chaos_gen(config);
  const auto faulted = chaos_gen.generate(kTinyPrompts, gen_len);

  std::printf("chaos profile '%s' (seed %llu) on %s, %lld tokens\n\n",
              profile.c_str(), static_cast<unsigned long long>(seed),
              config.spec.name.c_str(),
              static_cast<long long>(gen_len));

  util::Table injected({"site", "kind", "fired"});
  for (const Arm& a : arms) {
    for (auto kind : {util::FaultKind::kTransient, util::FaultKind::kLatency,
                      util::FaultKind::kAllocFailure}) {
      const auto n = chaos.count(a.site, kind);
      if (n > 0) {
        injected.add_row({a.site, util::to_string(kind), std::to_string(n)});
      }
    }
  }
  injected.print(std::cout);

  const auto& s = faulted.offload;
  util::Table report({"recovery action", "count"});
  report.add_row({"transfer retries", std::to_string(s.transfer_retries)});
  report.add_row({"transfer failures (budget exhausted)",
                  std::to_string(s.transfer_failures)});
  report.add_row({"prefetch failures", std::to_string(s.prefetch_failures)});
  report.add_row({"prefetch timeouts", std::to_string(s.prefetch_timeouts)});
  report.add_row({"sync fallbacks", std::to_string(s.sync_fallbacks)});
  report.add_row({"prefetch discards", std::to_string(s.prefetch_discards)});
  report.add_row({"degradations", std::to_string(s.degradations)});
  report.add_row({"staged evictions", std::to_string(s.staged_evictions)});
  std::printf("\n");
  report.print(std::cout);

  // Wall-clock figures go to stderr so stdout stays deterministic.
  std::fprintf(stderr, "\nthroughput: %.1f tok/s clean -> %.1f tok/s under "
               "chaos\n", clean.tokens_per_second, faulted.tokens_per_second);
  save_metrics(args, chaos_gen.manager().metrics(),
               "chaos-run offload metrics");

  const bool identical = faulted.tokens == clean.tokens;
  if (!tokens_must_match) {
    std::printf("tokens %s fault-free run (degradation ladder re-quantized "
                "weights; divergence is expected)\n",
                identical ? "identical to" : "diverge from");
    return 0;
  }
  Verdict verdict;
  verdict.check("tokens identical to fault-free run:", identical,
                "robustness bug");
  return verdict.exit_code();
}

/// Every `lmo chaos --profile` drill, with the options it reads beyond
/// --seed, --len and --metrics-out.
struct ChaosProfile {
  const char* name;
  int (*run)(const Args&);
  const char* options;
};

constexpr ChaosProfile kChaosProfiles[] = {
    {"flaky-pcie", cmd_chaos_faults, "[--rate P]"},
    {"congested", cmd_chaos_faults, ""},
    {"dead-prefetch", cmd_chaos_faults, ""},
    {"oom", cmd_chaos_faults, "[--denials N]"},
    {"bitflip", cmd_chaos_bitflip,
     "[--rate P] [--kv-rate P] [--repair-attempts N]"},
    {"diskfault", cmd_chaos_diskfault, "[--rate P] [--read-rate P]"},
    {"kill-resume", cmd_chaos_kill_resume,
     "[--rate P] [--kv dense|window]"},
    {"shared-prefix", cmd_chaos_shared_prefix,
     "[--rate P] [--kv-block-tokens N]"},
    {"overload", cmd_chaos_overload, "[--burst-rate R] [--kv-pool-kb N]"},
    {"adaptive", cmd_chaos_adaptive, "[--windows N]"},
    {"crash", cmd_chaos_crash, "[--ops N] [--dir D]"},
};

/// "name [options], ..." over kChaosProfiles, for usage messages.
std::string chaos_profiles_usage() {
  std::string out;
  for (const ChaosProfile& p : kChaosProfiles) {
    if (!out.empty()) out += ", ";
    out += p.name;
    if (*p.options != '\0') out += std::string(" ") + p.options;
  }
  return out;
}

int cmd_chaos(const Args& args) {
  const std::string profile = args.get("profile", "flaky-pcie");
  for (const ChaosProfile& p : kChaosProfiles) {
    if (profile == p.name) return p.run(args);
  }
  std::fprintf(stderr, "unknown chaos profile: %s\nprofiles: %s\n",
               profile.c_str(), chaos_profiles_usage().c_str());
  return 2;
}

int cmd_graph(const Args& args) {
  // Emit the attention compute-task op graph (paper Fig. 6) as DOT.
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  const auto workload = load_workload(args);
  perfmodel::Policy policy;  // graph structure is policy-light
  policy.kv_bits = static_cast<int>(args.get_int("kv-bits", 16));
  auto graph = core::LMOffload::compute_graph(spec, workload, policy);
  const std::string out = args.get("out", "fig6.dot");
  std::ofstream file(out);
  LMO_CHECK_MSG(file.good(), "cannot open output: " + out);
  file << model::to_dot(graph, spec.name + " attention compute task");
  std::printf("wrote %zu ops (max concurrency %zu) to %s — render with "
              "`dot -Tsvg %s`\n",
              graph.size(), graph.max_concurrency(), out.c_str(),
              out.c_str());
  return 0;
}

int cmd_calibrate(const Args& args) {
  // Observations CSV columns: model, prompt, gen_len, gpu_batch,
  // num_batches, wg, attn (cpu|gpu), weight_bits, kv_bits, control (0|1),
  // tput.
  const std::string path = args.get("obs", "");
  LMO_CHECK_MSG(!path.empty(), "calibrate needs --obs observations.csv");
  const auto csv = util::CsvReader::load(path);

  std::vector<perfmodel::Observation> observations;
  for (std::size_t i = 0; i < csv.rows(); ++i) {
    perfmodel::Observation obs;
    obs.spec = model::ModelSpec::by_name(csv.at(i, "model"));
    obs.workload.prompt_len = std::stoll(csv.at(i, "prompt"));
    obs.workload.gen_len = std::stoll(csv.at(i, "gen_len"));
    obs.workload.gpu_batch = std::stoll(csv.at(i, "gpu_batch"));
    obs.workload.num_batches = std::stoll(csv.at(i, "num_batches"));
    obs.policy.weights_on_gpu = std::stod(csv.at(i, "wg"));
    obs.policy.attention_on_cpu = csv.at(i, "attn") == "cpu";
    obs.policy.activations_on_gpu =
        obs.policy.attention_on_cpu ? 0.0 : 1.0;
    obs.policy.weight_bits =
        static_cast<int>(std::stoll(csv.at(i, "weight_bits")));
    obs.policy.kv_bits = static_cast<int>(std::stoll(csv.at(i, "kv_bits")));
    obs.policy.parallelism_control = csv.at(i, "control") == "1";
    obs.measured_throughput = std::stod(csv.at(i, "tput"));
    observations.push_back(std::move(obs));
  }
  std::printf("fitting %zu observations from %s\n", observations.size(),
              path.c_str());

  const auto fit =
      perfmodel::calibrate(load_platform(args), observations);
  std::printf("loss: %.4f -> %.4f in %d rounds\n", fit.initial_loss,
              fit.final_loss, fit.rounds);
  std::printf("\n# fitted constants (paste into a platform config)\n");
  std::printf("eff.pcie = %.4f\n", fit.platform.eff.pcie);
  std::printf("eff.gpu_matmul = %.4f\n", fit.platform.eff.gpu_matmul);
  std::printf("eff.cpu_attention_default = %.4f\n",
              fit.platform.eff.cpu_attention_default);
  std::printf("eff.cpu_attention_tuned = %.4f\n",
              fit.platform.eff.cpu_attention_tuned);
  std::printf("# task_overhead = %.2f ms (not a config key; edit code)\n",
              fit.platform.eff.task_overhead * 1e3);
  std::printf("\npredicted/measured per observation:");
  for (double ratio : fit.fit_ratios) std::printf(" %.2f", ratio);
  std::printf("\n");
  return 0;
}

/// `lmo trace --runtime 1`: capture a *measured* timeline from a real tiny
/// Generator run — the six Algorithm-1 task spans (load_weight on prefetch
/// worker rows overlapping compute on the main row), diffable against the
/// simulator's predicted timeline from the default mode.
int cmd_trace_runtime(const Args& args) {
  const std::string out = args.get("out", "lmo_trace.json");
  const std::int64_t gen_len = args.get_int("len", 12);

  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(4, 64, 4, 128);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;       // every layer streams: load_weight spans
  config.prefetch_threads = 2;    // worker rows that overlap the main row
  // --adaptive 1: close the loop — the controller folds this run's own
  // measured spans back into Algorithm 3 and re-plans between windows.
  // Token outputs are unaffected; replan decisions land as
  // "parallel.replan:*" spans on pid 2 of the same timeline.
  config.adaptive.enabled = args.get_int("adaptive", 0) != 0;
  config.adaptive.window_steps =
      static_cast<int>(args.get_int("window-steps", 4));

  auto& trace = telemetry::TraceRecorder::global();
  trace.set_process_name(0, "lmo-runtime");
  trace.set_process_name(parallel::kParallelTracePid, "lmo-adaptive");
  trace.enable();
  runtime::Generator generator(config);
  const auto result = generator.generate(kTinyPrompts, gen_len);
  trace.disable();
  trace.save(out);

  std::printf("wrote %zu span events to %s (open in chrome://tracing or "
              "https://ui.perfetto.dev)\n",
              trace.event_count(), out.c_str());
  std::printf("run: %.1f tok/s, %llu fetches, %llu staging hits\n",
              result.tokens_per_second,
              static_cast<unsigned long long>(result.offload.fetches),
              static_cast<unsigned long long>(result.offload.staging_hits));
  if (config.adaptive.enabled) {
    auto& reg = generator.manager().metrics();
    std::printf("adaptive parallelism: %llu attempts, %llu applied, %llu "
                "reverted, %llu held | calibrated copy bw %.2f GB/s/thread\n",
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.attempts").value()),
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.applied").value()),
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.reverted").value()),
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.held").value()),
                reg.gauge("parallel.calibration.copy_bw").value() / 1e9);
  }

  save_metrics(args, generator.manager().metrics(), "offload metrics");
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.get_int("runtime", 0) != 0) return cmd_trace_runtime(args);
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  model::Workload workload = load_workload(args);
  workload.gen_len = std::min<std::int64_t>(workload.gen_len, 8);
  const auto platform = load_platform(args);
  const std::string out = args.get("out", "lmo_trace.json");

  const auto report = core::LMOffload::run(spec, workload, platform);
  sim::save_chrome_trace(report.run, out);
  std::printf("wrote %zu tasks to %s (open in chrome://tracing)\n",
              report.run.tasks.size(), out.c_str());

  telemetry::MetricsRegistry registry;
  sim::export_metrics(report.run, registry);
  save_metrics(args, registry, "predicted-run metrics");
  return 0;
}

constexpr std::pair<const char*, int (*)(const Args&)> kCommands[] = {
    {"plan", cmd_plan},       {"compare", cmd_compare},
    {"sweep", cmd_sweep},     {"decide", cmd_decide},
    {"calibrate", cmd_calibrate},
    {"graph", cmd_graph},     {"serve", cmd_serve},
    {"chaos", cmd_chaos},     {"trace", cmd_trace},
    {"checkpoint", cmd_checkpoint},
    {"resume", cmd_resume},   {"recover", cmd_recover},
    {"models", cmd_models},
};

int usage() {
  std::string commands;
  for (const auto& [name, run] : kCommands) {
    commands += (commands.empty() ? "" : "|") + std::string(name);
  }
  std::fprintf(stderr,
               "usage: lmo <%s> "
               "[--model M] [--len N] [--prompt N] [--batch N] "
               "[--batches N] [--bls N] [--platform preset-or-file] "
               "[--wg PCT] [--attn cpu|gpu] [--bits 4|8] [--out FILE]\n"
               "platform presets: a100-single, v100-quad, h100-single, "
               "rtx4090-desktop\n"
               "chaos: run generation under a fault profile, --profile P "
               "[--seed S], one of: %s\n",
               commands.c_str(), chaos_profiles_usage().c_str());
  std::fprintf(stderr,
               "serve: --prefix-share 1 shares prompt KV across requests "
               "(--kv-block-tokens N); --templates N draws a shared-prefix "
               "workload [--template-tokens T]\n"
               "serve overload: --admission unbounded|fifo-reject|"
               "deadline-shed|token-budget --max-queue N --deadline S "
               "[--retries N] [--kv-pool-mb N arms the degradation "
               "ladder]\n"
               "checkpoint: snapshot a generation mid-decode "
               "([--at N] [--len N] [--kv dense|window] [--out FILE]) "
               "or validate one without restoring (--verify FILE);"
               "\nresume: finish it from the file (--from FILE)\n"
               "serve integrity: --verify off|sample|always "
               "[--verify-sample N] [--ckpt-interval N] "
               "[--corrupt T:ID[,T:ID...]] charges checksum time and "
               "repairs injected corruption by checkpoint rollback\n"
               "trace: predicted timeline by default; --runtime 1 records a "
               "real Generator run's spans (--adaptive 1 closes the "
               "parallelism loop on those spans)\n"
               "serve adaptive: --adaptive 1 [--window-steps N] re-plans "
               "the Algorithm-3 thread allocation online\n"
               "telemetry: --metrics-out FILE on trace/serve/chaos exports "
               "the metrics registry as JSON;\n           --trace-out FILE "
               "on serve captures request-lifecycle spans\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    for (const auto& [name, run] : kCommands) {
      if (args.command == name) return run(args);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
