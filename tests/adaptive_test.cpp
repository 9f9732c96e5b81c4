// Tests for the online adaptive parallelism controller and the machinery
// it stands on: ThreadPool::resize under concurrent traffic (the TSan CI
// shard runs this binary), Engine::set_task_observer (the DES mirror of
// the runtime's TraceRecorder feed), the AdaptiveController's calibration
// / hysteresis / revert state machine and its determinism, the KV-cache
// factory, and the consolidated typed config validation.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "lmo/core/lm_offload.hpp"
#include "lmo/hw/platform.hpp"
#include "lmo/model/llm_config.hpp"
#include "lmo/parallel/adaptive_controller.hpp"
#include "lmo/parallel/parallelism_search.hpp"
#include "lmo/parallel/threadpool.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/sim/engine.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/status.hpp"

namespace lmo {
namespace {

// -- ThreadPool::resize ----------------------------------------------------

TEST(ThreadPoolResize, GrowExecutesEverything) {
  parallel::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.resize(8);
  EXPECT_EQ(pool.size(), 8);
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 128);
}

TEST(ThreadPoolResize, ShrinkDrainsBeforeRetiring) {
  parallel::ThreadPool pool(8);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ran.fetch_add(1);
    });
  }
  pool.resize(2);  // blocks until the 200 above have run
  EXPECT_EQ(pool.size(), 2);
  EXPECT_GE(ran.load(), 200);
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 201);
}

TEST(ThreadPoolResize, StormUnderConcurrentSubmitLosesNoTask) {
  parallel::ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::atomic<bool> done{false};

  std::thread submitter([&] {
    for (int i = 0; i < 2000; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
      if (i % 128 == 0) pool.wait_idle();
    }
    done.store(true);
  });
  std::thread resizer([&] {
    const int sizes[] = {1, 6, 2, 8, 3, 1, 5};
    int k = 0;
    while (!done.load()) {
      pool.resize(sizes[k++ % 7]);
    }
  });
  submitter.join();
  resizer.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 2000);
  EXPECT_GE(pool.size(), 1);
}

// -- Engine::set_task_observer ---------------------------------------------

TEST(EngineObserver, SeesEveryTaskWithFilledRecords) {
  sim::Engine engine;
  std::vector<std::string> seen;
  double total = 0.0;
  engine.set_task_observer([&](const sim::TaskRecord& rec) {
    seen.push_back(rec.name);
    total += rec.duration;
    EXPECT_GE(rec.finish, rec.start);
  });
  const auto lane = engine.add_resource("lane", 1);
  const auto a = engine.add_task("a", "cat", lane, 1.0);
  engine.add_task("b", "cat", lane, 2.0, {a});
  const auto run = engine.run();
  ASSERT_EQ(seen.size(), 2u);
  // Called in schedule order.
  EXPECT_EQ(seen[0], "a");
  EXPECT_EQ(seen[1], "b");
  EXPECT_DOUBLE_EQ(total, 3.0);
  EXPECT_DOUBLE_EQ(run.makespan, 3.0);
}

TEST(EngineObserver, MustPrecedeRun) {
  sim::Engine engine;
  const auto lane = engine.add_resource("lane", 1);
  engine.add_task("a", "cat", lane, 1.0);
  engine.run();
  EXPECT_THROW(engine.set_task_observer([](const sim::TaskRecord&) {}),
               util::CheckError);
}

// -- AdaptiveController ----------------------------------------------------

parallel::SearchInput desktop_input() {
  const auto spec = model::ModelSpec::by_name("opt-13b");
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

  parallel::SearchInput input;
  input.compute_graph = core::LMOffload::compute_graph(spec, w, policy);
  input.io_bytes = core::LMOffload::io_volumes(spec, w, policy);
  input.platform = hw::Platform::rtx4090_desktop();
  return input;
}

TEST(AdaptiveController, InitialPlanMatchesStaticSearch) {
  const auto input = desktop_input();
  parallel::AdaptiveConfig config;
  parallel::AdaptiveController controller(input, config);
  const auto expect = parallel::find_optimal_parallelism(input);
  EXPECT_EQ(controller.plan().intra_op_compute, expect.intra_op_compute);
  EXPECT_EQ(controller.plan().inter_op_compute, expect.inter_op_compute);
  EXPECT_EQ(controller.plan().io_threads, expect.io_threads);
  EXPECT_EQ(controller.windows_observed(), 0);
  EXPECT_DOUBLE_EQ(controller.compute_scale(), 1.0);
}

TEST(AdaptiveController, CalibratesCopyBandwidthFromBytesAndSeconds) {
  const auto input = desktop_input();
  parallel::AdaptiveConfig config;
  parallel::AdaptiveController controller(input, config);

  // One window whose load_weight moved bytes at exactly 2 GB/s per thread.
  const int threads = controller.plan().io_threads[parallel::kLoadWeight];
  parallel::WindowSample sample;
  sample.steps = 4;
  sample.compute_seconds = 0.0;  // no compute observation this window
  sample.io_bytes[parallel::kLoadWeight] = 8e9;
  sample.io_seconds[parallel::kLoadWeight] =
      8e9 / (2e9 * static_cast<double>(threads));
  controller.observe(sample);
  // First observation replaces the believed value outright.
  EXPECT_NEAR(controller.calibrated_copy_bw(), 2e9, 1e6);
  EXPECT_EQ(controller.windows_observed(), 1);
}

TEST(AdaptiveController, HysteresisHoldsOnWellCalibratedInput) {
  const auto input = desktop_input();
  parallel::AdaptiveConfig config;
  const auto result =
      parallel::simulate_adaptive(input, input, config, /*windows=*/6);
  EXPECT_EQ(result.applied, 0);
  EXPECT_EQ(result.reverted, 0);
  // Within 2% of static (exactly equal here: the plan never changed).
  EXPECT_NEAR(result.adaptive_t_gen, result.static_t_gen,
              0.02 * result.static_t_gen);
}

TEST(AdaptiveController, ReplansPastMiscalibratedCopyBandwidth) {
  const auto believed = desktop_input();
  auto truth = believed;
  truth.per_thread_copy_bw = believed.per_thread_copy_bw / 4.0;
  parallel::AdaptiveConfig config;
  const auto result =
      parallel::simulate_adaptive(believed, truth, config, /*windows=*/8);
  EXPECT_GE(result.applied, 1);
  EXPECT_LT(result.adaptive_t_gen, result.static_t_gen);
  // The final plan should match what Algorithm 3 would pick given truth.
  const auto oracle = parallel::find_optimal_parallelism(truth);
  EXPECT_EQ(result.final_plan.intra_op_compute, oracle.intra_op_compute);
  EXPECT_EQ(result.final_plan.io_threads, oracle.io_threads);
}

TEST(AdaptiveController, NeverLosesToStaticAcrossMiscalibrations) {
  const auto believed = desktop_input();
  const auto distortions = {0.25, 3.0, 1.0};
  for (double f : distortions) {
    auto truth = believed;
    truth.per_thread_copy_bw *= f;
    truth.platform.cpu.peak_flops /= (f < 1.0 ? 2.0 : 1.0);
    parallel::AdaptiveConfig config;
    const auto r =
        parallel::simulate_adaptive(believed, truth, config, /*windows=*/8);
    EXPECT_LE(r.adaptive_t_gen, r.static_t_gen * 1.0001)
        << "copy bw factor " << f;
  }
}

TEST(AdaptiveController, RevertsWhenMeasurementsRegress) {
  const auto believed = desktop_input();
  parallel::AdaptiveConfig config;
  config.hold_windows = 0;  // judge the applied plan on the very next window
  parallel::AdaptiveController controller(believed, config);
  const auto static_plan = controller.plan();

  // Window 1: copy bandwidth looks 4x worse -> the controller re-plans.
  auto slow = believed;
  slow.per_thread_copy_bw /= 4.0;
  const auto slow_eval = parallel::evaluate_parallelism(
      slow, static_plan.intra_op_compute, static_plan.inter_op_compute,
      static_plan.io_threads);
  parallel::WindowSample w1;
  w1.steps = 1;
  w1.compute_seconds = slow_eval.compute_seconds;
  for (std::size_t i = 0; i < parallel::kNumIoTasks; ++i) {
    w1.io_seconds[i] = slow_eval.io_seconds[i];
    w1.io_bytes[i] = slow.io_bytes[i];
  }
  const auto d1 = controller.observe(w1);
  ASSERT_EQ(d1.action, parallel::ReplanAction::kApply);

  // Window 2: the new plan measures far worse than the baseline -> revert.
  parallel::WindowSample w2 = w1;
  w2.compute_seconds = slow_eval.compute_seconds * 4.0;
  w2.io_seconds = w1.io_seconds;
  for (auto& s : w2.io_seconds) s *= 4.0;
  const auto d2 = controller.observe(w2);
  EXPECT_EQ(d2.action, parallel::ReplanAction::kRevert);
  EXPECT_EQ(d2.plan.intra_op_compute, static_plan.intra_op_compute);
  EXPECT_EQ(d2.plan.io_threads, static_plan.io_threads);
}

TEST(AdaptiveController, DecisionsAndTelemetryAreDeterministic) {
  const auto believed = desktop_input();
  auto truth = believed;
  truth.per_thread_copy_bw /= 4.0;
  parallel::AdaptiveConfig config;

  const auto run = [&] {
    telemetry::MetricsRegistry reg;
    telemetry::TraceRecorder rec;
    rec.enable();
    parallel::simulate_adaptive(believed, truth, config, 6, &reg, &rec);
    return std::pair<std::string, std::string>(reg.snapshot().to_json(),
                                               rec.to_json());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.second.find("parallel.replan:apply"), std::string::npos);
}

TEST(AdaptiveController, PublishesReplanVocabulary) {
  const auto believed = desktop_input();
  auto truth = believed;
  truth.per_thread_copy_bw /= 4.0;
  telemetry::MetricsRegistry reg;
  parallel::AdaptiveConfig config;
  parallel::simulate_adaptive(believed, truth, config, 6, &reg);
  EXPECT_EQ(reg.counter("parallel.replan.attempts").value(), 6u);
  EXPECT_GE(reg.counter("parallel.replan.applied").value(), 1u);
  EXPECT_GT(reg.gauge("parallel.threads.intra").value(), 0.0);
  EXPECT_GT(reg.gauge("parallel.threads.io_total").value(), 0.0);
  EXPECT_GT(reg.gauge("parallel.calibration.copy_bw").value(), 0.0);
}

// -- Generator integration: tokens are controller-invariant ----------------

runtime::RuntimeConfig tiny_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(4, 64, 4, 128);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;
  config.prefetch_threads = 2;
  return config;
}

TEST(AdaptiveGenerator, TokensIdenticalWithControllerOnAndOff) {
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  auto config = tiny_config();
  runtime::Generator off(config);
  const auto base = off.generate(prompts, 10).tokens;

  config.adaptive.enabled = true;
  config.adaptive.window_steps = 2;
  runtime::Generator on(config);
  const auto adaptive = on.generate(prompts, 10).tokens;
  EXPECT_EQ(base, adaptive);

  runtime::Generator again(config);
  EXPECT_EQ(adaptive, again.generate(prompts, 10).tokens);
}

TEST(AdaptiveGenerator, ControllerObservesWindows) {
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  auto config = tiny_config();
  config.adaptive.enabled = true;
  config.adaptive.window_steps = 2;
  runtime::Generator gen(config);
  gen.begin(prompts, 8);
  while (!gen.done()) gen.step();
  ASSERT_NE(gen.adaptive_controller(), nullptr);
  EXPECT_GE(gen.adaptive_controller()->windows_observed(), 3);
  auto& reg = gen.manager().metrics();
  EXPECT_GE(reg.counter("parallel.replan.attempts").value(), 3u);
  gen.finish();
  EXPECT_EQ(gen.adaptive_controller(), nullptr);  // stopped with the run
}

// -- serving-engine integration --------------------------------------------

serve::ServeMetrics serve_run(bool adaptive, bool degraded_link) {
  const auto spec = model::ModelSpec::by_name("opt-13b");
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.5;
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 4;
  policy.parallelism_control = true;

  serve::RequestProfile profile;
  profile.arrival_rate = 2.0;
  const auto requests = serve::generate_requests(profile, 30, 2024);

  serve::ServeConfig config;
  config.max_batch = 8;
  config.adaptive.enabled = adaptive;
  config.adaptive.window_steps = 4;
  if (degraded_link) {
    serve::FaultWindow w;
    w.begin = 0.0;
    w.end = 1e9;  // the whole run
    w.bandwidth_factor = 0.25;
    config.fault_windows.push_back(w);
  }
  return serve::simulate_serving(spec, policy,
                                 hw::Platform::rtx4090_desktop(), requests,
                                 config);
}

TEST(AdaptiveServe, NoOpWhenCalibrationIsRight) {
  const auto off = serve_run(/*adaptive=*/false, /*degraded_link=*/false);
  const auto on = serve_run(/*adaptive=*/true, /*degraded_link=*/false);
  // Nothing to correct: the controller holds and step durations match.
  EXPECT_DOUBLE_EQ(on.duration, off.duration);
  EXPECT_EQ(on.completed, off.completed);
}

TEST(AdaptiveServe, RecoversThroughputUnderDegradedLink) {
  const auto off = serve_run(/*adaptive=*/false, /*degraded_link=*/true);
  const auto on = serve_run(/*adaptive=*/true, /*degraded_link=*/true);
  // The re-planned allocation beats the static plan on the degraded link,
  // so the adaptive run finishes the same trace sooner.
  EXPECT_LT(on.duration, off.duration);
  EXPECT_EQ(on.completed, off.completed);
}

// -- KV flavors ------------------------------------------------------------

TEST(KvFactory, FlavorRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(runtime::kv_flavor_from_string("dense"),
            runtime::KVFlavor::kDense);
  EXPECT_EQ(runtime::kv_flavor_from_string("window"),
            runtime::KVFlavor::kWindow);
  EXPECT_STREQ(runtime::to_string(runtime::KVFlavor::kWindow), "window");
  // The paged flavor is gone: a dense cache is the same block table.
  for (const char* name : {"ring", "paged"}) {
    try {
      runtime::kv_flavor_from_string(name);
      FAIL() << "expected ConfigError for " << name;
    } catch (const util::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
    }
  }
}

TEST(KvFactory, BytesPerTokenMatchesShape) {
  // 2 (K and V) x hidden x bytes-per-element.
  EXPECT_EQ(runtime::kv_bytes_per_token(64, 16), 2u * 64u * 2u);
  EXPECT_EQ(runtime::kv_bytes_per_token(64, 4), 2u * 64u / 2u);
  EXPECT_GE(runtime::kv_bytes_per_token(1, 4), 1u);  // never zero
}

// -- consolidated config validation ----------------------------------------

TEST(ConfigValidation, AdaptiveConfigNamesTheField) {
  parallel::AdaptiveConfig config;
  config.window_steps = 0;
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("AdaptiveConfig"), std::string::npos);
    EXPECT_NE(msg.find("window_steps"), std::string::npos);
  }
}

TEST(ConfigValidation, RuntimeConfigRejectsBadBits) {
  auto config = tiny_config();
  config.weight_bits = 3;
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("weight_bits"), std::string::npos);
  }
  config = tiny_config();
  config.adaptive.hysteresis = 1.5;  // nested config is validated too
  EXPECT_THROW(config.validate(), util::ConfigError);
}

TEST(ConfigValidation, ServeConfigRejectsBadWindowsAndCouplings) {
  serve::ServeConfig config;
  config.max_batch = 0;
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("max_batch"), std::string::npos);
  }
  config = serve::ServeConfig{};
  serve::FaultWindow w;
  w.begin = 5.0;
  w.end = 2.0;
  w.bandwidth_factor = 0.5;
  config.fault_windows.push_back(w);
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = serve::ServeConfig{};
  config.adaptive.ema_alpha = 0.0;  // nested adaptive config
  EXPECT_THROW(config.validate(), util::ConfigError);
}

TEST(ConfigValidation, OverloadConfigRequiresPoolWhenEnabled) {
  serve::OverloadConfig config;
  config.enabled = true;
  config.kv_pool_bytes = 0;
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("kv_pool_bytes"), std::string::npos);
  }
}

}  // namespace
}  // namespace lmo
