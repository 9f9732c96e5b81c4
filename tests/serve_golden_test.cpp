// Byte-exact golden fixtures for the serving simulator. Each case turns on
// one feature of simulate_serving (batching mode, chunked prefill,
// preemption + prefix sharing, the overload ladder, integrity rollback,
// crash recovery, adaptive control, deadline shedding) on a small seeded
// trace and compares three renderings of the run against a committed file
// under tests/data/serve_golden/:
//   * the metrics registry snapshot JSON;
//   * the request-lifecycle trace JSON;
//   * every ServeMetrics field and every RequestOutcome, doubles printed
//     with %.17g (the JSON exports round to 6 significant digits, so this
//     dump is the strict check).
// A refactor of the simulator must leave all three unchanged. On a
// mismatch the test writes the new rendering to <case>.actual in the
// working directory, so a deliberate behaviour change can be reviewed and
// copied over the fixture.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"

namespace lmo::serve {
namespace {

struct GoldenCase {
  std::string name;
  model::ModelSpec spec = model::ModelSpec::by_name("opt-13b");
  perfmodel::Policy policy;
  hw::Platform platform = hw::Platform::a100_single();
  std::vector<Request> requests;
  ServeConfig config;
};

perfmodel::Policy offload_policy() {
  perfmodel::Policy p;
  p.weights_on_gpu = 0.5;
  p.attention_on_cpu = false;
  p.activations_on_gpu = 1.0;
  p.weight_bits = 4;
  p.kv_bits = 4;
  p.parallelism_control = true;
  return p;
}

RequestProfile mixed_profile(double rate) {
  RequestProfile profile;
  profile.arrival_rate = rate;
  profile.prompt_mean = 48;
  profile.prompt_min = 8;
  profile.prompt_max = 256;
  profile.gen_mean = 24;
  profile.gen_min = 4;
  profile.gen_max = 96;
  return profile;
}

/// plan-serve's shared-prefix request profile (perfbench), shortened.
std::vector<Request> shared_prefix_requests(std::int64_t count,
                                            std::uint64_t seed) {
  SharedPrefixProfile profile;
  profile.base.arrival_rate = 0.15;
  profile.base.prompt_mean = 32;
  profile.base.prompt_max = 128;
  profile.base.gen_mean = 64;
  profile.base.gen_max = 256;
  profile.num_templates = 4;
  profile.template_tokens = 96;
  return generate_shared_prefix_requests(profile, count, seed);
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c;
    c.name = "static_batching";
    c.policy = offload_policy();
    c.requests = generate_requests(mixed_profile(1.5), 60, 11);
    c.config.batching = Batching::kStatic;
    c.config.max_batch = 8;
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c;
    c.name = "continuous_chunked";
    c.policy = offload_policy();
    c.requests = generate_requests(mixed_profile(3.0), 80, 12);
    c.config.max_batch = 12;
    c.config.prefill_chunk = 32;
    cases.push_back(std::move(c));
  }
  {
    // plan-serve's serving config: chunked prefill, preemption and prefix
    // sharing on a shared-prefix trace.
    GoldenCase c;
    c.name = "preempt_prefix_share";
    c.policy = offload_policy();
    c.requests = shared_prefix_requests(150, 13);
    c.config.max_batch = 16;
    c.config.prefill_chunk = 32;
    c.config.preempt = true;
    c.config.preempt_wait_seconds = 0.5;
    c.config.prefix_share = true;
    c.config.kv_block_tokens = 16;
    cases.push_back(std::move(c));
  }
  {
    // Prefix sharing under a tight KV pool: token-budget admission, the
    // ladder's shrink-cache and preempt rungs, a bounded prefix cache and
    // monolithic prefill.
    GoldenCase c;
    c.name = "prefix_pool_pressure";
    c.policy = offload_policy();
    SharedPrefixProfile profile;
    profile.base = mixed_profile(4.0);
    profile.num_templates = 3;
    profile.template_tokens = 64;
    c.requests = generate_shared_prefix_requests(profile, 90, 14);
    c.config.max_batch = 10;
    c.config.preempt = true;
    c.config.preempt_wait_seconds = 0.2;
    c.config.prefix_share = true;
    c.config.kv_block_tokens = 16;
    c.config.prefix_cache_bytes = 1u << 20;
    c.config.deadline_seconds = 40.0;
    c.config.admission = overload::AdmissionPolicy::kTokenBudget;
    c.config.max_queue = 20;
    c.config.overload.enabled = true;
    c.config.overload.kv_pool_bytes = 3u << 20;
    c.config.max_preemptions_per_request = 1;
    c.config.overload.ladder.escalate_steps = 2;
    c.config.overload.ladder.deescalate_steps = 3;
    cases.push_back(std::move(c));
  }
  {
    // The overload burst of `lmo chaos --profile overload`.
    GoldenCase c;
    c.name = "overload_burst";
    c.policy.weights_on_gpu = 1.0;
    c.policy.attention_on_cpu = false;
    c.policy.activations_on_gpu = 1.0;
    c.policy.weight_bits = 4;
    c.policy.kv_bits = 8;
    c.policy.parallelism_control = true;
    BurstProfile profile;
    profile.base.arrival_rate = 0.5;
    profile.base.prompt_mean = 64;
    profile.base.gen_mean = 48;
    profile.base.gen_max = 128;
    profile.burst_rate = 8.0;
    profile.burst_start = 10.0;
    profile.burst_duration = 30.0;
    profile.ramp_seconds = 5.0;
    profile.num_priorities = 3;
    c.requests = generate_burst_requests(profile, 140, 2024);
    c.config.max_batch = 8;
    c.config.deadline_seconds = 30.0;
    c.config.admission = overload::AdmissionPolicy::kDeadlineShed;
    c.config.max_queue = 24;
    c.config.overload.enabled = true;
    c.config.overload.kv_pool_bytes = std::size_t{10240} << 10;
    c.config.overload.ladder.escalate_steps = 2;
    c.config.overload.ladder.deescalate_steps = 4;
    cases.push_back(std::move(c));
  }
  {
    // verify=always with corruptions hitting running, preempted, queued
    // and unknown requests.
    GoldenCase c;
    c.name = "verify_corruption";
    c.policy = offload_policy();
    c.requests = generate_requests(mixed_profile(4.0), 70, 15);
    c.config.max_batch = 6;
    c.config.preempt = true;
    c.config.preempt_wait_seconds = 0.3;
    c.config.integrity.policy = integrity::VerifyPolicy::kAlways;
    c.config.ckpt_interval_tokens = 8;
    for (int k = 0; k < 80; ++k) {
      c.config.corruptions.push_back(
          CorruptionEvent{1.0 + 0.5 * k, (k * 7) % 75});
    }
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c;
    c.name = "crash_recovery";
    c.policy = offload_policy();
    c.requests = generate_requests(mixed_profile(3.0), 70, 16);
    c.config.max_batch = 8;
    c.config.prefill_chunk = 16;
    c.config.preempt = true;
    c.config.preempt_wait_seconds = 0.4;
    c.config.ckpt_interval_tokens = 8;
    c.config.crashes = {CrashEvent{3.0}, CrashEvent{9.5}, CrashEvent{9.6},
                        CrashEvent{18.0}};
    c.config.recover_disk_gbps = 2.0;
    c.config.recover_spill_bytes = std::size_t{256} << 20;
    cases.push_back(std::move(c));
  }
  {
    // Adaptive control on a desktop platform whose link degrades in two
    // fault windows.
    GoldenCase c;
    c.name = "adaptive_fault_windows";
    c.policy = offload_policy();
    c.platform = hw::Platform::rtx4090_desktop();
    c.requests = generate_requests(mixed_profile(2.0), 60, 17);
    c.config.max_batch = 8;
    c.config.adaptive.enabled = true;
    c.config.adaptive.window_steps = 4;
    c.config.fault_windows = {FaultWindow{5.0, 15.0, 0.3},
                              FaultWindow{12.0, 25.0, 0.5}};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c;
    c.name = "deadline_retries_shed";
    c.policy = offload_policy();
    c.requests = generate_requests(mixed_profile(2.5), 90, 18);
    c.config.max_batch = 6;
    c.config.deadline_seconds = 10.0;
    c.config.max_retries = 1;
    c.config.admission = overload::AdmissionPolicy::kDeadlineShed;
    c.config.max_queue = 12;
    c.config.fault_windows = {FaultWindow{4.0, 8.0, 0.5}};
    cases.push_back(std::move(c));
  }
  return cases;
}

void append(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %.17g\n", key, value);
  out += buf;
}

void append(std::string& out, const char* key, std::uint64_t value) {
  out += std::string(key) + " " + std::to_string(value) + "\n";
}

std::string dump_values(const ServeMetrics& m) {
  std::string out;
  append(out, "duration", m.duration);
  append(out, "token_throughput", m.token_throughput);
  append(out, "request_throughput", m.request_throughput);
  append(out, "goodput", m.goodput);
  append(out, "request_goodput", m.request_goodput);
  append(out, "slo_attainment", m.slo_attainment);
  append(out, "ttft_p50", m.ttft_p50);
  append(out, "ttft_p95", m.ttft_p95);
  append(out, "latency_p50", m.latency_p50);
  append(out, "latency_p95", m.latency_p95);
  append(out, "mean_batch_occupancy", m.mean_batch_occupancy);
  append(out, "completed", std::uint64_t{m.completed});
  append(out, "deadline_misses", std::uint64_t{m.deadline_misses});
  append(out, "retries", std::uint64_t{m.retries});
  append(out, "preemptions", std::uint64_t{m.preemptions});
  append(out, "preempt_resumes", std::uint64_t{m.preempt_resumes});
  append(out, "preempt_swap_seconds", m.preempt_swap_seconds);
  append(out, "prefill_tokens", m.prefill_tokens);
  append(out, "kv_swap_bytes", m.kv_swap_bytes);
  append(out, "prefix_hit_tokens", m.prefix_hit_tokens);
  append(out, "prefix_miss_tokens", m.prefix_miss_tokens);
  append(out, "prefix_evicted_blocks", m.prefix_evicted_blocks);
  append(out, "prefix_bytes_saved", m.prefix_bytes_saved);
  append(out, "shed", std::uint64_t{m.shed});
  append(out, "rejected", std::uint64_t{m.rejected});
  append(out, "overload_escalations", std::uint64_t{m.overload_escalations});
  append(out, "overload_deescalations",
         std::uint64_t{m.overload_deescalations});
  append(out, "overload_preemptions", std::uint64_t{m.overload_preemptions});
  append(out, "demoted_sessions", std::uint64_t{m.demoted_sessions});
  append(out, "corruption_detected", std::uint64_t{m.corruption_detected});
  append(out, "corruption_undetected",
         std::uint64_t{m.corruption_undetected});
  append(out, "rollback_tokens", m.rollback_tokens);
  append(out, "verify_seconds", m.verify_seconds);
  append(out, "crashes", std::uint64_t{m.crashes});
  append(out, "crash_recovery_seconds", m.crash_recovery_seconds);
  append(out, "crash_rollback_tokens", m.crash_rollback_tokens);
  for (const RequestOutcome& o : m.outcomes) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "outcome %lld ttft %.17g latency %.17g tokens %lld "
                  "attempts %d preemptions %d completed %d met_deadline %d "
                  "shed %d\n",
                  static_cast<long long>(o.id), o.ttft, o.latency,
                  static_cast<long long>(o.tokens), o.attempts,
                  o.preemptions, o.completed ? 1 : 0,
                  o.met_deadline ? 1 : 0, o.shed ? 1 : 0);
    out += buf;
  }
  return out;
}

std::string render(const GoldenCase& c) {
  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder trace;
  trace.enable();
  const ServeMetrics m = simulate_serving(c.spec, c.policy, c.platform,
                                          c.requests, c.config, &registry,
                                          &trace);
  return "# metrics\n" + registry.snapshot().to_json() + "\n# trace\n" +
         trace.to_json() + "\n# values\n" + dump_values(m);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// gtest would otherwise print each case as a raw byte dump.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class ServeGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ServeGolden, MatchesCommittedFixture) {
  const GoldenCase& c = GetParam();
  const std::string path =
      std::string(LMO_TEST_DATA_DIR) + "/serve_golden/" + c.name + ".txt";
  const std::string actual = render(c);
  if (actual != read_file(path)) {
    std::ofstream(c.name + ".actual", std::ios::binary) << actual;
    FAIL() << c.name << " differs from (or is missing) " << path
           << "; the new rendering is in " << c.name << ".actual";
  }
  // The rendering is deterministic: a second run gives the same bytes.
  EXPECT_EQ(render(c), actual);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ServeGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lmo::serve
