#include "lmo/serve/server_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "lmo/core/lm_offload.hpp"
#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/parallel/adaptive_controller.hpp"
#include "lmo/perfmodel/estimator.hpp"
#include "lmo/runtime/kv_factory.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/validate.hpp"

namespace lmo::serve {

void OverloadConfig::validate() const {
  if (!enabled) return;
  watermarks.validate();
  ladder.validate();
  util::Validate("OverloadConfig", [this](util::Validator& v) {
    v.require("kv_pool_bytes", kv_pool_bytes > 0,
              "overload protection needs a KV pool capacity");
    v.gt("demoted_kv_bits", demoted_kv_bits, 0)
        .le("demoted_kv_bits", demoted_kv_bits, 16);
    v.in_unit("shrink_cache_fraction", shrink_cache_fraction);
  });
}

void ServeConfig::validate() const {
  util::Validate("ServeConfig", [this](util::Validator& v) {
    v.ge("max_batch", max_batch, 1);
    v.ge("prefill_chunk", prefill_chunk, 0);
    v.ge("deadline_seconds", deadline_seconds, 0.0);
    v.ge("max_retries", max_retries, 0);
    v.require("max_retries", max_retries == 0 || deadline_seconds > 0.0,
              "only makes sense with a deadline");
    v.ge("preempt_wait_seconds", preempt_wait_seconds, 0.0);
    v.ge("max_preemptions_per_request", max_preemptions_per_request, 0);
    v.require("preempt", !preempt || batching == Batching::kContinuous,
              "preemption requires continuous batching: static batches "
              "drain fully before the queue is consulted");
    v.gt("kv_block_tokens", kv_block_tokens, 0);
    for (const FaultWindow& w : fault_windows) {
      v.require("fault_windows", w.end > w.begin,
                "window end must exceed its begin");
      v.in_unit("fault_windows.bandwidth_factor", w.bandwidth_factor);
    }
    v.require(
        "max_queue",
        admission != overload::AdmissionPolicy::kUnbounded || max_queue == 0,
        "has no effect without a bounded admission policy");
    v.require("admission",
              admission != overload::AdmissionPolicy::kTokenBudget ||
                  overload.enabled,
              "token-budget admission needs the overload KV pool "
              "(overload.enabled) to price headroom");
    v.gt("ckpt_interval_tokens", ckpt_interval_tokens, 0);
    for (const CorruptionEvent& c : corruptions) {
      v.ge("corruptions.at_seconds", c.at_seconds, 0.0);
      v.require("corruptions.request_id", c.request_id >= 0,
                "must name a request id");
    }
    for (const CrashEvent& c : crashes) {
      v.ge("crashes.at_seconds", c.at_seconds, 0.0);
    }
    v.require("recover_disk_gbps",
              crashes.empty() || recover_disk_gbps > 0.0,
              "crash recovery needs a positive replay bandwidth");
  });
  // Bounded admission: the controller config owns the queue-bound and
  // deadline coupling rules (zero bound with shedding enabled, shedding
  // without an SLO, ...).
  overload::AdmissionConfig admission_config;
  admission_config.policy = admission;
  admission_config.max_queue = max_queue;
  admission_config.deadline_seconds = deadline_seconds;
  admission_config.validate();
  overload.validate();
  adaptive.validate();
  integrity.validate();
}

namespace {

struct Active {
  Request request;
  std::int64_t prefilled = 0;  ///< prompt tokens processed so far
  std::int64_t generated = 0;
  double first_token_time = -1.0;
  double submit = 0.0;  ///< this attempt's submission time (deadline base)
  int attempt = 1;      ///< 1 + re-admissions consumed so far
  int preemptions = 0;  ///< swap-outs suffered so far
  /// KV bit-width this session was admitted with (the degradation ladder
  /// demotes new sessions to the quantized flavor at rung >= demote-kv).
  int kv_bits = 16;
  /// Bytes currently charged to the modelled KV pool for this session's
  /// private KV (0 while suspended or when overload is off).
  std::size_t charged = 0;
  /// Prefix-share state: leading tokens served from shared blocks (they
  /// count toward `prefilled` but were never pushed through prefill) and
  /// the pin keeping that chain resident while this request runs.
  std::int64_t shared = 0;
  bool published = false;  ///< prompt inserted into the radix tree yet?
  std::shared_ptr<kvshare::PrefixLease> lease;

  bool decoding() const { return prefilled >= request.prompt_len; }
  std::int64_t remaining() const { return request.gen_len - generated; }
  /// Tokens resident in this sequence's KV cache (prompt + generated).
  std::int64_t kv_tokens() const { return prefilled + generated; }
  /// KV tokens owned privately by this sequence (what a swap must move —
  /// shared-chain tokens stay in the block store).
  std::int64_t private_kv_tokens() const { return kv_tokens() - shared; }
};

/// A queued attempt: the original request plus retry bookkeeping.
struct Queued {
  const Request* request = nullptr;
  double submit = 0.0;
  int attempt = 1;
};

/// Duration of one engine step for the current batch composition: a decode
/// token for every in-flight sequence, using the per-layer Eq.-2 cost at
/// the batch's mean progress.
double decode_step_seconds(const model::ModelSpec& spec,
                           const perfmodel::Policy& policy,
                           const hw::Platform& platform,
                           const std::vector<Active>& active) {
  double prompt_sum = 0.0;
  double progress_sum = 0.0;
  std::int64_t batch = 0;
  for (const Active& a : active) {
    if (!a.decoding()) continue;
    prompt_sum += static_cast<double>(a.request.prompt_len);
    progress_sum += static_cast<double>(a.generated);
    ++batch;
  }
  if (batch == 0) return 0.0;
  model::Workload w;
  w.prompt_len = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(prompt_sum / static_cast<double>(batch)));
  w.gen_len = 2;  // step_costs only uses t below
  w.gpu_batch = batch;
  w.num_batches = 1;
  const std::int64_t t = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(progress_sum / static_cast<double>(batch)));
  // Clamp t into the workload's valid range by growing gen_len.
  w.gen_len = t + 1;
  const auto costs = perfmodel::step_costs(spec, w, policy, platform, t);
  return costs.t_gen * static_cast<double>(spec.num_layers);
}

/// Compute-only cost of pushing `tokens` prompt tokens through all layers
/// (the chunked-prefill increment piggybacked on a decode step).
double chunk_prefill_seconds(const model::ModelSpec& spec,
                             const perfmodel::Policy& policy,
                             const hw::Platform& platform,
                             std::int64_t tokens) {
  if (tokens <= 0) return 0.0;
  model::Workload w;
  w.prompt_len = tokens;
  w.gen_len = 2;
  w.gpu_batch = 1;
  w.num_batches = 1;
  const double compute = model::layer_prefill_flops(spec, w) /
                         platform.gpu_matmul_flops();
  const double weights =
      model::layer_weight_bytes(spec, policy.weight_bits) *
      (1.0 - policy.weights_on_gpu) / platform.h2d_bw();
  // Disk-tier weight shards stream disk→CPU before the H2D hop; at
  // prefill the slower of the two pipes bounds the layer.
  const double disk = platform.disk_to_cpu.transfer_seconds(
      model::layer_weight_bytes(spec, policy.weight_bits) *
      policy.weights_on_disk);
  return std::max({compute, weights, disk}) *
         static_cast<double>(spec.num_layers);
}

/// Seconds to move one sequence's KV cache across the PCIe link in one
/// direction (`bw` = device→host or host→device bandwidth). The volume is
/// the at-rest cache: kv_tokens × (K + V) × hidden × kv_bits.
double kv_swap_seconds(const model::ModelSpec& spec, int kv_bits,
                       std::int64_t kv_tokens, double bw) {
  const double bytes = static_cast<double>(kv_tokens) * 2.0 *
                       static_cast<double>(spec.hidden) *
                       (static_cast<double>(kv_bits) / 8.0);
  return bytes / bw;
}

/// Prefill cost for newly admitted sequences, given the prompt tokens each
/// actually has to push through the engine (the unmatched suffix when
/// prefix sharing is on; the whole prompt otherwise).
double prefill_seconds(const model::ModelSpec& spec,
                       const perfmodel::Policy& policy,
                       const hw::Platform& platform,
                       const std::vector<std::int64_t>& prefill_lens) {
  if (prefill_lens.empty()) return 0.0;
  double prompt_sum = 0.0;
  for (const std::int64_t len : prefill_lens) {
    prompt_sum += static_cast<double>(len);
  }
  model::Workload w;
  w.prompt_len = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(prompt_sum /
                                   static_cast<double>(prefill_lens.size())));
  w.gen_len = 2;
  w.gpu_batch = static_cast<std::int64_t>(prefill_lens.size());
  w.num_batches = 1;
  // Per-layer prefill: GPU compute over the prompts + weight stream.
  const double compute = model::layer_prefill_flops(spec, w) /
                         platform.gpu_matmul_flops();
  const double weights =
      model::layer_weight_bytes(spec, policy.weight_bits) *
      (1.0 - policy.weights_on_gpu) / platform.h2d_bw();
  // Disk-tier shards ride disk→CPU first (see chunk_prefill_seconds).
  const double disk = platform.disk_to_cpu.transfer_seconds(
      model::layer_weight_bytes(spec, policy.weight_bits) *
      policy.weights_on_disk);
  return std::max({compute, weights, disk}) *
         static_cast<double>(spec.num_layers);
}

/// Whole-request engine-time estimate under the cost model: monolithic
/// prefill of the prompt plus gen_len decode steps priced at a full batch
/// in mid-flight. Admission-control currency only — the run itself prices
/// every step exactly; the controller just needs a consistent ranking.
double predicted_service_seconds(const model::ModelSpec& spec,
                                 const perfmodel::Policy& policy,
                                 const hw::Platform& platform,
                                 const Request& r, std::int64_t batch) {
  model::Workload w;
  w.prompt_len = std::max<std::int64_t>(1, r.prompt_len);
  const std::int64_t t = std::max<std::int64_t>(1, r.gen_len / 2);
  w.gen_len = t + 1;
  w.gpu_batch = std::max<std::int64_t>(1, batch);
  w.num_batches = 1;
  const auto costs = perfmodel::step_costs(spec, w, policy, platform, t);
  const double step = costs.t_gen * static_cast<double>(spec.num_layers);
  return prefill_seconds(spec, policy, platform, {r.prompt_len}) +
         static_cast<double>(r.gen_len) * step;
}

}  // namespace

ServeMetrics simulate_serving(const model::ModelSpec& spec,
                              const perfmodel::Policy& policy,
                              const hw::Platform& platform,
                              const std::vector<Request>& requests,
                              const ServeConfig& config,
                              telemetry::MetricsRegistry* metrics_out,
                              telemetry::TraceRecorder* trace) {
  spec.validate();
  policy.validate();
  config.validate();
  LMO_CHECK(!requests.empty());
  for (std::size_t i = 1; i < requests.size(); ++i) {
    LMO_CHECK_GE(requests[i].arrival_seconds,
                 requests[i - 1].arrival_seconds);
  }

  // The run's single source of truth: every count below lands in the
  // registry first and ServeMetrics is materialized from it at the end.
  telemetry::MetricsRegistry local_registry;
  telemetry::MetricsRegistry& reg =
      metrics_out != nullptr ? *metrics_out : local_registry;
  telemetry::Counter& m_tokens = reg.counter("serve.tokens.generated");
  telemetry::Counter& m_completed = reg.counter("serve.requests.completed");
  telemetry::Counter& m_misses = reg.counter("serve.requests.deadline_misses");
  telemetry::Counter& m_retries = reg.counter("serve.requests.retries");
  telemetry::Counter& m_preempts = reg.counter("serve.preempt.total");
  telemetry::Counter& m_resumes = reg.counter("serve.preempt.resumes");
  telemetry::Counter& m_prefill_tokens = reg.counter("serve.prefill.tokens");
  telemetry::Histogram& m_ttft = reg.histogram("serve.request.ttft_seconds");
  telemetry::Histogram& m_latency =
      reg.histogram("serve.request.latency_seconds");
  // Overload vocabulary (all zero when protection is off — the registry
  // still carries them so snapshots are schema-stable across configs).
  telemetry::Counter& m_shed = reg.counter("overload.shed");
  telemetry::Counter& m_rejected = reg.counter("overload.rejected");
  telemetry::Counter& m_escalations = reg.counter("overload.escalations");
  telemetry::Counter& m_deescalations = reg.counter("overload.deescalations");
  telemetry::Counter& m_demoted = reg.counter("overload.demoted_sessions");
  telemetry::Counter& m_ovl_preempts = reg.counter("overload.preemptions");
  // Integrity vocabulary: the registry wrapper pre-registers the shared
  // integrity.* schema (stable zeros when verification is off); the
  // serving-specific event counters sit next to it.
  integrity::ChecksumRegistry integrity_reg(config.integrity, &reg);
  telemetry::Counter& m_corrupt_detected =
      reg.counter("integrity.corruption.detected");
  telemetry::Counter& m_corrupt_undetected =
      reg.counter("integrity.corruption.undetected");
  telemetry::Counter& m_rollback_tokens =
      reg.counter("integrity.rollback.tokens");
  telemetry::Counter& m_verify_total = reg.counter("integrity.verify.total");
  telemetry::Gauge& m_verify_bytes = reg.gauge("integrity.verify.bytes");
  telemetry::Gauge& m_verify_seconds =
      reg.gauge("integrity.verify.seconds");
  // Engine crash/recover accounting (see CrashEvent and lmo/recover/).
  telemetry::Counter& m_crashes = reg.counter("serve.crash.total");
  telemetry::Counter& m_crash_rollback =
      reg.counter("serve.crash.rollback.tokens");
  telemetry::Gauge& m_crash_recovery =
      reg.gauge("serve.crash.recovery_seconds");
  LMO_CHECK_MSG(m_tokens.value() == 0 && m_completed.value() == 0 &&
                    m_ttft.count() == 0,
                "simulate_serving needs a fresh registry: 'serve.*' metrics "
                "already hold data");

  if (trace != nullptr) {
    trace->set_process_name(kServeTracePid, "serve-engine");
    for (std::size_t i = 0; i < config.fault_windows.size(); ++i) {
      const FaultWindow& w = config.fault_windows[i];
      trace->complete("fault_window", "serve.fault", kServeTracePid, 0,
                      w.begin * 1e6, (w.end - w.begin) * 1e6);
    }
  }

  std::deque<Queued> queue;
  std::size_t next_arrival = 0;
  std::vector<Active> active;
  std::deque<Active> suspended;  ///< swapped-out, awaiting re-admission
  double clock = 0.0;
  double occupancy_integral = 0.0;
  double swap_seconds = 0.0;
  double swap_bytes = 0.0;

  // Overload protection: a modelled KV pool with pressure watermarks and
  // the degradation ladder it drives. Declared before the prefix cache so
  // the cache's pressure callback is removed before the pool dies.
  const bool overload_on = config.overload.enabled;
  std::unique_ptr<runtime::MemoryPool> kv_pool;
  std::optional<overload::DegradationLadder> ladder;
  if (overload_on) {
    kv_pool = std::make_unique<runtime::MemoryPool>(
        "serve.kv", config.overload.kv_pool_bytes);
    kv_pool->set_watermarks(config.overload.watermarks);
    ladder.emplace(config.overload.ladder);
    reg.gauge("overload.rung").set(0.0);
  }

  // Accounting-only prefix cache: blocks carry modelled bytes, no floats.
  // Charged per token with the same volume kv_swap_seconds moves, so hit
  // savings and swap savings are in one currency. With overload on, the
  // block pool charges the KV pool too — and the cache registers the
  // pressure callback that evicts unpinned chains before a charge fails.
  const std::size_t kv_token_bytes =
      runtime::kv_bytes_per_token(spec.hidden, policy.kv_bits);
  std::unique_ptr<runtime::KVBlockPool> prefix_blocks;
  std::unique_ptr<kvshare::PrefixCache> prefix_cache;
  if (config.prefix_share) {
    runtime::KVBlockPoolConfig blocks;
    blocks.block_tokens = config.kv_block_tokens;
    blocks.bytes_per_block = std::max<std::size_t>(1, kv_token_bytes) *
                             static_cast<std::size_t>(config.kv_block_tokens);
    blocks.capacity_bytes = config.prefix_cache_bytes;
    prefix_blocks =
        std::make_unique<runtime::KVBlockPool>(blocks, kv_pool.get());
    prefix_cache =
        std::make_unique<kvshare::PrefixCache>(*prefix_blocks, 1, &reg);
  }

  // Per-session KV accounting against the modelled pool. The pool is only
  // ever try_charge()d — a refusal degrades (preempt, then shed), it never
  // escapes as a ResourceExhausted throw.
  const auto kv_bytes_per_token = [&](int bits) {
    return runtime::kv_bytes_per_token(spec.hidden, bits);
  };
  const auto kv_target_bytes = [&](const Active& a) {
    return static_cast<std::size_t>(a.private_kv_tokens()) *
           kv_bytes_per_token(a.kv_bits);
  };
  const auto release_kv = [&](Active& a) {
    if (kv_pool != nullptr && a.charged > 0) {
      kv_pool->release(a.charged);
      a.charged = 0;
    }
  };
  // Reconcile a session's pool charge with its current private KV size;
  // false when the pool cannot cover the growth even after its pressure
  // callbacks (prefix-cache eviction) ran.
  const auto reconcile_kv = [&](Active& a) {
    if (kv_pool == nullptr) return true;
    const std::size_t target = kv_target_bytes(a);
    if (target <= a.charged) {
      kv_pool->release(a.charged - target);
      a.charged = target;
      return true;
    }
    if (kv_pool->try_charge(target - a.charged)) {
      a.charged = target;
      return true;
    }
    return false;
  };

  // Publish a request's prompt into the radix tree once its prefill is
  // complete; the returned lease replaces the match-time pin so the full
  // chain stays resident while the request is in flight.
  const auto publish = [&](Active& a) {
    if (prefix_cache == nullptr || a.published) return;
    a.published = true;
    if (a.request.prompt_tokens.empty()) return;
    auto lease = prefix_cache->insert(a.request.prompt_tokens, nullptr);
    if (lease != nullptr) a.lease = std::move(lease);
  };

  ServeMetrics metrics;
  metrics.outcomes.resize(requests.size());

  // Per-request lifecycle on the engine timeline: one trace row per
  // request id, wait-for-first-token then decode (or a single aborted
  // span). Virtual timestamps in microseconds, matching the simulator's
  // predicted-timeline export.
  const auto trace_outcome = [&](const RequestOutcome& outcome,
                                 double arrival) {
    if (trace == nullptr) return;
    const int tid = static_cast<int>(outcome.id) + 1;
    if (!outcome.completed) {
      trace->complete("aborted", "serve.request", kServeTracePid, tid,
                      arrival * 1e6, outcome.latency * 1e6);
      return;
    }
    trace->complete("wait_first_token", "serve.request", kServeTracePid, tid,
                    arrival * 1e6, outcome.ttft * 1e6);
    trace->complete("decode", "serve.request", kServeTracePid, tid,
                    (arrival + outcome.ttft) * 1e6,
                    (outcome.latency - outcome.ttft) * 1e6);
  };

  // Smallest bandwidth factor among fault windows containing `now`; step
  // durations divide by this, stretching work inside degraded intervals.
  const auto bandwidth_factor = [&](double now) {
    double factor = 1.0;
    for (const FaultWindow& w : config.fault_windows) {
      if (now >= w.begin && now < w.end) {
        factor = std::min(factor, w.bandwidth_factor);
      }
    }
    return factor;
  };

  // ---- integrity: verify-bandwidth charge and injected corruption -------
  // Fraction of fetched bytes the verify policy actually checksums; the
  // per-step charge multiplies the verified volume by it, so verify=off
  // costs exactly zero and verify=sample amortizes by the period.
  const double verify_fraction =
      !config.integrity.enabled()
          ? 0.0
          : (config.integrity.policy == integrity::VerifyPolicy::kAlways
                 ? 1.0
                 : 1.0 / static_cast<double>(config.integrity.sample_period));
  // Offloaded weight bytes every decode step streams across all layers.
  const double verify_weight_bytes =
      model::layer_weight_bytes(spec, policy.weight_bits) *
      (1.0 - policy.weights_on_gpu) * static_cast<double>(spec.num_layers);
  double verify_seconds_total = 0.0;
  std::vector<CorruptionEvent> corruptions = config.corruptions;
  std::sort(corruptions.begin(), corruptions.end(),
            [](const CorruptionEvent& a, const CorruptionEvent& b) {
              return a.at_seconds < b.at_seconds;
            });
  std::size_t next_corruption = 0;
  const auto rollback = [&](Active& a) {
    const std::int64_t keep = (a.generated / config.ckpt_interval_tokens) *
                              config.ckpt_interval_tokens;
    m_rollback_tokens.add(static_cast<std::uint64_t>(a.generated - keep));
    a.generated = keep;
    integrity_reg.note_repair(integrity::RepairKind::kRecompute);
    m_corrupt_detected.add();
    if (trace != nullptr) {
      trace->complete("corruption", "integrity", kServeTracePid,
                      static_cast<int>(a.request.id) + 1, clock * 1e6, 0.0);
    }
  };
  const auto process_corruptions = [&] {
    while (next_corruption < corruptions.size() &&
           corruptions[next_corruption].at_seconds <= clock) {
      const CorruptionEvent ev = corruptions[next_corruption++];
      if (!config.integrity.enabled()) {
        // Nothing checks the bytes: in a real serving stack this is the
        // silent token divergence the integrity layer exists to stop.
        m_corrupt_undetected.add();
        continue;
      }
      bool handled = false;
      for (std::size_t i = 0; i < active.size() && !handled; ++i) {
        if (active[i].request.id != ev.request_id) continue;
        Active victim = std::move(active[i]);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        rollback(victim);
        // Checkpoint-rollback re-admission: the corrupt KV charge is
        // dropped and the session re-enters through the swap-in path,
        // restoring its checkpointed KV at link cost before re-decoding
        // the rolled-back tail. Not counted as a preemption — the slot
        // was lost to repair, not to a waiter.
        victim.lease.reset();
        release_kv(victim);
        suspended.push_back(std::move(victim));
        handled = true;
      }
      if (handled) continue;
      for (Active& s : suspended) {
        if (s.request.id != ev.request_id) continue;
        // Already swapped out: roll the checkpoint cursor back in place;
        // the regular swap-in restores from there.
        rollback(s);
        break;
      }
      // Events naming a queued or finished request are inert.
    }
  };

  std::vector<CrashEvent> crashes = config.crashes;
  std::sort(crashes.begin(), crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.at_seconds < b.at_seconds;
            });
  std::size_t next_crash = 0;
  const auto process_crashes = [&] {
    while (next_crash < crashes.size() &&
           crashes[next_crash].at_seconds <= clock) {
      ++next_crash;
      m_crashes.add();
      // Recovery stall: a fresh engine replays the spill-store journal and
      // restores the last durable checkpoint before serving resumes —
      // recover_spill_bytes at recover_disk_gbps, the same charge the
      // bench's measured-vs-predicted gate uses.
      const double stall = static_cast<double>(config.recover_spill_bytes) /
                           (config.recover_disk_gbps * 1e9);
      if (trace != nullptr) {
        trace->complete("crash_recover", "serve.crash", kServeTracePid, 0,
                        clock * 1e6, stall * 1e6);
      }
      clock += stall;
      m_crash_recovery.add(stall);
      // The whole engine dies: every in-flight session loses its device KV
      // and rolls back to its last checkpoint boundary, then re-enters
      // through the swap-in path (restoring KV at link cost) exactly like
      // a preemption victim. Already-suspended sessions roll their cursor
      // back in place — their next swap-in restores from the checkpoint.
      const auto crash_rollback = [&](Active& a) {
        const std::int64_t keep = (a.generated / config.ckpt_interval_tokens) *
                                  config.ckpt_interval_tokens;
        m_crash_rollback.add(static_cast<std::uint64_t>(a.generated - keep));
        a.generated = keep;
      };
      while (!active.empty()) {
        Active victim = std::move(active.back());
        active.pop_back();
        crash_rollback(victim);
        victim.lease.reset();
        release_kv(victim);
        suspended.push_back(std::move(victim));
      }
      for (Active& s : suspended) crash_rollback(s);
    }
  };

  // ---- adaptive parallelism control -------------------------------------
  // The serving mirror of the Generator's closed loop, entirely in model
  // time (deterministic). The controller is seeded with the believed
  // Algorithm-3 inputs for the trace's mean workload; each window's task
  // spans come from costing the in-force plan under the *effective* link
  // (fault windows shrink the observed copy bandwidth). Step durations
  // then scale by how the re-planned allocation compares to the static
  // one under the same conditions — ≤ 1 when replanning helped, exactly 1
  // when the believed plan was already right (controller on/off changes
  // nothing on a well-calibrated run).
  std::unique_ptr<parallel::AdaptiveController> adaptive_ctl;
  parallel::SearchInput adaptive_believed;
  parallel::ParallelismPlan adaptive_static_plan;
  double adaptive_factor = 1.0;
  int adaptive_window = 0;
  if (config.adaptive.enabled) {
    double prompt_sum = 0.0;
    double gen_sum = 0.0;
    for (const Request& r : requests) {
      prompt_sum += static_cast<double>(r.prompt_len);
      gen_sum += static_cast<double>(r.gen_len);
    }
    const double n = static_cast<double>(std::max<std::size_t>(
        1, requests.size()));
    model::Workload w;
    w.prompt_len = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(prompt_sum / n));
    w.gen_len = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(gen_sum / n));
    w.gpu_batch = config.max_batch;
    w.num_batches = 1;
    adaptive_believed.compute_graph =
        core::LMOffload::compute_graph(spec, w, policy);
    adaptive_believed.io_bytes = core::LMOffload::io_volumes(spec, w, policy);
    adaptive_believed.platform = platform;
    adaptive_ctl = std::make_unique<parallel::AdaptiveController>(
        adaptive_believed, config.adaptive, &reg, trace);
    adaptive_static_plan = adaptive_ctl->plan();
  }
  const auto adaptive_t_gen = [](const parallel::SearchInput& input,
                                 const parallel::ParallelismPlan& plan) {
    return parallel::evaluate_parallelism(input, plan.intra_op_compute,
                                          plan.inter_op_compute,
                                          plan.io_threads)
        .t_gen;
  };
  const auto fold_adaptive_window = [&](double now) {
    parallel::SearchInput truth = adaptive_believed;
    truth.per_thread_copy_bw *= bandwidth_factor(now);
    const parallel::ParallelismPlan& cur = adaptive_ctl->plan();
    const parallel::ParallelismPlan observed = parallel::evaluate_parallelism(
        truth, cur.intra_op_compute, cur.inter_op_compute, cur.io_threads);
    parallel::WindowSample sample;
    sample.steps = adaptive_window;
    const double steps = static_cast<double>(adaptive_window);
    sample.compute_seconds = observed.compute_seconds * steps;
    for (std::size_t i = 0; i < parallel::kNumIoTasks; ++i) {
      sample.io_seconds[i] = observed.io_seconds[i] * steps;
      sample.io_bytes[i] = truth.io_bytes[i] * steps;
    }
    adaptive_ctl->observe(sample);
    const double static_t = adaptive_t_gen(truth, adaptive_static_plan);
    const double current_t = adaptive_t_gen(truth, adaptive_ctl->plan());
    adaptive_factor = (static_t > 0.0 && current_t > 0.0)
                          ? std::min(1.0, current_t / static_t)
                          : 1.0;
    reg.gauge("parallel.adaptive.step_factor").set(adaptive_factor);
    adaptive_window = 0;
  };

  // ---- overload machinery -----------------------------------------------

  // Admission controller (null = legacy unbounded queueing) and the
  // predicted-cost descriptors it ranks queue entries by.
  const std::unique_ptr<overload::AdmissionController> admission_ctl = [&] {
    if (config.admission == overload::AdmissionPolicy::kUnbounded) {
      return std::unique_ptr<overload::AdmissionController>();
    }
    overload::AdmissionConfig ac;
    ac.policy = config.admission;
    ac.max_queue = config.max_queue;
    ac.deadline_seconds = config.deadline_seconds;
    return overload::make_admission_controller(ac);
  }();
  std::vector<double> predicted_service;
  if (admission_ctl != nullptr) {
    predicted_service.reserve(requests.size());
    for (const Request& r : requests) {
      predicted_service.push_back(predicted_service_seconds(
          spec, policy, platform, r, config.max_batch));
    }
  }
  const std::size_t policy_token_bytes = kv_bytes_per_token(policy.kv_bits);
  const auto describe = [&](const Request& r, double submit) {
    overload::AdmissionRequest d;
    d.id = r.id;
    d.submit_seconds = submit;
    d.predicted_service_seconds =
        predicted_service[static_cast<std::size_t>(r.id)];
    d.predicted_kv_bytes =
        static_cast<std::size_t>(r.prompt_len + r.gen_len) *
        policy_token_bytes;
    d.priority = r.priority;
    return d;
  };

  // A request refused at (re-)admission or dropped from the queue.
  const auto shed_request = [&](const Request& r, int attempt,
                                bool rejected) {
    auto& outcome = metrics.outcomes[static_cast<std::size_t>(r.id)];
    outcome.id = r.id;
    outcome.ttft = 0.0;
    outcome.latency = clock - r.arrival_seconds;
    outcome.tokens = 0;
    outcome.attempts = attempt;
    outcome.completed = false;
    outcome.met_deadline = false;
    outcome.shed = true;
    (rejected ? m_rejected : m_shed).add();
    if (trace != nullptr) {
      trace->complete(rejected ? "rejected" : "shed", "serve.overload",
                      kServeTracePid, static_cast<int>(r.id) + 1, clock * 1e6,
                      0.0);
    }
  };

  // An in-flight (or suspended) session the pool can no longer hold.
  const auto shed_inflight = [&](Active& a) {
    release_kv(a);
    a.lease.reset();
    auto& outcome = metrics.outcomes[static_cast<std::size_t>(a.request.id)];
    outcome.id = a.request.id;
    outcome.ttft = a.first_token_time >= 0.0
                       ? a.first_token_time - a.request.arrival_seconds
                       : 0.0;
    outcome.latency = clock - a.request.arrival_seconds;
    outcome.tokens = a.generated;
    outcome.attempts = a.attempt;
    outcome.preemptions = a.preemptions;
    outcome.completed = false;
    outcome.met_deadline = false;
    outcome.shed = true;
    m_shed.add();
    if (trace != nullptr) {
      trace->complete("shed", "serve.overload", kServeTracePid,
                      static_cast<int>(a.request.id) + 1, clock * 1e6, 0.0);
    }
  };

  // Every path into the wait queue — fresh arrivals and deadline-abort
  // retries alike — goes through overload admission.
  const auto enqueue = [&](const Request* r, double submit, int attempt) {
    if (ladder && ladder->rung() == overload::LadderRung::kShed) {
      shed_request(*r, attempt, false);
      return;
    }
    if (admission_ctl == nullptr) {
      queue.push_back(Queued{r, submit, attempt});
      return;
    }
    std::vector<overload::AdmissionRequest> snapshot;
    snapshot.reserve(queue.size());
    for (const Queued& q : queue) {
      snapshot.push_back(describe(*q.request, q.submit));
    }
    const auto verdict = admission_ctl->decide(
        snapshot, describe(*r, submit), clock,
        kv_pool != nullptr ? kv_pool->available()
                           : std::numeric_limits<std::size_t>::max());
    if (!verdict.admit) {
      shed_request(*r, attempt, true);
      return;
    }
    if (verdict.shed_queue_index >= 0) {
      const auto idx = static_cast<std::size_t>(verdict.shed_queue_index);
      LMO_CHECK_LT(idx, queue.size());
      const Queued victim = queue[idx];
      queue.erase(queue.begin() + verdict.shed_queue_index);
      shed_request(*victim.request, victim.attempt, false);
    }
    queue.push_back(Queued{r, submit, attempt});
  };

  const auto pull_arrivals = [&](double now) {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_seconds <= now) {
      enqueue(&requests[next_arrival],
              requests[next_arrival].arrival_seconds, 1);
      ++next_arrival;
    }
  };

  // Swap `active[index]` out to host memory (private KV tail only; shared
  // blocks just drop their pin). The freed pool bytes are what the caller
  // was after.
  const auto swap_out = [&](std::size_t index, bool for_overload) {
    Active& victim = active[index];
    const double cost =
        kv_swap_seconds(spec, victim.kv_bits, victim.private_kv_tokens(),
                        platform.d2h_bw()) /
        bandwidth_factor(clock);
    clock += cost;
    swap_seconds += cost;
    swap_bytes += static_cast<double>(victim.private_kv_tokens()) *
                  static_cast<double>(kv_bytes_per_token(victim.kv_bits));
    victim.lease.reset();
    release_kv(victim);
    ++victim.preemptions;
    m_preempts.add();
    if (for_overload) m_ovl_preempts.add();
    if (trace != nullptr) {
      trace->complete("swap_out", for_overload ? "serve.overload"
                                               : "serve.preempt",
                      kServeTracePid,
                      static_cast<int>(victim.request.id) + 1,
                      (clock - cost) * 1e6, cost * 1e6);
    }
    suspended.push_back(std::move(victim));
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(index));
  };

  // Lowest-priority preemptible in-flight session (ties: most remaining
  // work, matching the wait-queue preemption heuristic); `exclude` guards
  // against self-preemption. -1 when nobody qualifies.
  const auto lowest_priority_victim =
      [&](const Active* exclude) -> std::ptrdiff_t {
    std::ptrdiff_t victim = -1;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Active& a = active[i];
      if (&a == exclude || !a.decoding() ||
          a.preemptions >= config.max_preemptions_per_request) {
        continue;
      }
      if (victim < 0) {
        victim = static_cast<std::ptrdiff_t>(i);
        continue;
      }
      const Active& v = active[static_cast<std::size_t>(victim)];
      if (a.request.priority < v.request.priority ||
          (a.request.priority == v.request.priority &&
           a.remaining() > v.remaining())) {
        victim = static_cast<std::ptrdiff_t>(i);
      }
    }
    return victim;
  };

  // Rung >= shrink-cache: hold the prefix cache at a fraction of its
  // budget so session KV gets the headroom back.
  const std::size_t cache_budget = config.prefix_cache_bytes > 0
                                       ? config.prefix_cache_bytes
                                       : config.overload.kv_pool_bytes;
  const auto shrink_cache = [&] {
    if (prefix_cache == nullptr) return;
    const auto target = static_cast<std::size_t>(
        config.overload.shrink_cache_fraction *
        static_cast<double>(cache_budget));
    while (prefix_cache->bytes_in_use() > target) {
      if (prefix_cache->evict(1) == 0) break;  // the rest is pinned
    }
  };

  // Rung >= preempt: while pressure stays high, swap out one
  // lowest-priority session per engine step (never the last runner).
  const auto overload_preempt = [&] {
    if (kv_pool->pressure() < overload::PressureLevel::kHigh) return;
    if (active.size() <= 1) return;
    const auto victim = lowest_priority_victim(nullptr);
    if (victim >= 0) swap_out(static_cast<std::size_t>(victim), true);
  };

  const auto record_transition = [&](const overload::LadderTransition& t) {
    (t.escalation() ? m_escalations : m_deescalations).add();
    reg.gauge("overload.rung").set(static_cast<double>(t.to));
    if (trace != nullptr) {
      const std::string name = std::string("ladder:") +
                               overload::to_string(t.from) + "->" +
                               overload::to_string(t.to);
      trace->complete(name, "serve.overload", kServeTracePid, 0,
                      t.at_seconds * 1e6, 0.0);
    }
  };

  // ---- engine ------------------------------------------------------------

  // Fresh queue entries first (they are what preemption freed the slot
  // for), then swapped-out victims — which re-enter mid-decode with their
  // KV restored at host→device cost, never re-prefilled.
  const auto admit = [&]() {
    std::vector<std::int64_t> prefill_lens;
    while (!queue.empty() &&
           static_cast<std::int64_t>(active.size()) < config.max_batch) {
      const Queued q = queue.front();
      queue.pop_front();
      Active a;
      a.request = *q.request;
      a.submit = q.submit;
      a.attempt = q.attempt;
      a.kv_bits = policy.kv_bits;
      if (ladder && ladder->rung() >= overload::LadderRung::kDemoteKV &&
          config.overload.demoted_kv_bits < policy.kv_bits) {
        a.kv_bits = config.overload.demoted_kv_bits;
        m_demoted.add();
      }
      if (prefix_cache != nullptr && !a.request.prompt_tokens.empty()) {
        // Longest-prefix match at admission: matched tokens enter the
        // batch as already-prefilled KV served from shared blocks.
        LMO_CHECK_EQ(static_cast<std::int64_t>(a.request.prompt_tokens.size()),
                     a.request.prompt_len);
        a.lease = prefix_cache->match(a.request.prompt_tokens);
        if (a.lease != nullptr) {
          a.shared = a.lease->matched_tokens();
          a.prefilled = a.shared;
          if (trace != nullptr) {
            trace->complete("prefix_hit", "serve.kvshare", kServeTracePid,
                            static_cast<int>(a.request.id) + 1, clock * 1e6,
                            0.0);
          }
        }
      }
      prefill_lens.push_back(a.request.prompt_len - a.prefilled);
      active.push_back(std::move(a));
    }
    while (!suspended.empty() &&
           static_cast<std::int64_t>(active.size()) < config.max_batch) {
      Active back = std::move(suspended.front());
      suspended.pop_front();
      // Restore the session's KV charge before paying the swap-in. A
      // refusal (after the pool's pressure callbacks ran) defers the
      // resume; if nothing else is running the KV simply cannot fit and
      // the session is shed — the pool never throws at us.
      if (kv_pool != nullptr && !kv_pool->try_charge(kv_target_bytes(back))) {
        if (!active.empty()) {
          suspended.push_front(std::move(back));
          break;
        }
        shed_inflight(back);
        continue;
      }
      if (kv_pool != nullptr) back.charged = kv_target_bytes(back);
      if (prefix_cache != nullptr && back.shared > 0) {
        // Re-pin the shared chain. If eviction shrank it below what this
        // request was relying on, the lost prefix must be recomputed at
        // chunked-prefill cost — the shrunk remainder becomes private.
        back.lease = back.request.prompt_tokens.empty()
                         ? nullptr
                         : prefix_cache->match(back.request.prompt_tokens);
        const std::int64_t still_shared =
            back.lease == nullptr
                ? 0
                : std::min(back.lease->matched_tokens(), back.shared);
        const std::int64_t lost = back.shared - still_shared;
        if (lost > 0) {
          const double recompute =
              chunk_prefill_seconds(spec, policy, platform, lost) /
              bandwidth_factor(clock);
          clock += recompute;
          m_prefill_tokens.add(static_cast<std::uint64_t>(lost));
        }
        back.shared = still_shared;
      }
      const double cost =
          kv_swap_seconds(spec, back.kv_bits, back.private_kv_tokens(),
                          platform.h2d_bw()) /
          bandwidth_factor(clock);
      clock += cost;
      swap_seconds += cost;
      swap_bytes += static_cast<double>(back.private_kv_tokens()) *
                    static_cast<double>(kv_bytes_per_token(back.kv_bits));
      m_resumes.add();
      if (trace != nullptr) {
        trace->complete("swap_in", "serve.preempt", kServeTracePid,
                        static_cast<int>(back.request.id) + 1,
                        (clock - cost) * 1e6, cost * 1e6);
      }
      active.push_back(std::move(back));
    }
    return prefill_lens;
  };

  // Swap out the decoding request with the most remaining work to unblock
  // a queue head that has waited past the preemption threshold. The freed
  // slot is taken by the waiter in the admit() that follows.
  const auto preempt_for_waiters = [&]() {
    while (!queue.empty() &&
           static_cast<std::int64_t>(active.size()) >= config.max_batch &&
           clock - queue.front().submit >= config.preempt_wait_seconds) {
      std::ptrdiff_t victim = -1;
      for (std::size_t i = 0; i < active.size(); ++i) {
        const Active& a = active[i];
        if (!a.decoding() ||
            a.preemptions >= config.max_preemptions_per_request) {
          continue;
        }
        if (victim < 0 ||
            a.remaining() >
                active[static_cast<std::size_t>(victim)].remaining()) {
          victim = static_cast<std::ptrdiff_t>(i);
        }
      }
      if (victim < 0) return;  // nobody left to preempt
      swap_out(static_cast<std::size_t>(victim), false);
    }
  };

  while (next_arrival < requests.size() || !queue.empty() ||
         !active.empty() || !suspended.empty()) {
    pull_arrivals(clock);

    if (active.empty() && queue.empty() && suspended.empty()) {
      // Idle: jump to the next arrival (if everything left was shed at
      // enqueue, the trace is over).
      if (next_arrival >= requests.size()) break;
      clock = requests[next_arrival].arrival_seconds;
      pull_arrivals(clock);
    }
    process_corruptions();
    process_crashes();

    // Degradation ladder: one pressure observation per engine iteration;
    // rungs apply their remedies before admission sees the queue.
    if (ladder) {
      if (const auto t = ladder->observe(kv_pool->pressure(), clock)) {
        record_transition(*t);
      }
      if (ladder->rung() >= overload::LadderRung::kShrinkCache) {
        shrink_cache();
      }
      if (ladder->rung() >= overload::LadderRung::kPreempt) {
        overload_preempt();
      }
    }

    // Preemption, then admission.
    if (config.preempt) preempt_for_waiters();
    std::vector<std::int64_t> admitted_lens;
    if (config.batching == Batching::kContinuous || active.empty()) {
      admitted_lens = admit();
    }
    if (config.prefill_chunk == 0) {
      // Monolithic prefill on admission: newcomers stall the engine for
      // their unmatched prompt tokens (whole prompts with sharing off).
      if (!admitted_lens.empty()) {
        clock += prefill_seconds(spec, policy, platform, admitted_lens) /
                 bandwidth_factor(clock);
        for (const std::int64_t len : admitted_lens) {
          m_prefill_tokens.add(static_cast<std::uint64_t>(len));
        }
        for (auto& a : active) {
          if (!a.decoding()) a.prefilled = a.request.prompt_len;
          publish(a);
        }
      }
    }
    if (active.empty()) continue;  // everything pending was shed or deferred

    // Chunked prefill: advance warming sequences by up to one chunk each,
    // piggybacked on this step.
    double prefill_cost = 0.0;
    if (config.prefill_chunk > 0) {
      std::int64_t chunk_tokens = 0;
      for (auto& a : active) {
        if (a.decoding()) continue;
        const std::int64_t take = std::min(
            config.prefill_chunk, a.request.prompt_len - a.prefilled);
        a.prefilled += take;
        chunk_tokens += take;
        if (a.decoding()) publish(a);
      }
      m_prefill_tokens.add(static_cast<std::uint64_t>(chunk_tokens));
      prefill_cost =
          chunk_prefill_seconds(spec, policy, platform, chunk_tokens);
    }

    // One decode step for every fully-prefilled sequence.
    std::int64_t decoding = 0;
    for (const auto& a : active) decoding += a.decoding();
    // Integrity verification re-checksums the step's fetched bytes (the
    // offloaded weight stream plus every decoding sequence's at-rest KV).
    double verify_cost = 0.0;
    if (verify_fraction > 0.0 && decoding > 0) {
      double verified = verify_weight_bytes;
      for (const auto& a : active) {
        if (!a.decoding()) continue;
        verified += static_cast<double>(a.kv_tokens()) *
                    static_cast<double>(kv_bytes_per_token(a.kv_bits));
      }
      verified *= verify_fraction;
      verify_cost = verified / (config.integrity.checksum_gbps * 1e9);
      verify_seconds_total += verify_cost;
      m_verify_total.add(static_cast<std::uint64_t>(decoding) + 1);
      m_verify_bytes.add(verified);
    }
    double step =
        (decode_step_seconds(spec, policy, platform, active) + prefill_cost +
         verify_cost) /
        bandwidth_factor(clock);
    if (adaptive_ctl != nullptr) step *= adaptive_factor;
    LMO_CHECK_GT(step, 0.0);
    occupancy_integral += static_cast<double>(active.size()) * step;
    clock += step;
    m_tokens.add(static_cast<std::uint64_t>(decoding));
    if (adaptive_ctl != nullptr &&
        ++adaptive_window >= config.adaptive.window_steps) {
      fold_adaptive_window(clock);
    }

    for (auto it = active.begin(); it != active.end();) {
      if (!it->decoding()) {
        ++it;
        continue;
      }
      if (it->first_token_time < 0.0) it->first_token_time = clock;
      ++it->generated;
      if (it->generated >= it->request.gen_len) {
        auto& outcome =
            metrics.outcomes[static_cast<std::size_t>(it->request.id)];
        outcome.id = it->request.id;
        outcome.ttft = it->first_token_time - it->request.arrival_seconds;
        outcome.latency = clock - it->request.arrival_seconds;
        outcome.tokens = it->generated;
        outcome.attempts = it->attempt;
        outcome.preemptions = it->preemptions;
        outcome.completed = true;
        outcome.met_deadline = config.deadline_seconds <= 0.0 ||
                               clock - it->submit <= config.deadline_seconds;
        m_completed.add();
        m_ttft.record(outcome.ttft);
        m_latency.record(outcome.latency);
        trace_outcome(outcome, it->request.arrival_seconds);
        release_kv(*it);
        it = active.erase(it);
      } else {
        ++it;
      }
    }

    // Deadline enforcement at step boundaries: abort overdue attempts;
    // the client resubmits (fresh attempt clock) while retries remain —
    // through admission control, which may refuse the retry — otherwise
    // the request fails for good.
    if (config.deadline_seconds > 0.0) {
      for (auto it = active.begin(); it != active.end();) {
        if (clock - it->submit <= config.deadline_seconds) {
          ++it;
          continue;
        }
        m_misses.add();
        release_kv(*it);
        if (it->attempt <= config.max_retries) {
          m_retries.add();
          const int attempt = it->attempt + 1;
          const Request* original =
              &requests[static_cast<std::size_t>(it->request.id)];
          it = active.erase(it);
          enqueue(original, clock, attempt);
        } else {
          auto& outcome =
              metrics.outcomes[static_cast<std::size_t>(it->request.id)];
          outcome.id = it->request.id;
          outcome.ttft = it->first_token_time >= 0.0
                             ? it->first_token_time -
                                   it->request.arrival_seconds
                             : 0.0;
          outcome.latency = clock - it->request.arrival_seconds;
          outcome.tokens = it->generated;
          outcome.attempts = it->attempt;
          outcome.preemptions = it->preemptions;
          outcome.completed = false;
          outcome.met_deadline = false;
          trace_outcome(outcome, it->request.arrival_seconds);
          it = active.erase(it);
        }
      }
    }

    // Reconcile every surviving session's pool charge with what this step
    // grew. A session the pool cannot cover preempts the lowest-priority
    // other runner for room; with nobody left to evict it is shed. The
    // pool is only ever asked, never allowed to throw.
    if (kv_pool != nullptr) {
      for (std::size_t i = 0; i < active.size();) {
        if (reconcile_kv(active[i])) {
          ++i;
          continue;
        }
        const auto victim = lowest_priority_victim(&active[i]);
        if (victim >= 0) {
          swap_out(static_cast<std::size_t>(victim), true);
          if (static_cast<std::size_t>(victim) < i) --i;
          continue;  // retry the same session
        }
        shed_inflight(active[i]);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  LMO_CHECK_GT(clock, 0.0);

  // Goodput and SLO attainment: only tokens of requests that completed
  // within their deadline count as useful work. completed == 0 means no
  // request ever met its SLO (attainment 0, not a fabricated 1).
  std::int64_t good_tokens = 0;
  std::size_t slo_met = 0;
  for (const auto& outcome : metrics.outcomes) {
    if (outcome.completed && outcome.met_deadline) {
      good_tokens += outcome.tokens;
      ++slo_met;
    }
  }
  reg.gauge("serve.time.duration_seconds").set(clock);
  reg.gauge("serve.throughput.tokens_per_second")
      .set(static_cast<double>(m_tokens.value()) / clock);
  reg.gauge("serve.throughput.requests_per_second")
      .set(static_cast<double>(m_completed.value()) / clock);
  reg.gauge("serve.goodput.tokens_per_second")
      .set(static_cast<double>(good_tokens) / clock);
  reg.gauge("serve.goodput.requests_per_second")
      .set(static_cast<double>(slo_met) / clock);
  reg.gauge("serve.slo.attainment")
      .set(static_cast<double>(slo_met) /
           static_cast<double>(metrics.outcomes.size()));
  reg.gauge("serve.batch.mean_occupancy").set(occupancy_integral / clock);
  reg.gauge("serve.preempt.swap_seconds").set(swap_seconds);
  reg.gauge("serve.kv.swap_bytes").set(swap_bytes);
  m_verify_seconds.set(verify_seconds_total);
  if (kv_pool != nullptr) {
    reg.gauge("overload.kv_pool.peak_bytes")
        .set(static_cast<double>(kv_pool->peak()));
    reg.gauge("overload.kv_pool.capacity_bytes")
        .set(static_cast<double>(kv_pool->capacity()));
  }

  // Materialize the legacy view from the registry — the compatibility
  // surface callers keep, backed by the one telemetry vocabulary.
  metrics.duration = reg.gauge("serve.time.duration_seconds").value();
  metrics.token_throughput =
      reg.gauge("serve.throughput.tokens_per_second").value();
  metrics.request_throughput =
      reg.gauge("serve.throughput.requests_per_second").value();
  metrics.goodput = reg.gauge("serve.goodput.tokens_per_second").value();
  metrics.request_goodput =
      reg.gauge("serve.goodput.requests_per_second").value();
  metrics.slo_attainment = reg.gauge("serve.slo.attainment").value();
  metrics.mean_batch_occupancy =
      reg.gauge("serve.batch.mean_occupancy").value();
  metrics.completed = m_completed.value();
  metrics.deadline_misses = m_misses.value();
  metrics.retries = m_retries.value();
  metrics.preemptions = m_preempts.value();
  metrics.preempt_resumes = m_resumes.value();
  metrics.preempt_swap_seconds =
      reg.gauge("serve.preempt.swap_seconds").value();
  metrics.prefill_tokens = m_prefill_tokens.value();
  metrics.kv_swap_bytes = reg.gauge("serve.kv.swap_bytes").value();
  if (config.prefix_share) {
    metrics.prefix_hit_tokens = reg.counter("kvshare.hit_tokens").value();
    metrics.prefix_miss_tokens = reg.counter("kvshare.miss_tokens").value();
    metrics.prefix_evicted_blocks =
        reg.counter("kvshare.evicted_blocks").value();
    metrics.prefix_bytes_saved =
        static_cast<double>(reg.counter("kvshare.bytes_saved").value());
  }
  metrics.shed = m_shed.value();
  metrics.rejected = m_rejected.value();
  metrics.overload_escalations = m_escalations.value();
  metrics.overload_deescalations = m_deescalations.value();
  metrics.overload_preemptions = m_ovl_preempts.value();
  metrics.demoted_sessions = m_demoted.value();
  metrics.corruption_detected = m_corrupt_detected.value();
  metrics.corruption_undetected = m_corrupt_undetected.value();
  metrics.rollback_tokens = m_rollback_tokens.value();
  metrics.verify_seconds = m_verify_seconds.value();
  metrics.crashes = m_crashes.value();
  metrics.crash_recovery_seconds = m_crash_recovery.value();
  metrics.crash_rollback_tokens = m_crash_rollback.value();
  if (m_ttft.count() > 0) {
    metrics.ttft_p50 = m_ttft.percentile(0.5);
    metrics.ttft_p95 = m_ttft.percentile(0.95);
    metrics.latency_p50 = m_latency.percentile(0.5);
    metrics.latency_p95 = m_latency.percentile(0.95);
  }
  return metrics;
}

}  // namespace lmo::serve
