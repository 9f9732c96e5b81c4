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
#include "lmo/runtime/kv_cache.hpp"
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
  const Request* request = nullptr;
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

  bool decoding() const { return prefilled >= request->prompt_len; }
  std::int64_t remaining() const { return request->gen_len - generated; }
  /// Tokens resident in this sequence's KV cache (prompt + generated).
  std::int64_t kv_tokens() const { return prefilled + generated; }
  /// KV tokens owned privately by this sequence (what a swap must move —
  /// shared-chain tokens stay in the block store).
  std::int64_t private_kv_tokens() const { return kv_tokens() - shared; }
  /// Trace row of this request on the engine timeline.
  int tid() const { return static_cast<int>(request->id) + 1; }
};

/// A queued attempt: the original request plus retry bookkeeping. A
/// deadline retry carries the swap-outs of its earlier attempts along.
struct Queued {
  const Request* request = nullptr;
  double submit = 0.0;
  int attempt = 1;
  int preemptions = 0;
};

/// Prompt tokens an admission round pushes through prefill, and over how
/// many newly admitted sequences.
struct PrefillBatch {
  std::int64_t tokens = 0;
  std::int64_t sequences = 0;
};

/// How a request leaves the engine for good.
enum class Exit { kCompleted, kAborted, kShed, kRejected };

/// Eq.-2 cost of one decode step through all layers for `batch` sequences
/// with `prompt_len`-token prompts at generated position `t`.
double decode_seconds(const model::ModelSpec& spec,
                      const perfmodel::Policy& policy,
                      const hw::Platform& platform, std::int64_t prompt_len,
                      std::int64_t t, std::int64_t batch) {
  model::Workload w;
  w.prompt_len = std::max<std::int64_t>(1, prompt_len);
  w.gen_len = t + 1;  // the smallest workload step t is valid in
  w.gpu_batch = batch;
  w.num_batches = 1;
  const auto costs = perfmodel::step_costs(spec, w, policy, platform, t);
  return costs.t_gen * static_cast<double>(spec.num_layers);
}

/// Duration of one engine step for the current batch composition: a decode
/// token for every in-flight sequence, priced at the batch's mean prompt
/// and mean progress.
double decode_step_seconds(const model::ModelSpec& spec,
                           const perfmodel::Policy& policy,
                           const hw::Platform& platform,
                           const std::vector<Active>& active) {
  double prompt_sum = 0.0;
  double progress_sum = 0.0;
  std::int64_t batch = 0;
  for (const Active& a : active) {
    if (!a.decoding()) continue;
    prompt_sum += static_cast<double>(a.request->prompt_len);
    progress_sum += static_cast<double>(a.generated);
    ++batch;
  }
  if (batch == 0) return 0.0;
  const auto n = static_cast<double>(batch);
  return decode_seconds(
      spec, policy, platform, static_cast<std::int64_t>(prompt_sum / n),
      std::max<std::int64_t>(1, static_cast<std::int64_t>(progress_sum / n)),
      batch);
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

/// Prefill cost of pushing `tokens` prompt tokens, spread over `sequences`
/// sequences, through all layers: the unmatched suffixes of newly admitted
/// requests, a chunked-prefill increment, or a prefix lost to eviction.
double prefill_seconds(const model::ModelSpec& spec,
                       const perfmodel::Policy& policy,
                       const hw::Platform& platform, std::int64_t tokens,
                       std::int64_t sequences) {
  if (sequences == 0) return 0.0;
  model::Workload w;
  w.prompt_len = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(tokens) /
                                   static_cast<double>(sequences)));
  w.gen_len = 2;
  w.gpu_batch = sequences;
  w.num_batches = 1;
  // Per-layer prefill: GPU compute over the prompts + weight stream.
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

/// Whole-request engine-time estimate under the cost model: monolithic
/// prefill of the prompt plus gen_len decode steps priced at a full batch
/// in mid-flight. Admission-control currency only — the run itself prices
/// every step exactly; the controller just needs a consistent ranking.
double predicted_service_seconds(const model::ModelSpec& spec,
                                 const perfmodel::Policy& policy,
                                 const hw::Platform& platform,
                                 const Request& r, std::int64_t batch) {
  const double step =
      decode_seconds(spec, policy, platform, r.prompt_len,
                     std::max<std::int64_t>(1, r.gen_len / 2),
                     std::max<std::int64_t>(1, batch));
  return prefill_seconds(spec, policy, platform, r.prompt_len, 1) +
         static_cast<double>(r.gen_len) * step;
}

template <typename Event>
std::vector<Event> by_time(std::vector<Event> events) {
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.at_seconds < b.at_seconds;
  });
  return events;
}

/// The state simulate_serving steps: the wait queue, the active and
/// suspended sets, the clock, the modelled KV pool and prefix cache, and
/// the metric handles. Every lifecycle transition (admit, suspend, resume,
/// roll back, close) is written once, as a member function.
struct Engine {
  const model::ModelSpec& spec;
  const perfmodel::Policy& policy;
  const hw::Platform& platform;
  const std::vector<Request>& requests;
  const ServeConfig& config;
  telemetry::MetricsRegistry& reg;
  telemetry::TraceRecorder* trace;

  telemetry::Counter& m_tokens = reg.counter("serve.tokens.generated");
  telemetry::Counter& m_completed = reg.counter("serve.requests.completed");
  telemetry::Counter& m_misses =
      reg.counter("serve.requests.deadline_misses");
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
  integrity::ChecksumRegistry integrity_reg{config.integrity, &reg};
  telemetry::Counter& m_corrupt_detected =
      reg.counter("integrity.corruption.detected");
  telemetry::Counter& m_corrupt_undetected =
      reg.counter("integrity.corruption.undetected");
  telemetry::Counter& m_rollback_tokens =
      reg.counter("integrity.rollback.tokens");
  telemetry::Counter& m_verify_total = reg.counter("integrity.verify.total");
  telemetry::Gauge& m_verify_bytes = reg.gauge("integrity.verify.bytes");
  // Engine crash/recover accounting (see CrashEvent and lmo/recover/).
  telemetry::Counter& m_crashes = reg.counter("serve.crash.total");
  telemetry::Counter& m_crash_rollback =
      reg.counter("serve.crash.rollback.tokens");
  ServeMetrics metrics;

  // Overload protection: a modelled KV pool with pressure watermarks and
  // the degradation ladder it drives. Declared before the prefix cache so
  // the cache's pressure callback is removed before the pool dies.
  std::unique_ptr<runtime::MemoryPool> kv_pool;
  std::optional<overload::DegradationLadder> ladder;
  std::unique_ptr<runtime::KVBlockPool> prefix_blocks;
  std::unique_ptr<kvshare::PrefixCache> prefix_cache;
  /// Admission controller (null = unbounded queueing) and the
  /// predicted-cost descriptors it ranks queue entries by.
  std::unique_ptr<overload::AdmissionController> admission_ctl;
  std::vector<double> predicted_service;

  // Integrity: fraction of fetched bytes the verify policy checksums (0
  // when off, 1/period when sampling) and the offloaded weight bytes every
  // decode step streams across all layers.
  double verify_fraction =
      !config.integrity.enabled() ? 0.0
      : config.integrity.policy == integrity::VerifyPolicy::kAlways
          ? 1.0
          : 1.0 / static_cast<double>(config.integrity.sample_period);
  double verify_weight_bytes =
      model::layer_weight_bytes(spec, policy.weight_bits) *
      (1.0 - policy.weights_on_gpu) * static_cast<double>(spec.num_layers);
  std::vector<CorruptionEvent> corruptions = by_time(config.corruptions);
  std::size_t next_corruption = 0;
  std::vector<CrashEvent> crashes = by_time(config.crashes);
  std::size_t next_crash = 0;

  // Adaptive parallelism control (see the constructor).
  std::unique_ptr<parallel::AdaptiveController> adaptive_ctl;
  parallel::SearchInput adaptive_believed;
  parallel::ParallelismPlan adaptive_static_plan;
  double adaptive_factor = 1.0;
  int adaptive_window = 0;

  // Declared after the prefix cache: sessions hold leases into it.
  std::deque<Queued> queue;
  std::size_t next_arrival = 0;
  std::vector<Active> active;
  std::deque<Active> suspended;  ///< swapped-out, awaiting re-admission
  double clock = 0.0;
  double occupancy_integral = 0.0;
  double swap_seconds = 0.0;
  double swap_bytes = 0.0;
  double verify_seconds = 0.0;
  double crash_recovery_seconds = 0.0;

  Engine(const model::ModelSpec& spec, const perfmodel::Policy& policy,
         const hw::Platform& platform, const std::vector<Request>& requests,
         const ServeConfig& config, telemetry::MetricsRegistry& reg,
         telemetry::TraceRecorder* trace)
      : spec(spec),
        policy(policy),
        platform(platform),
        requests(requests),
        config(config),
        reg(reg),
        trace(trace) {
    LMO_CHECK_MSG(m_tokens.value() == 0 && m_completed.value() == 0 &&
                      m_ttft.count() == 0,
                  "simulate_serving needs a fresh registry: 'serve.*' metrics "
                  "already hold data");
    metrics.outcomes.resize(requests.size());
    if (trace != nullptr) {
      trace->set_process_name(kServeTracePid, "serve-engine");
      for (const FaultWindow& w : config.fault_windows) {
        trace->complete("fault_window", "serve.fault", kServeTracePid, 0,
                        w.begin * 1e6, (w.end - w.begin) * 1e6);
      }
    }

    if (config.overload.enabled) {
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
    if (config.prefix_share) {
      runtime::KVBlockPoolConfig blocks;
      blocks.block_tokens = config.kv_block_tokens;
      blocks.bytes_per_block =
          std::max<std::size_t>(
              1, runtime::kv_bytes_per_token(spec.hidden, policy.kv_bits)) *
          static_cast<std::size_t>(config.kv_block_tokens);
      blocks.capacity_bytes = config.prefix_cache_bytes;
      prefix_blocks =
          std::make_unique<runtime::KVBlockPool>(blocks, kv_pool.get());
      prefix_cache =
          std::make_unique<kvshare::PrefixCache>(*prefix_blocks, 1, &reg);
    }

    if (config.admission != overload::AdmissionPolicy::kUnbounded) {
      overload::AdmissionConfig ac;
      ac.policy = config.admission;
      ac.max_queue = config.max_queue;
      ac.deadline_seconds = config.deadline_seconds;
      admission_ctl = overload::make_admission_controller(ac);
      predicted_service.reserve(requests.size());
      for (const Request& r : requests) {
        predicted_service.push_back(predicted_service_seconds(
            spec, policy, platform, r, config.max_batch));
      }
    }

    // Adaptive parallelism control: the serving mirror of the Generator's
    // closed loop, entirely in model time (deterministic). The controller is
    // seeded with the believed Algorithm-3 inputs for the trace's mean
    // workload; each window's task spans come from costing the in-force plan
    // under the *effective* link (fault windows shrink the observed copy
    // bandwidth). Step durations then scale by how the re-planned allocation
    // compares to the static one under the same conditions — ≤ 1 when
    // replanning helped, exactly 1 when the believed plan was already right.
    if (config.adaptive.enabled) {
      double prompt_sum = 0.0;
      double gen_sum = 0.0;
      for (const Request& r : requests) {
        prompt_sum += static_cast<double>(r.prompt_len);
        gen_sum += static_cast<double>(r.gen_len);
      }
      const double n = static_cast<double>(requests.size());
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
  }

  bool busy() const {
    return next_arrival < requests.size() || !queue.empty() ||
           !active.empty() || !suspended.empty();
  }

  std::size_t kv_target_bytes(const Active& a) const {
    return static_cast<std::size_t>(a.private_kv_tokens()) *
           runtime::kv_bytes_per_token(spec.hidden, a.kv_bits);
  }

  /// Smallest bandwidth factor among fault windows containing the clock;
  /// step durations divide by this, stretching work inside degraded
  /// intervals.
  double bandwidth_factor() const {
    double factor = 1.0;
    for (const FaultWindow& w : config.fault_windows) {
      if (clock >= w.begin && clock < w.end) {
        factor = std::min(factor, w.bandwidth_factor);
      }
    }
    return factor;
  }

  /// Reconcile a session's pool charge with its current private KV size;
  /// false when the pool cannot cover the growth even after its pressure
  /// callbacks (prefix-cache eviction) ran. The pool is only ever
  /// try_charge()d — a refusal degrades (preempt, then shed), it never
  /// escapes as a ResourceExhausted throw.
  bool reconcile_kv(Active& a) {
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
  }

  /// A session leaves the device: unpin its shared chain and return its
  /// private KV charge to the pool.
  void drop_kv(Active& a) {
    a.lease.reset();
    if (kv_pool != nullptr && a.charged > 0) {
      kv_pool->release(a.charged);
      a.charged = 0;
    }
  }

  /// Publish a request's prompt into the radix tree once its prefill is
  /// complete; the returned lease replaces the match-time pin so the full
  /// chain stays resident while the request is in flight.
  void publish(Active& a) {
    if (prefix_cache == nullptr || a.published) return;
    a.published = true;
    if (a.request->prompt_tokens.empty()) return;
    auto lease = prefix_cache->insert(a.request->prompt_tokens, nullptr);
    if (lease != nullptr) a.lease = std::move(lease);
  }

  /// Write a request's final outcome: completed, aborted past its deadline,
  /// shed by overload protection, or rejected at admission. Records the
  /// matching counter and lifecycle trace span(s), one row per request id:
  /// wait-for-first-token then decode, or a single aborted / shed marker.
  /// Virtual timestamps in microseconds, matching the simulator's
  /// predicted-timeline export.
  void close(Active& a, Exit how) {
    drop_kv(a);
    const Request& r = *a.request;
    RequestOutcome& o = metrics.outcomes[static_cast<std::size_t>(r.id)];
    o.id = r.id;
    o.ttft = a.first_token_time >= 0.0 ? a.first_token_time - r.arrival_seconds
                                        : 0.0;
    o.latency = clock - r.arrival_seconds;
    o.tokens = a.generated;
    o.attempts = a.attempt;
    o.preemptions = a.preemptions;
    o.completed = how == Exit::kCompleted;
    o.met_deadline =
        o.completed && (config.deadline_seconds <= 0.0 ||
                        clock - a.submit <= config.deadline_seconds);
    o.shed = how == Exit::kShed || how == Exit::kRejected;
    switch (how) {
      case Exit::kCompleted:
        m_completed.add();
        m_ttft.record(o.ttft);
        m_latency.record(o.latency);
        if (trace == nullptr) return;
        trace->complete("wait_first_token", "serve.request", kServeTracePid,
                        a.tid(), r.arrival_seconds * 1e6, o.ttft * 1e6);
        trace->complete("decode", "serve.request", kServeTracePid, a.tid(),
                        (r.arrival_seconds + o.ttft) * 1e6,
                        (o.latency - o.ttft) * 1e6);
        return;
      case Exit::kAborted:
        if (trace == nullptr) return;
        trace->complete("aborted", "serve.request", kServeTracePid, a.tid(),
                        r.arrival_seconds * 1e6, o.latency * 1e6);
        return;
      case Exit::kShed:
      case Exit::kRejected:
        (how == Exit::kRejected ? m_rejected : m_shed).add();
        if (trace == nullptr) return;
        trace->complete(how == Exit::kRejected ? "rejected" : "shed",
                        "serve.overload", kServeTracePid, a.tid(), clock * 1e6,
                        0.0);
        return;
    }
  }

  /// Close a request that never got a slot (refused or dropped from the
  /// queue): no tokens and no first token, only the swap-outs of earlier
  /// attempts.
  void refuse(const Queued& q, Exit how) {
    Active a;
    a.request = q.request;
    a.attempt = q.attempt;
    a.preemptions = q.preemptions;
    close(a, how);
  }

  /// Move `active[index]` to the suspended set: its device KV is dropped and
  /// it re-enters later through the swap-in path in admit(). Preemption,
  /// corruption repair and crash recovery all suspend this way.
  void suspend(std::size_t index) {
    drop_kv(active[index]);
    suspended.push_back(std::move(active[index]));
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(index));
  }

  /// Move a session's private KV tail across the link at `bw` (shared
  /// blocks stay in the block store), charging the engine clock, the swap
  /// totals and one trace span.
  void charge_swap(const Active& a, double bw, const char* name,
                   const char* category) {
    const double cost =
        kv_swap_seconds(spec, a.kv_bits, a.private_kv_tokens(), bw) /
        bandwidth_factor();
    clock += cost;
    swap_seconds += cost;
    swap_bytes += static_cast<double>(a.private_kv_tokens()) *
                  static_cast<double>(
                      runtime::kv_bytes_per_token(spec.hidden, a.kv_bits));
    if (trace != nullptr) {
      trace->complete(name, category, kServeTracePid, a.tid(),
                      (clock - cost) * 1e6, cost * 1e6);
    }
  }

  /// Swap `active[index]` out to host memory. The freed slot and pool bytes
  /// are what the caller was after.
  void swap_out(std::size_t index, bool for_overload) {
    charge_swap(active[index], platform.d2h_bw(), "swap_out",
                for_overload ? "serve.overload" : "serve.preempt");
    ++active[index].preemptions;
    m_preempts.add();
    if (for_overload) m_ovl_preempts.add();
    suspend(index);
  }

  /// The preemptible in-flight session with the most remaining work, or with
  /// `by_priority` the lowest-priority one (ties: most remaining work);
  /// `exclude` guards against self-preemption. -1 when nobody qualifies.
  std::ptrdiff_t pick_victim(const Active* exclude, bool by_priority) const {
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
      const int pa = by_priority ? a.request->priority : 0;
      const int pv = by_priority ? v.request->priority : 0;
      if (pa < pv || (pa == pv && a.remaining() > v.remaining())) {
        victim = static_cast<std::ptrdiff_t>(i);
      }
    }
    return victim;
  }

  /// Roll a session back to its last ckpt_interval_tokens boundary; returns
  /// the generated tokens it must re-decode.
  std::uint64_t rollback(Active& a) const {
    const std::int64_t keep = (a.generated / config.ckpt_interval_tokens) *
                              config.ckpt_interval_tokens;
    const auto lost = static_cast<std::uint64_t>(a.generated - keep);
    a.generated = keep;
    return lost;
  }

  /// Detected corruption: checkpoint rollback, counted and traced.
  void repair(Active& a) {
    m_rollback_tokens.add(rollback(a));
    integrity_reg.note_repair(integrity::RepairKind::kRecompute);
    m_corrupt_detected.add();
    if (trace != nullptr) {
      trace->complete("corruption", "integrity", kServeTracePid, a.tid(),
                      clock * 1e6, 0.0);
    }
  }

  void process_corruptions() {
    while (next_corruption < corruptions.size() &&
           corruptions[next_corruption].at_seconds <= clock) {
      const std::int64_t id = corruptions[next_corruption++].request_id;
      if (!config.integrity.enabled()) {
        // Nothing checks the bytes: in a real serving stack this is the
        // silent token divergence the integrity layer exists to stop.
        m_corrupt_undetected.add();
        continue;
      }
      const auto named = [id](const Active& a) { return a.request->id == id; };
      const auto running = std::find_if(active.begin(), active.end(), named);
      if (running != active.end()) {
        // Checkpoint-rollback re-admission: the corrupt KV charge is dropped
        // and the session re-enters through the swap-in path, restoring its
        // checkpointed KV at link cost before re-decoding the rolled-back
        // tail. Not counted as a preemption — the slot was lost to repair,
        // not to a waiter.
        repair(*running);
        suspend(static_cast<std::size_t>(running - active.begin()));
        continue;
      }
      // Already swapped out: roll the checkpoint cursor back in place; the
      // regular swap-in restores from there. Events naming a queued or
      // finished request are inert.
      const auto parked =
          std::find_if(suspended.begin(), suspended.end(), named);
      if (parked != suspended.end()) repair(*parked);
    }
  }

  void process_crashes() {
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
      crash_recovery_seconds += stall;
      // The whole engine dies: every in-flight session loses its device KV
      // and re-enters through the swap-in path (restoring KV at link cost)
      // exactly like a preemption victim; every session rolls back to its
      // last checkpoint boundary.
      while (!active.empty()) suspend(active.size() - 1);
      for (Active& s : suspended) m_crash_rollback.add(rollback(s));
    }
  }

  void fold_adaptive_window() {
    const auto t_gen = [](const parallel::SearchInput& input,
                          const parallel::ParallelismPlan& plan) {
      return parallel::evaluate_parallelism(input, plan.intra_op_compute,
                                            plan.inter_op_compute,
                                            plan.io_threads)
          .t_gen;
    };
    parallel::SearchInput truth = adaptive_believed;
    truth.per_thread_copy_bw *= bandwidth_factor();
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
    const double static_t = t_gen(truth, adaptive_static_plan);
    const double current_t = t_gen(truth, adaptive_ctl->plan());
    adaptive_factor = (static_t > 0.0 && current_t > 0.0)
                          ? std::min(1.0, current_t / static_t)
                          : 1.0;
    reg.gauge("parallel.adaptive.step_factor").set(adaptive_factor);
    adaptive_window = 0;
  }

  overload::AdmissionRequest describe(const Request& r, double submit) const {
    overload::AdmissionRequest d;
    d.id = r.id;
    d.submit_seconds = submit;
    d.predicted_service_seconds =
        predicted_service[static_cast<std::size_t>(r.id)];
    d.predicted_kv_bytes =
        static_cast<std::size_t>(r.prompt_len + r.gen_len) *
        runtime::kv_bytes_per_token(spec.hidden, policy.kv_bits);
    d.priority = r.priority;
    return d;
  }

  /// Every path into the wait queue — fresh arrivals and deadline-abort
  /// retries alike — goes through overload admission.
  void enqueue(const Queued& q) {
    if (ladder && ladder->rung() == overload::LadderRung::kShed) {
      refuse(q, Exit::kShed);
      return;
    }
    if (admission_ctl == nullptr) {
      queue.push_back(q);
      return;
    }
    std::vector<overload::AdmissionRequest> snapshot;
    snapshot.reserve(queue.size());
    for (const Queued& q : queue) {
      snapshot.push_back(describe(*q.request, q.submit));
    }
    const auto verdict = admission_ctl->decide(
        snapshot, describe(*q.request, q.submit), clock,
        kv_pool != nullptr ? kv_pool->available()
                           : std::numeric_limits<std::size_t>::max());
    if (!verdict.admit) {
      refuse(q, Exit::kRejected);
      return;
    }
    if (verdict.shed_queue_index >= 0) {
      const auto idx = static_cast<std::size_t>(verdict.shed_queue_index);
      LMO_CHECK_LT(idx, queue.size());
      const Queued victim = queue[idx];
      queue.erase(queue.begin() + verdict.shed_queue_index);
      refuse(victim, Exit::kShed);
    }
    queue.push_back(q);
  }

  void pull_arrivals() {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_seconds <= clock) {
      enqueue(Queued{&requests[next_arrival],
                     requests[next_arrival].arrival_seconds});
      ++next_arrival;
    }
  }

  /// Degradation ladder: one pressure observation per engine iteration;
  /// rungs apply their remedies before admission sees the queue.
  void run_ladder() {
    if (const auto t = ladder->observe(kv_pool->pressure(), clock)) {
      (t->escalation() ? m_escalations : m_deescalations).add();
      reg.gauge("overload.rung").set(static_cast<double>(t->to));
      if (trace != nullptr) {
        const std::string name = std::string("ladder:") +
                                 overload::to_string(t->from) + "->" +
                                 overload::to_string(t->to);
        trace->complete(name, "serve.overload", kServeTracePid, 0,
                        t->at_seconds * 1e6, 0.0);
      }
    }
    // Rung >= shrink-cache: hold the prefix cache at a fraction of its
    // budget so session KV gets the headroom back.
    if (ladder->rung() >= overload::LadderRung::kShrinkCache &&
        prefix_cache != nullptr) {
      const std::size_t budget = config.prefix_cache_bytes > 0
                                     ? config.prefix_cache_bytes
                                     : config.overload.kv_pool_bytes;
      const auto target = static_cast<std::size_t>(
          config.overload.shrink_cache_fraction * static_cast<double>(budget));
      while (prefix_cache->bytes_in_use() > target) {
        if (prefix_cache->evict(1) == 0) break;  // the rest is pinned
      }
    }
    // Rung >= preempt: while pressure stays high, swap out one
    // lowest-priority session per engine step (never the last runner).
    if (ladder->rung() >= overload::LadderRung::kPreempt &&
        kv_pool->pressure() >= overload::PressureLevel::kHigh &&
        active.size() > 1) {
      const auto victim = pick_victim(nullptr, true);
      if (victim >= 0) swap_out(static_cast<std::size_t>(victim), true);
    }
  }

  /// Swap out the decoding request with the most remaining work to unblock
  /// a queue head that has waited past the preemption threshold. The freed
  /// slot is taken by the waiter in the admit() that follows.
  void preempt_for_waiters() {
    while (!queue.empty() &&
           static_cast<std::int64_t>(active.size()) >= config.max_batch &&
           clock - queue.front().submit >= config.preempt_wait_seconds) {
      const auto victim = pick_victim(nullptr, false);
      if (victim < 0) return;  // nobody left to preempt
      swap_out(static_cast<std::size_t>(victim), false);
    }
  }

  /// Fresh queue entries first (they are what preemption freed the slot
  /// for), then swapped-out victims — which re-enter mid-decode with their
  /// KV restored at host→device cost, never re-prefilled.
  PrefillBatch admit() {
    PrefillBatch batch;
    while (!queue.empty() &&
           static_cast<std::int64_t>(active.size()) < config.max_batch) {
      const Queued q = queue.front();
      queue.pop_front();
      Active a;
      a.request = q.request;
      a.submit = q.submit;
      a.attempt = q.attempt;
      a.preemptions = q.preemptions;
      a.kv_bits = policy.kv_bits;
      if (ladder && ladder->rung() >= overload::LadderRung::kDemoteKV &&
          config.overload.demoted_kv_bits < policy.kv_bits) {
        a.kv_bits = config.overload.demoted_kv_bits;
        m_demoted.add();
      }
      const auto& prompt = a.request->prompt_tokens;
      if (prefix_cache != nullptr && !prompt.empty()) {
        // Longest-prefix match at admission: matched tokens enter the
        // batch as already-prefilled KV served from shared blocks.
        LMO_CHECK_EQ(static_cast<std::int64_t>(prompt.size()),
                     a.request->prompt_len);
        a.lease = prefix_cache->match(prompt);
        if (a.lease != nullptr) {
          a.shared = a.lease->matched_tokens();
          a.prefilled = a.shared;
          if (trace != nullptr) {
            trace->complete("prefix_hit", "serve.kvshare", kServeTracePid,
                            a.tid(), clock * 1e6, 0.0);
          }
        }
      }
      batch.tokens += a.request->prompt_len - a.prefilled;
      ++batch.sequences;
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
        close(back, Exit::kShed);
        continue;
      }
      if (kv_pool != nullptr) back.charged = kv_target_bytes(back);
      if (prefix_cache != nullptr && back.shared > 0) {
        // Re-pin the shared chain. If eviction shrank it below what this
        // request was relying on, the lost prefix must be recomputed at
        // chunked-prefill cost — the shrunk remainder becomes private.
        const auto& prompt = back.request->prompt_tokens;
        back.lease = prompt.empty() ? nullptr : prefix_cache->match(prompt);
        const std::int64_t still_shared =
            back.lease == nullptr
                ? 0
                : std::min(back.lease->matched_tokens(), back.shared);
        const std::int64_t lost = back.shared - still_shared;
        if (lost > 0) {
          clock += prefill_seconds(spec, policy, platform, lost, 1) /
                   bandwidth_factor();
          m_prefill_tokens.add(static_cast<std::uint64_t>(lost));
        }
        back.shared = still_shared;
      }
      charge_swap(back, platform.h2d_bw(), "swap_in", "serve.preempt");
      m_resumes.add();
      active.push_back(std::move(back));
    }
    return batch;
  }

  /// Monolithic prefill on admission: newcomers stall the engine for their
  /// unmatched prompt tokens (whole prompts with sharing off).
  void prefill_whole(const PrefillBatch& batch) {
    if (batch.sequences == 0) return;
    clock += prefill_seconds(spec, policy, platform, batch.tokens,
                             batch.sequences) /
             bandwidth_factor();
    m_prefill_tokens.add(static_cast<std::uint64_t>(batch.tokens));
    for (Active& a : active) {
      if (!a.decoding()) a.prefilled = a.request->prompt_len;
      publish(a);
    }
  }

  /// One engine step: chunked prefill piggybacked on a decode token for
  /// every fully-prefilled sequence, plus the integrity verify charge; then
  /// sequences that produced their last token complete.
  void step() {
    double prefill_cost = 0.0;
    if (config.prefill_chunk > 0) {
      std::int64_t chunk_tokens = 0;
      for (Active& a : active) {
        if (a.decoding()) continue;
        const std::int64_t take = std::min(
            config.prefill_chunk, a.request->prompt_len - a.prefilled);
        a.prefilled += take;
        chunk_tokens += take;
        if (a.decoding()) publish(a);
      }
      m_prefill_tokens.add(static_cast<std::uint64_t>(chunk_tokens));
      if (chunk_tokens > 0) {
        prefill_cost = prefill_seconds(spec, policy, platform, chunk_tokens, 1);
      }
    }

    std::int64_t decoding = 0;
    for (const Active& a : active) decoding += a.decoding();
    // Integrity verification re-checksums the step's fetched bytes (the
    // offloaded weight stream plus every decoding sequence's at-rest KV).
    double verify_cost = 0.0;
    if (verify_fraction > 0.0 && decoding > 0) {
      double verified = verify_weight_bytes;
      for (const Active& a : active) {
        if (!a.decoding()) continue;
        verified += static_cast<double>(a.kv_tokens()) *
                    static_cast<double>(
                        runtime::kv_bytes_per_token(spec.hidden, a.kv_bits));
      }
      verified *= verify_fraction;
      verify_cost = verified / (config.integrity.checksum_gbps * 1e9);
      verify_seconds += verify_cost;
      m_verify_total.add(static_cast<std::uint64_t>(decoding) + 1);
      m_verify_bytes.add(verified);
    }
    double step =
        (decode_step_seconds(spec, policy, platform, active) + prefill_cost +
         verify_cost) /
        bandwidth_factor();
    if (adaptive_ctl != nullptr) step *= adaptive_factor;
    LMO_CHECK_GT(step, 0.0);
    occupancy_integral += static_cast<double>(active.size()) * step;
    clock += step;
    m_tokens.add(static_cast<std::uint64_t>(decoding));
    if (adaptive_ctl != nullptr &&
        ++adaptive_window >= config.adaptive.window_steps) {
      fold_adaptive_window();
    }

    for (auto it = active.begin(); it != active.end();) {
      if (it->decoding()) {
        if (it->first_token_time < 0.0) it->first_token_time = clock;
        if (++it->generated >= it->request->gen_len) {
          close(*it, Exit::kCompleted);
          it = active.erase(it);
          continue;
        }
      }
      ++it;
    }
  }

  /// Deadline enforcement at step boundaries: abort overdue attempts; the
  /// client resubmits (fresh attempt clock) while retries remain — through
  /// admission control, which may refuse the retry — otherwise the request
  /// fails for good.
  void enforce_deadlines() {
    if (config.deadline_seconds <= 0.0) return;
    for (auto it = active.begin(); it != active.end();) {
      if (clock - it->submit <= config.deadline_seconds) {
        ++it;
        continue;
      }
      m_misses.add();
      Active overdue = std::move(*it);
      it = active.erase(it);
      if (overdue.attempt <= config.max_retries) {
        drop_kv(overdue);
        m_retries.add();
        enqueue(Queued{overdue.request, clock, overdue.attempt + 1,
                       overdue.preemptions});
      } else {
        close(overdue, Exit::kAborted);
      }
    }
  }

  /// Reconcile every surviving session's pool charge with what this step
  /// grew. A session the pool cannot cover preempts the lowest-priority
  /// other runner for room; with nobody left to evict it is shed.
  void reconcile_pool() {
    if (kv_pool == nullptr) return;
    for (std::size_t i = 0; i < active.size();) {
      if (reconcile_kv(active[i])) {
        ++i;
        continue;
      }
      const auto victim = pick_victim(&active[i], true);
      if (victim >= 0) {
        swap_out(static_cast<std::size_t>(victim), true);
        if (static_cast<std::size_t>(victim) < i) --i;
        continue;  // retry the same session
      }
      close(active[i], Exit::kShed);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  /// Run totals: each value lands in its registry gauge and in the returned
  /// ServeMetrics. Goodput and SLO attainment count only requests that
  /// completed within their deadline (attainment 0, not a fabricated 1, when
  /// none did).
  ServeMetrics finish() {
    LMO_CHECK_GT(clock, 0.0);
    std::int64_t good_tokens = 0;
    std::size_t slo_met = 0;
    for (const auto& outcome : metrics.outcomes) {
      if (outcome.completed && outcome.met_deadline) {
        good_tokens += outcome.tokens;
        ++slo_met;
      }
    }
    const auto gauge = [this](const char* name, double value) {
      reg.gauge(name).set(value);
      return value;
    };
    ServeMetrics& m = metrics;
    m.duration = gauge("serve.time.duration_seconds", clock);
    m.token_throughput = gauge("serve.throughput.tokens_per_second",
                               static_cast<double>(m_tokens.value()) / clock);
    m.request_throughput =
        gauge("serve.throughput.requests_per_second",
              static_cast<double>(m_completed.value()) / clock);
    m.goodput = gauge("serve.goodput.tokens_per_second",
                      static_cast<double>(good_tokens) / clock);
    m.request_goodput = gauge("serve.goodput.requests_per_second",
                              static_cast<double>(slo_met) / clock);
    m.slo_attainment =
        gauge("serve.slo.attainment",
              static_cast<double>(slo_met) /
                  static_cast<double>(metrics.outcomes.size()));
    m.mean_batch_occupancy =
        gauge("serve.batch.mean_occupancy", occupancy_integral / clock);
    m.preempt_swap_seconds = gauge("serve.preempt.swap_seconds", swap_seconds);
    m.kv_swap_bytes = gauge("serve.kv.swap_bytes", swap_bytes);
    m.verify_seconds = gauge("integrity.verify.seconds", verify_seconds);
    m.crash_recovery_seconds =
        gauge("serve.crash.recovery_seconds", crash_recovery_seconds);
    if (kv_pool != nullptr) {
      gauge("overload.kv_pool.peak_bytes",
            static_cast<double>(kv_pool->peak()));
      gauge("overload.kv_pool.capacity_bytes",
            static_cast<double>(kv_pool->capacity()));
    }
    m.completed = m_completed.value();
    m.deadline_misses = m_misses.value();
    m.retries = m_retries.value();
    m.preemptions = m_preempts.value();
    m.preempt_resumes = m_resumes.value();
    m.prefill_tokens = m_prefill_tokens.value();
    if (config.prefix_share) {
      m.prefix_hit_tokens = reg.counter("kvshare.hit_tokens").value();
      m.prefix_miss_tokens = reg.counter("kvshare.miss_tokens").value();
      m.prefix_evicted_blocks = reg.counter("kvshare.evicted_blocks").value();
      m.prefix_bytes_saved =
          static_cast<double>(reg.counter("kvshare.bytes_saved").value());
    }
    m.shed = m_shed.value();
    m.rejected = m_rejected.value();
    m.overload_escalations = m_escalations.value();
    m.overload_deescalations = m_deescalations.value();
    m.overload_preemptions = m_ovl_preempts.value();
    m.demoted_sessions = m_demoted.value();
    m.corruption_detected = m_corrupt_detected.value();
    m.corruption_undetected = m_corrupt_undetected.value();
    m.rollback_tokens = m_rollback_tokens.value();
    m.crashes = m_crashes.value();
    m.crash_rollback_tokens = m_crash_rollback.value();
    if (m_ttft.count() > 0) {
      m.ttft_p50 = m_ttft.percentile(0.5);
      m.ttft_p95 = m_ttft.percentile(0.95);
      m.latency_p50 = m_latency.percentile(0.5);
      m.latency_p95 = m_latency.percentile(0.95);
    }
    return std::move(metrics);
  }
};

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
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Outcomes, predicted costs and retries are indexed by request id.
    LMO_CHECK_EQ(requests[i].id, static_cast<std::int64_t>(i));
    if (i > 0) {
      LMO_CHECK_GE(requests[i].arrival_seconds,
                   requests[i - 1].arrival_seconds);
    }
  }

  telemetry::MetricsRegistry local_registry;
  Engine e(spec, policy, platform, requests, config,
           metrics_out != nullptr ? *metrics_out : local_registry, trace);
  while (e.busy()) {
    e.pull_arrivals();
    if (e.active.empty() && e.queue.empty() && e.suspended.empty()) {
      // Idle: jump to the next arrival (if everything left was shed at
      // enqueue, the trace is over).
      if (e.next_arrival >= requests.size()) break;
      e.clock = requests[e.next_arrival].arrival_seconds;
      e.pull_arrivals();
    }
    e.process_corruptions();
    e.process_crashes();
    if (e.ladder) e.run_ladder();

    // Preemption, then admission.
    if (config.preempt) e.preempt_for_waiters();
    PrefillBatch admitted;
    if (config.batching == Batching::kContinuous || e.active.empty()) {
      admitted = e.admit();
    }
    if (config.prefill_chunk == 0) e.prefill_whole(admitted);
    if (e.active.empty()) continue;  // everything pending was shed or deferred

    e.step();
    e.enforce_deadlines();
    e.reconcile_pool();
  }
  return e.finish();
}

}  // namespace lmo::serve
