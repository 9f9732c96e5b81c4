#include "lmo/runtime/generator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/model/memory.hpp"
#include "lmo/parallel/bundling.hpp"
#include "lmo/perfmodel/policy.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/status.hpp"
#include "lmo/util/validate.hpp"

namespace lmo::runtime {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void SamplingConfig::validate() const {
  LMO_CHECK_GE(temperature, 0.0);
  LMO_CHECK_GE(top_k, 0);
  LMO_CHECK_GE(top_p, 0.0);
  LMO_CHECK_LE(top_p, 1.0);
}

std::int64_t sample_token(const tensor::Tensor& logits,
                          const SamplingConfig& config,
                          util::Xoshiro256& rng) {
  config.validate();
  LMO_CHECK_EQ(logits.shape().rank(), 1u);
  if (config.greedy()) return tensor::argmax(logits);

  auto p = logits.f32();
  const std::size_t vocab = p.size();

  // Candidate set: all tokens, or the top-k by logit.
  std::vector<std::size_t> candidates(vocab);
  for (std::size_t i = 0; i < vocab; ++i) candidates[i] = i;
  if (config.top_k > 0 && static_cast<std::size_t>(config.top_k) < vocab) {
    std::partial_sort(candidates.begin(),
                      candidates.begin() + config.top_k, candidates.end(),
                      [&](std::size_t a, std::size_t b) {
                        return p[a] > p[b];
                      });
    candidates.resize(static_cast<std::size_t>(config.top_k));
  }

  // Temperature softmax over the candidates (numerically stable).
  double mx = -1e30;
  for (std::size_t i : candidates) {
    mx = std::max(mx, static_cast<double>(p[i]));
  }
  std::vector<double> weights;
  weights.reserve(candidates.size());
  double total = 0.0;
  for (std::size_t i : candidates) {
    const double w = std::exp((p[i] - mx) / config.temperature);
    weights.push_back(w);
    total += w;
  }

  // Nucleus (top-p) truncation: keep the smallest probability-sorted
  // prefix whose mass reaches top_p.
  if (config.top_p > 0.0 && config.top_p < 1.0) {
    std::vector<std::size_t> order(candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return weights[a] > weights[b];
    });
    double cumulative = 0.0;
    std::size_t keep = 0;
    while (keep < order.size()) {
      cumulative += weights[order[keep]];
      ++keep;
      if (cumulative >= config.top_p * total) break;
    }
    std::vector<std::size_t> kept_candidates;
    std::vector<double> kept_weights;
    kept_candidates.reserve(keep);
    kept_weights.reserve(keep);
    total = 0.0;
    for (std::size_t i = 0; i < keep; ++i) {
      kept_candidates.push_back(candidates[order[i]]);
      kept_weights.push_back(weights[order[i]]);
      total += weights[order[i]];
    }
    candidates = std::move(kept_candidates);
    weights = std::move(kept_weights);
  }

  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return static_cast<std::int64_t>(candidates[i]);
  }
  return static_cast<std::int64_t>(candidates.back());
}

void RuntimeConfig::validate() const {
  spec.validate();
  sampling.validate();
  recovery.validate();
  adaptive.validate();
  integrity.validate();
  util::Validate("RuntimeConfig", [this](util::Validator& v) {
    v.ge("device_layers", device_layers, 0)
        .le("device_layers", device_layers, spec.num_layers);
    v.ge("disk_layers", disk_layers, 0)
        .le("disk_layers", disk_layers, spec.num_layers);
    v.require("disk_layers", device_layers + disk_layers <= spec.num_layers,
              "device_layers + disk_layers must not exceed num_layers");
    if (disk_layers > 0) {
      v.require("disk_capacity", disk_capacity > 0,
                "disk layers need a spill store (set disk_capacity)");
    }
    v.gt("spill_block_bytes", spill_block_bytes, 0);
    v.require("weight_bits",
              weight_bits == 16 || weight_bits == 8 || weight_bits == 4,
              "must be 16, 8 or 4");
    v.require("kv_bits", kv_bits == 16 || kv_bits == 8 || kv_bits == 4,
              "must be 16, 8 or 4");
    v.gt("quant_group", quant_group, 0);
    v.gt("device_capacity", device_capacity, 0);
    v.gt("host_capacity", host_capacity, 0);
    v.gt("window_tokens", window_tokens, 0);
    v.gt("kv_block_tokens", kv_block_tokens, 0);
    v.ge("prefetch_threads", prefetch_threads, 0);
    v.ge("compute_threads", compute_threads, 0);
    if (prefix_share) {
      v.require("kv_flavor", kv_flavor != KVFlavor::kWindow,
                "prefix sharing reuses whole blocks; a window cache drops "
                "them");
    }
  });
}

void RuntimeConfig::apply_policy(const perfmodel::Policy& policy) {
  const double layers = static_cast<double>(spec.num_layers);
  device_layers = static_cast<std::int64_t>(policy.weights_on_gpu * layers);
  disk_layers = std::min<std::int64_t>(
      spec.num_layers - device_layers,
      static_cast<std::int64_t>(
          std::ceil(policy.weights_on_disk * layers - 1e-9)));
  weight_bits = policy.weight_bits;
}

Generator::Generator(const RuntimeConfig& config)
    : Generator(config, SpillStoreFactory{}) {}

Generator::Generator(const RuntimeConfig& config,
                     SpillStoreFactory spill_factory)
    : config_(config), sampling_rng_(config.sampling.seed) {
  config_.validate();
  device_pool_ =
      std::make_unique<MemoryPool>("device", config.device_capacity);
  host_pool_ = std::make_unique<MemoryPool>("host", config.host_capacity);
  manager_ = std::make_unique<OffloadManager>(
      *device_pool_, *host_pool_, config.weight_bits, config.quant_group);
  manager_->set_recovery(config.recovery);
  integrity_ = std::make_unique<integrity::ChecksumRegistry>(
      config_.integrity, &manager_->metrics());
  // Weights fingerprint at registration time, so the registry must be
  // wired before the transformer constructs (and registers) its tensors.
  manager_->set_integrity(integrity_.get());
  if (config_.disk_capacity > 0) {
    store::StoreConfig sc;
    sc.block_bytes = config_.spill_block_bytes;
    sc.capacity_bytes = config_.disk_capacity;
    if (spill_factory) {
      // The recovery supervisor builds the store: journaled backend,
      // replayed free list, recovered keyed entries. Metrics still land in
      // this generator's registry.
      spill_store_ = spill_factory(sc, manager_->metrics());
      LMO_CHECK_MSG(spill_store_ != nullptr,
                    "spill-store factory returned null");
      LMO_CHECK_EQ(spill_store_->config().block_bytes, sc.block_bytes);
    } else {
      std::unique_ptr<store::StorageBackend> backend;
      if (config_.spill_path.empty()) {
        backend = std::make_unique<store::MemoryBackend>(sc.block_bytes);
      } else {
        backend = std::make_unique<store::FileBackend>(config_.spill_path,
                                                       sc.block_bytes);
      }
      spill_store_ = std::make_unique<store::BlockStore>(
          std::move(backend), sc, &manager_->metrics());
    }
    // Attach before the transformer registers weights: kDisk registrations
    // and degradation-ladder spills need the store.
    manager_->attach_store(spill_store_.get());
  }
  if (config.prefetch_threads > 0) {
    prefetch_pool_ =
        std::make_unique<parallel::ThreadPool>(config.prefetch_threads);
  }
  transformer_ = std::make_unique<Transformer>(config.spec, *manager_,
                                               config.device_layers,
                                               config.seed, config.disk_layers);
  const int lanes =
      config.compute_threads > 0
          ? config.compute_threads
          : std::max(1, static_cast<int>(std::thread::hardware_concurrency()) -
                            1);
  if (lanes > 1) {
    compute_pool_ = std::make_unique<parallel::ThreadPool>(lanes - 1);
    transformer_->set_compute_pool(compute_pool_.get());
  }
  KVBlockPoolConfig blocks;
  blocks.block_tokens = config_.kv_block_tokens;
  blocks.hidden = config_.spec.hidden;
  blocks.bits = config_.kv_bits;
  blocks.group_size = config_.quant_group;
  kv_blocks_ = std::make_unique<KVBlockPool>(blocks, host_pool_.get());
  if (config_.prefix_share) {
    prefix_cache_ = std::make_unique<kvshare::PrefixCache>(
        *kv_blocks_, config_.spec.num_layers, &manager_->metrics(),
        integrity_.get());
  }
  if (spill_store_ != nullptr) {
    // Host-pressure relief, registered after the prefix cache so the
    // cheaper citizen fires first: evicting unpinned shared KV (merely
    // recomputable) is preferred over demoting weight shards to disk
    // (every later fetch pays the disk read).
    host_relief_id_ = host_pool_->add_pressure_callback(
        [m = manager_.get()](overload::PressureLevel,
                             std::size_t bytes_needed) {
          return m->demote_host_to_disk(bytes_needed);
        });
  }
}

Generator::~Generator() {
  if (host_relief_id_ >= 0) {
    host_pool_->remove_pressure_callback(host_relief_id_);
  }
}

SequenceCache Generator::make_sequence_cache() {
  const std::int64_t window =
      config_.kv_flavor == KVFlavor::kWindow ? config_.window_tokens : 0;
  // A prefix-sharing session may publish its blocks, which the prefix
  // cache fingerprints itself. A window cache's rows cannot be repaired:
  // re-prefilling the history under a window is not the incremental
  // decode that built them. Neither carries per-row checks.
  const RowChecks checks = config_.prefix_share || window > 0
                               ? RowChecks::kOff
                               : RowChecks::kOn;
  SequenceCache cache;
  cache.reserve(static_cast<std::size_t>(config_.spec.num_layers));
  for (std::int64_t layer = 0; layer < config_.spec.num_layers; ++layer) {
    cache.emplace_back(*kv_blocks_, window, checks);
    if (config_.integrity.enabled() && checks == RowChecks::kOn) {
      cache.back().set_integrity(integrity_.get(),
                                 "kv.layer" + std::to_string(layer));
    }
  }
  return cache;
}

void Generator::build_session_caches(Session& session,
                                     std::vector<std::int64_t>& matched) {
  auto& trace = telemetry::TraceRecorder::global();
  session.cache_ptrs.clear();
  session.leases.clear();
  session.caches.clear();
  matched.assign(session.prompts.size(), 0);
  session.caches.reserve(session.prompts.size());
  for (std::size_t s = 0; s < session.prompts.size(); ++s) {
    LMO_CHECK(!session.prompts[s].empty());
    std::shared_ptr<kvshare::PrefixLease> lease;
    if (prefix_cache_ != nullptr) {
      telemetry::ScopedSpan match_span(trace, "prefix_match", "kvshare");
      lease = prefix_cache_->match(session.prompts[s]);
    }
    if (lease == nullptr) {
      session.caches.push_back(make_sequence_cache());
      continue;
    }
    // Start every layer from the matched chain's blocks; the lease keeps
    // the chain pinned for as long as the session uses it.
    matched[s] = lease->matched_tokens();
    SequenceCache cache;
    for (std::int64_t layer = 0; layer < config_.spec.num_layers; ++layer) {
      cache.emplace_back(*lease, layer);
    }
    session.caches.push_back(std::move(cache));
    session.leases.push_back(std::move(lease));
  }
  for (auto& c : session.caches) session.cache_ptrs.push_back(&c);
}

void Generator::repair_session_caches() {
  LMO_CHECK(session_ != nullptr);
  Session& session = *session_;
  integrity_->note_repair(integrity::RepairKind::kRecompute);
  auto& trace = telemetry::TraceRecorder::global();
  telemetry::ScopedSpan span(trace, "repair.recompute", "integrity");

  // Drop every (possibly corrupt) cache and lease, then recompute the KV
  // state from the token history. The prefix re-match may now skip fewer
  // blocks than the original (quarantine detaches corrupt chains); the
  // replay covers whatever the match no longer does.
  std::vector<std::int64_t> matched;
  build_session_caches(session, matched);

  std::vector<tensor::Tensor> states;
  states.reserve(session.prompts.size());
  for (std::size_t s = 0; s < session.prompts.size(); ++s) {
    std::vector<std::int64_t> replay(
        session.prompts[s].begin() +
            static_cast<std::ptrdiff_t>(matched[s]),
        session.prompts[s].end());
    // All produced tokens except the pending `next` are already embedded
    // in a healthy cache; re-prefilling them is bit-identical to the
    // incremental decode that built them (same kernels, same quantizer).
    const std::vector<std::int64_t>& produced = session.tokens[s];
    if (!produced.empty()) {
      replay.insert(replay.end(), produced.begin(), produced.end() - 1);
    }
    states.push_back(transformer_->embed(replay));
  }
  transformer_->forward(states, session.cache_ptrs, prefetch_pool_.get());
  // The replay's logits are discarded: their tokens were already sampled,
  // and drawing again would advance the sampling RNG off the clean path.
}

std::shared_ptr<kvshare::PrefixLease> Generator::publish_prefix(
    const std::vector<std::int64_t>& prompt, const SequenceCache& cache) {
  return prefix_cache_->insert(prompt, [&](std::int64_t token_offset) {
    std::vector<std::int64_t> blocks;
    for (const KVCache& layer : cache) {
      blocks.push_back(layer.block_table()[static_cast<std::size_t>(
          token_offset / config_.kv_block_tokens)]);
    }
    return blocks;
  });
}

void Generator::start_adaptive(std::size_t batch, std::int64_t prompt_len,
                               std::int64_t gen_len) {
  auto& trace = telemetry::TraceRecorder::global();
  if (!trace.enabled()) {
    trace.enable();
    adaptive_owns_trace_ = true;
  }
  trace_events_seen_ = trace.event_count();
  adaptive_h2d_seen_ = manager_->stats().bytes_host_to_device;
  adaptive_steps_ = 0;

  // Believed Algorithm-3 inputs at this model's scale, mirroring
  // core::LMOffload::compute_graph / io_volumes. The controller calibrates
  // the copy bandwidth and compute scaling from measurements, so these
  // only have to be plausible, not right.
  parallel::SearchInput input;
  model::AttentionGraphParams gp;
  gp.hidden = config_.spec.hidden;
  gp.seq_len = prompt_len + gen_len / 2;
  gp.batch = static_cast<std::int64_t>(batch);
  gp.num_batches = 1;
  gp.kv_bits = config_.kv_bits;
  input.compute_graph = model::build_attention_graph(gp);
  parallel::bundle_small_ops(input.compute_graph);

  const double host_layers = static_cast<double>(
      config_.spec.num_layers - config_.device_layers);
  input.io_bytes[parallel::kLoadWeight] =
      model::layer_weight_bytes(config_.spec, config_.weight_bits) *
      host_layers;
  // Disk-tier layers additionally cross disk→CPU before the H2D hop, so
  // the search reserves staging threads for the disk-load task.
  input.disk_bytes =
      model::layer_weight_bytes(config_.spec, config_.weight_bits) *
      static_cast<double>(config_.disk_layers);
  const double act_bytes = static_cast<double>(batch) *
                           static_cast<double>(config_.spec.hidden) *
                           sizeof(float);
  input.io_bytes[parallel::kStoreActivation] = act_bytes;
  input.io_bytes[parallel::kLoadActivation] = act_bytes;
  input.io_bytes[parallel::kStoreCache] =
      static_cast<double>(batch) *
      static_cast<double>(config_.spec.num_layers) * 2.0 *
      static_cast<double>(config_.spec.hidden) *
      (static_cast<double>(config_.kv_bits) / 8.0);

  input.platform = hw::Platform::rtx4090_desktop();
  const int cores = std::max(
      8, static_cast<int>(std::thread::hardware_concurrency()));
  input.platform.cpu.cores = cores;
  input.platform.cpu.hw_threads = 2 * cores;
  input.max_threads = cores;

  adaptive_ = std::make_unique<parallel::AdaptiveController>(
      std::move(input), config_.adaptive, &manager_->metrics(), &trace);
}

void Generator::fold_adaptive_window() {
  auto& trace = telemetry::TraceRecorder::global();
  const std::vector<telemetry::TraceEvent> events = trace.events();

  parallel::WindowSample sample;
  sample.steps = adaptive_steps_;
  // Pair B/E spans per (tid, name) from the cursor on; a per-key stack
  // handles nested same-name spans (layer loops re-enter "compute").
  std::map<std::pair<int, std::string>, std::vector<double>> open;
  const auto fold = [&sample](const std::string& name, double dur_us) {
    if (name == "compute") {
      sample.compute_seconds += dur_us * 1e-6;
      return;
    }
    for (std::size_t i = 0; i < parallel::kNumIoTasks; ++i) {
      if (name == parallel::kIoTaskNames[i]) {
        sample.io_seconds[i] += dur_us * 1e-6;
        return;
      }
    }
  };
  for (std::size_t e = trace_events_seen_; e < events.size(); ++e) {
    const telemetry::TraceEvent& ev = events[e];
    if (ev.phase == 'B') {
      open[{ev.tid, ev.name}].push_back(ev.ts_us);
    } else if (ev.phase == 'E') {
      auto it = open.find({ev.tid, ev.name});
      if (it == open.end() || it->second.empty()) continue;
      fold(ev.name, ev.ts_us - it->second.back());
      it->second.pop_back();
    } else if (ev.phase == 'X') {
      fold(ev.name, ev.dur_us);
    }
  }
  trace_events_seen_ = events.size();

  // Only the weight stream has measured bytes (the OffloadManager's H2D
  // counter); the other tasks keep zero bytes so they feed the measured
  // t_gen but not the bandwidth calibration.
  const double h2d = manager_->stats().bytes_host_to_device;
  sample.io_bytes[parallel::kLoadWeight] =
      std::max(0.0, h2d - adaptive_h2d_seen_);
  adaptive_h2d_seen_ = h2d;

  const parallel::ReplanDecision decision = adaptive_->observe(sample);
  adaptive_steps_ = 0;
  if (decision.action == parallel::ReplanAction::kHold) return;

  // Apply between steps only: no forward pass is in flight, so the
  // shrink-side drain inside resize() returns immediately and token
  // numerics are untouched (compute is bit-identical at any lane count).
  // The plan's intra-op degree counts this thread as a lane; the pool
  // keeps at least one worker.
  if (compute_pool_ != nullptr) {
    compute_pool_->resize(std::max(1, decision.plan.intra_op_compute - 1));
  }
  if (prefetch_pool_ != nullptr) {
    prefetch_pool_->resize(
        std::max(1, decision.plan.io_threads[parallel::kLoadWeight]));
  }
}

void Generator::stop_adaptive() {
  adaptive_.reset();
  adaptive_steps_ = 0;
  if (adaptive_owns_trace_) {
    telemetry::TraceRecorder::global().disable();
    adaptive_owns_trace_ = false;
  }
}

void Generator::begin(const std::vector<std::vector<std::int64_t>>& prompts,
                      std::int64_t gen_len) {
  LMO_CHECK_MSG(session_ == nullptr, "a generation session is already active");
  LMO_CHECK(!prompts.empty());
  LMO_CHECK_GT(gen_len, 0);

  auto session = std::make_unique<Session>();
  session->prompts = prompts;
  session->gen_len = gen_len;
  session->tokens.resize(prompts.size());
  session->next.resize(prompts.size());

  // Per-sequence caches (charged to the host pool, where offloaded caches
  // live in the paper's design). With prefix sharing on, each prompt is
  // matched against the radix tree first and its caches come pre-seeded
  // with the shared chain — prefill then runs only over the suffix.
  auto& trace = telemetry::TraceRecorder::global();
  std::vector<std::int64_t> matched;
  build_session_caches(*session, matched);

  // ---- prefill: all unmatched prompt tokens at once, layer-outer over
  // the batch. A DataCorruption (weights refetch exhausted, KV row or
  // shared block failed verification) discards the partial caches and
  // re-runs prefill from scratch, up to the configured repair budget.
  // Sampling happens only on the successful attempt, so the RNG stream
  // matches a clean run.
  const auto start = Clock::now();
  for (int attempt = 0;; ++attempt) {
    try {
      if (attempt > 0) {
        integrity_->note_repair(integrity::RepairKind::kRecompute);
        telemetry::ScopedSpan repair_span(trace, "repair.recompute",
                                          "integrity");
        build_session_caches(*session, matched);
      }
      telemetry::ScopedSpan prefill_span(trace, "prefill", "generate");
      std::vector<tensor::Tensor> states;
      states.reserve(prompts.size());
      for (std::size_t s = 0; s < prompts.size(); ++s) {
        states.push_back(transformer_->embed(std::span<const std::int64_t>(
            prompts[s]).subspan(static_cast<std::size_t>(matched[s]))));
      }
      transformer_->forward(states, session->cache_ptrs,
                            prefetch_pool_.get());
      telemetry::ScopedSpan out_span(trace, "store_activation", "decode");
      sample_next(transformer_->logits(states), *session);
      break;
    } catch (const util::DataCorruption&) {
      if (!config_.integrity.enabled() ||
          attempt >= config_.integrity.max_repair_attempts) {
        throw;
      }
    }
  }
  if (prefix_cache_ != nullptr) {
    // Publish every prompt's full-block KV rows so later requests (and
    // later sequences in this batch via match-before-publish ordering:
    // matches happened above, so publication never perturbs this batch)
    // can skip their shared prefixes.
    telemetry::ScopedSpan insert_span(trace, "prefix_insert", "kvshare");
    for (std::size_t s = 0; s < prompts.size(); ++s) {
      auto lease = publish_prefix(prompts[s], session->caches[s]);
      if (lease != nullptr) session->leases.push_back(std::move(lease));
    }
  }
  session->prefill_seconds = seconds_since(start);
  session->produced = 1;
  session_ = std::move(session);
  if (config_.adaptive.enabled) {
    std::size_t prompt_len = 0;
    for (const auto& p : prompts) {
      prompt_len = std::max(prompt_len, p.size());
    }
    start_adaptive(prompts.size(), static_cast<std::int64_t>(prompt_len),
                   gen_len);
  }
}

void Generator::sample_next(const tensor::Tensor& logits, Session& session) {
  // One token per sequence from the [B, vocab] logits rows, in batch
  // order so the sampling RNG stream does not depend on batching.
  for (std::size_t s = 0; s < session.next.size(); ++s) {
    const auto row = static_cast<std::int64_t>(s);
    session.next[s] = sample_token(
        tensor::slice_rows(logits, row, row + 1).reshaped({config_.spec.vocab}),
        config_.sampling, sampling_rng_);
    session.tokens[s].push_back(session.next[s]);
  }
}

std::int64_t Generator::step_index() const {
  LMO_CHECK_MSG(session_ != nullptr, "no active generation session");
  return session_->produced;
}

bool Generator::done() const {
  LMO_CHECK_MSG(session_ != nullptr, "no active generation session");
  return session_->produced >= session_->gen_len;
}

void Generator::step() {
  LMO_CHECK_MSG(session_ != nullptr, "no active generation session");
  LMO_CHECK_MSG(!done(), "session already produced gen_len tokens");
  Session& session = *session_;

  auto& trace = telemetry::TraceRecorder::global();
  const auto start = Clock::now();
  // Decode one token, with the recompute rung of the repair ladder around
  // it: a DataCorruption rebuilds the session caches from token history
  // (no RNG advance) and retries the step, up to the repair budget.
  for (int attempt = 0;; ++attempt) {
    try {
      if (attempt > 0) repair_session_caches();
      telemetry::ScopedSpan step_span(trace, "decode_step", "generate");
      std::vector<tensor::Tensor> step_states;
      step_states.reserve(session.prompts.size());
      for (std::size_t s = 0; s < session.prompts.size(); ++s) {
        const std::int64_t token[] = {session.next[s]};
        step_states.push_back(transformer_->embed(token));
      }
      transformer_->forward(step_states, session.cache_ptrs,
                            prefetch_pool_.get());
      telemetry::ScopedSpan out_span(trace, "store_activation", "decode");
      sample_next(transformer_->logits(step_states), session);
      break;
    } catch (const util::DataCorruption&) {
      if (!config_.integrity.enabled() ||
          attempt >= config_.integrity.max_repair_attempts) {
        throw;
      }
    }
  }
  session.decode_seconds += seconds_since(start);
  ++session.produced;
  if (adaptive_ != nullptr &&
      ++adaptive_steps_ >= config_.adaptive.window_steps) {
    fold_adaptive_window();
  }
}

GenerationResult Generator::finish() {
  LMO_CHECK_MSG(session_ != nullptr, "no active generation session");
  LMO_CHECK_MSG(done(), "finish() requires a completed session");
  Session& session = *session_;

  GenerationResult result;
  result.tokens = std::move(session.tokens);
  result.prefill_seconds = session.prefill_seconds;
  result.decode_seconds = session.decode_seconds;
  const double total = result.prefill_seconds + result.decode_seconds;
  result.tokens_per_second = static_cast<double>(session.gen_len) *
                             static_cast<double>(session.prompts.size()) /
                             total;
  // The last step's forward left the next layer-0 prefetch in flight;
  // wait it out so the stats and the trace are final when they are read.
  manager_->quiesce();
  result.offload = manager_->stats();
  for (const SequenceCache& cache : session.caches) {
    for (const KVCache& layer : cache) {
      result.kv_quantize_seconds += layer.quantize_seconds();
      result.kv_dequantize_seconds += layer.dequantize_seconds();
      // Blocks the prefix cache or a fork also holds are theirs; only what
      // this sequence alone keeps resident counts against it.
      result.kv_stored_bytes += layer.private_bytes();
    }
  }
  result.device_peak_bytes = device_pool_->peak();
  result.host_peak_bytes = host_pool_->peak();
  session_.reset();
  stop_adaptive();
  return result;
}

GenerationResult Generator::generate(
    const std::vector<std::vector<std::int64_t>>& prompts,
    std::int64_t gen_len) {
  begin(prompts, gen_len);
  while (!done()) step();
  return finish();
}

}  // namespace lmo::runtime
