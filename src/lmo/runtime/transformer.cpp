#include "lmo/runtime/transformer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

#include "lmo/telemetry/trace.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {

using tensor::Tensor;

namespace {

// Spans carry the six Algorithm-1 task names so a runtime trace lines up
// with the simulator's predicted timeline (see docs/observability.md for
// the exact operation ↔ task mapping).
constexpr const char* kSpanCategory = "decode";

telemetry::ScopedSpan task_span(const char* name) {
  return telemetry::ScopedSpan(telemetry::TraceRecorder::global(), name,
                               kSpanCategory);
}

// Every per-layer weight, in LayerWeights order. fetch_layer and the
// next-layer prefetch walk this one list, so a prefetch stages exactly
// what the following fetch consumes.
constexpr const char* kLayerWeights[] = {
    "wq", "wk", "wv", "wo", "w1", "w2",
    "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta"};

// Fork-join work floors (and Transformer::kAttentionSplitWork). Below
// them, waking the compute lanes costs more than the split saves: a
// decode step's 8-row GEMMs (6–20 µs) and a short decode group's attention
// stay on the calling thread, while prefill's 64-row GEMMs, its causal
// attention, a decode group's attention over a few hundred visible rows
// and every GELU/SiLU over a decode group's MLP rows split.
constexpr std::int64_t kGemmSplitWork = std::int64_t{1} << 20;  // m·k·n
constexpr std::int64_t kActivationSplitElems = std::int64_t{1} << 12;
constexpr std::int64_t kPanelCols = 8;  // GEMM column split granularity

// orow[d] += weight * vrow[d] four lanes at a time. Each d is its own
// multiply and add, exactly as the scalar loop rounds them; the explicit
// vectors only keep -O2 builds from leaving the loop scalar.
void add_scaled_row(float* orow, const float* vrow, float weight,
                    std::int64_t n) {
  using v4sf = float __attribute__((vector_size(16)));
  const v4sf w = {weight, weight, weight, weight};
  std::int64_t d = 0;
  for (; d + 4 <= n; d += 4) {
    v4sf o, v;
    std::memcpy(&o, orow + d, sizeof(o));
    std::memcpy(&v, vrow + d, sizeof(v));
    o += w * v;
    std::memcpy(orow + d, &o, sizeof(o));
  }
  for (; d < n; ++d) orow[d] += weight * vrow[d];
}

}  // namespace

std::string Transformer::weight_name(std::int64_t layer,
                                     const std::string& kind) {
  return "layer" + std::to_string(layer) + "." + kind;
}

Transformer::Transformer(const model::ModelSpec& spec,
                         OffloadManager& manager, std::int64_t device_layers,
                         std::uint64_t seed, std::int64_t disk_layers)
    : spec_(spec), manager_(manager) {
  spec.validate();
  LMO_CHECK_GE(device_layers, 0);
  LMO_CHECK_GE(disk_layers, 0);
  LMO_CHECK_LE(device_layers + disk_layers, spec.num_layers);

  util::Xoshiro256 rng(seed);
  const std::int64_t h = spec.hidden;
  const std::int64_t h2 = spec.mlp_hidden;
  const float stddev = 0.4f / std::sqrt(static_cast<float>(h));

  // The embedding table is always device-resident (it is touched every
  // token); registering it charges the device pool.
  manager_.register_tensor("embedding", Tensor::normal({spec.vocab, h}, rng,
                                                       1.0f),
                           Tier::kDevice);
  embedding_ = manager_.fetch("embedding");
  lnf_gamma_ = Tensor::full({h}, 1.0f);
  lnf_beta_ = Tensor::zeros({h});

  for (std::int64_t layer = 0; layer < spec.num_layers; ++layer) {
    // Hottest layers on the device, coldest at the back of the model on
    // disk — mirroring the policy search's weights_on_gpu/_on_disk split.
    const Tier tier = layer < device_layers ? Tier::kDevice
                      : layer >= spec.num_layers - disk_layers
                          ? Tier::kDisk
                          : Tier::kHost;
    auto reg = [&](const std::string& kind, Tensor value) {
      manager_.register_tensor(weight_name(layer, kind), std::move(value),
                               tier);
    };
    reg("wq", Tensor::normal({h, h}, rng, stddev));
    reg("wk", Tensor::normal({h, h}, rng, stddev));
    reg("wv", Tensor::normal({h, h}, rng, stddev));
    reg("wo", Tensor::normal({h, h}, rng, stddev));
    reg("w1", Tensor::normal({h2, h}, rng, stddev));
    reg("w2", Tensor::normal({h, h2}, rng, stddev));
    reg("ln1_gamma", Tensor::full({h}, 1.0f));
    reg("ln1_beta", Tensor::zeros({h}));
    reg("ln2_gamma", Tensor::full({h}, 1.0f));
    reg("ln2_beta", Tensor::zeros({h}));
  }
}

SequenceCache Transformer::make_cache(KVBlockPool& pool) const {
  LMO_CHECK_EQ(pool.hidden(), spec_.hidden);
  SequenceCache cache;
  cache.reserve(static_cast<std::size_t>(spec_.num_layers));
  for (std::int64_t layer = 0; layer < spec_.num_layers; ++layer) {
    cache.emplace_back(pool);
  }
  return cache;
}

Tensor Transformer::embed(std::span<const std::int64_t> tokens) {
  LMO_CHECK(!tokens.empty());
  const auto span = task_span("load_activation");
  const std::int64_t h = spec_.hidden;
  Tensor out = Tensor::zeros({static_cast<std::int64_t>(tokens.size()), h});
  auto dst = out.f32();
  auto src = embedding_.f32();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::int64_t token = tokens[i];
    LMO_CHECK_GE(token, 0);
    LMO_CHECK_LT(token, spec_.vocab);
    std::memcpy(dst.data() + static_cast<std::int64_t>(i) * h,
                src.data() + token * h,
                static_cast<std::size_t>(h) * sizeof(float));
  }
  return out;
}

Transformer::LayerWeights Transformer::fetch_layer(std::int64_t layer) {
  LayerWeights w;
  Tensor* const slots[] = {&w.wq,        &w.wk,       &w.wv,
                           &w.wo,        &w.w1,       &w.w2,
                           &w.ln1_gamma, &w.ln1_beta, &w.ln2_gamma,
                           &w.ln2_beta};
  static_assert(std::size(slots) == std::size(kLayerWeights));
  for (std::size_t i = 0; i < std::size(slots); ++i) {
    *slots[i] = manager_.fetch(weight_name(layer, kLayerWeights[i]));
  }
  return w;
}

int Transformer::prepare_lanes() {
  const int lanes = compute_pool_ == nullptr ? 1 : compute_pool_->size() + 1;
  if (lanes_.size() < static_cast<std::size_t>(lanes)) {
    lanes_.resize(static_cast<std::size_t>(lanes));
  }
  const auto gemm = static_cast<std::size_t>(tensor::matmul_nt_scratch_floats(
      std::max(spec_.hidden, spec_.mlp_hidden)));
  for (LaneScratch& lane : lanes_) {
    if (lane.gemm.size() < gemm) lane.gemm.resize(gemm);
  }
  return lanes;
}

Tensor Transformer::matmul(const Tensor& a, const Tensor& b, int lanes) {
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[0];
  if (lanes <= 1 || m * k * n < kGemmSplitWork) {
    return tensor::matmul_nt_blocked(a, b);
  }
  // Contiguous runs of 8-column panels, a few per lane so a lane that
  // wakes late still finds work.
  Tensor c = Tensor::zeros({m, n});
  const std::int64_t panels = (n + kPanelCols - 1) / kPanelCols;
  const std::int64_t chunks = std::min<std::int64_t>(panels, 2 * lanes);
  compute_pool_->parallel_for(
      chunks,
      [&](std::int64_t chunk, int lane) {
        const std::int64_t begin = panels * chunk / chunks * kPanelCols;
        const std::int64_t end =
            std::min(n, panels * (chunk + 1) / chunks * kPanelCols);
        tensor::matmul_nt_cols(a, b, c, begin, end,
                               lanes_[static_cast<std::size_t>(lane)].gemm);
      },
      lanes);
  return c;
}

void Transformer::activate(Tensor& x, int lanes) {
  void (*const fn)(std::span<float>) =
      spec_.activation == model::Activation::kRelu   ? tensor::relu_inplace
      : spec_.activation == model::Activation::kSilu ? tensor::silu_inplace
                                                     : tensor::gelu_inplace;
  const std::span<float> all = x.f32();
  const auto n = static_cast<std::int64_t>(all.size());
  if (lanes <= 1 || n < kActivationSplitElems) {
    fn(all);
    return;
  }
  // One range per lane, on 64-byte boundaries.
  constexpr std::int64_t kAlign = 16;
  const std::int64_t per =
      ((n + lanes - 1) / lanes + kAlign - 1) / kAlign * kAlign;
  compute_pool_->parallel_for(
      (n + per - 1) / per,
      [&](std::int64_t chunk, int) {
        const std::int64_t begin = chunk * per;
        fn(all.subspan(static_cast<std::size_t>(begin),
                       static_cast<std::size_t>(std::min(per, n - begin))));
      },
      lanes);
}

void Transformer::attention(const float* q, const RowGroup& group,
                            const std::vector<KVViews>& views, float* out,
                            int lanes) {
  const std::int64_t h = spec_.hidden;
  const std::int64_t heads = spec_.num_heads;
  const std::int64_t hd = spec_.head_dim();
  const std::size_t members = group.rows.size();

  std::int64_t work = 0;
  std::int64_t max_total = 0;
  bool quantized = false;
  for (std::size_t m = 0; m < members; ++m) {
    const auto total = static_cast<std::int64_t>(views[m].k.rows.size());
    work += group.rows[m] * total * h;
    max_total = std::max(max_total, total);
    quantized = quantized || views[m].k.format.quantized();
  }
  const bool split = lanes > 1 && work >= kAttentionSplitWork;
  // Tasks of (sequence, head, query-row block): a prefill sequence's rows
  // split in blocks, at least two tasks per lane where its rows allow, so
  // lanes stay busy when heads do not divide evenly; a decode sequence's
  // one row makes one task per head.
  tasks_.clear();
  std::int64_t row0 = 0;
  for (std::size_t m = 0; m < members; ++m) {
    const std::int64_t t_new = group.rows[m];
    const std::int64_t blocks =
        split ? std::min<std::int64_t>(
                    t_new, std::max<std::int64_t>(
                               1, (2 * lanes + heads - 1) / heads))
              : 1;
    for (std::int64_t head = 0; head < heads; ++head) {
      for (std::int64_t b = 0; b < blocks; ++b) {
        tasks_.push_back({m, row0, head, t_new * b / blocks,
                          t_new * (b + 1) / blocks});
      }
    }
    row0 += t_new;
  }
  // Decoded head slices: at most 2 · visible · head_dim floats a lane.
  const auto rows = static_cast<std::size_t>(max_total);
  const std::size_t slices = quantized ? rows * static_cast<std::size_t>(hd)
                                       : 0;
  for (LaneScratch& lane : lanes_) {
    if (lane.scores.size() < rows) lane.scores.resize(rows);
    if (lane.k.size() < slices) {
      lane.k.resize(slices);
      lane.v.resize(slices);
    }
    lane.dequantize_s.assign(members, 0.0);
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // Query rows [begin, end) of one head: scores = q_h · K_hᵀ · scale with
  // causal masking, softmax, context = scores · V_h. `key(j)` and
  // `value(j)` are row j's head slice. Every (head, row) is independent
  // and writes its own output, so any split across lanes is bit-identical
  // to the serial order.
  const auto rows_of_head = [&](const AttentionTask& task, std::int64_t total,
                                float* scores, auto key, auto value) {
    const std::int64_t t_new = group.rows[task.member];
    const std::int64_t off = task.head * hd;
    const float* qm = q + task.row0 * h;
    float* om = out + task.row0 * h;
    for (std::int64_t i = task.begin; i < task.end; ++i) {
      // Causal horizon in the cache's visible rows: everything up to and
      // including token i's own row (the last t_new rows are the new
      // tokens). Equivalent to prior+i+1 for exact caches, and correct
      // under a sliding window, where total < prior + t_new.
      const std::int64_t visible = total - (t_new - 1 - i);
      if (visible <= 0) continue;  // fully evicted context (tiny window)
      const float* qrow = qm + i * h + off;
      float mx = -1e30f;
      for (std::int64_t j = 0; j < visible; ++j) {
        const float* krow = key(j);
        float dot = 0.0f;
        for (std::int64_t d = 0; d < hd; ++d) dot += qrow[d] * krow[d];
        scores[j] = dot * scale;
        mx = std::max(mx, dot * scale);
      }
      float sum = 0.0f;
      for (std::int64_t j = 0; j < visible; ++j) {
        scores[j] = std::exp(scores[j] - mx);
        sum += scores[j];
      }
      const float inv = 1.0f / sum;
      float* orow = om + i * h + off;
      for (std::int64_t j = 0; j < visible; ++j) {
        add_scaled_row(orow, value(j), scores[j] * inv, hd);
      }
    }
  };
  const auto run = [&](std::int64_t index, int lane_index) {
    const AttentionTask& task = tasks_[static_cast<std::size_t>(index)];
    LaneScratch& lane = lanes_[static_cast<std::size_t>(lane_index)];
    const KVViews& kv = views[task.member];
    const auto total = static_cast<std::int64_t>(kv.k.rows.size());
    const std::int64_t off = task.head * hd;
    if (!kv.k.format.quantized()) {
      rows_of_head(
          task, total, lane.scores.data(),
          [&](std::int64_t j) {
            return reinterpret_cast<const float*>(kv.k.rows[j]) + off;
          },
          [&](std::int64_t j) {
            return reinterpret_cast<const float*>(kv.v.rows[j]) + off;
          });
      return;
    }
    // Decode this head's slice of the rows the task's last query row sees,
    // timed once for the whole task.
    const std::int64_t horizon =
        std::max<std::int64_t>(0, total - group.rows[task.member] + task.end);
    const auto start = std::chrono::steady_clock::now();
    const auto seen = static_cast<std::size_t>(horizon);
    kv.k.format.decode(std::span(kv.k.rows).first(seen), off, hd,
                       lane.k.data());
    kv.v.format.decode(std::span(kv.v.rows).first(seen), off, hd,
                       lane.v.data());
    lane.dequantize_s[task.member] +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    rows_of_head(
        task, total, lane.scores.data(),
        [&](std::int64_t j) { return lane.k.data() + j * hd; },
        [&](std::int64_t j) { return lane.v.data() + j * hd; });
  };

  const auto span = task_span("compute");
  const auto n = static_cast<std::int64_t>(tasks_.size());
  if (!split) {
    for (std::int64_t i = 0; i < n; ++i) run(i, 0);
    return;
  }
  compute_pool_->parallel_for(n, run, lanes);
}

void Transformer::layer_forward(const LayerWeights& w, std::int64_t layer,
                                RowGroup& group,
                                std::vector<SequenceCache*>& caches,
                                std::vector<KVViews>& views, int lanes) {
  const std::int64_t h = spec_.hidden;
  const std::int64_t rows = group.x.shape()[0];
  const std::size_t members = group.rows.size();
  const auto cache_of = [&](std::size_t m) -> KVCache& {
    return (*caches[group.first + m])[static_cast<std::size_t>(layer)];
  };

  // Pre-LN attention block. q/k/v are scoped to it so they are freed
  // before the MLP allocates its [rows, mlp_hidden] buffers.
  Tensor attn = Tensor::zeros({rows, h});
  {
    // One GEMM per projection for the whole group.
    Tensor q, k, v;
    {
      const auto span = task_span("compute");
      const Tensor normed1 =
          tensor::layer_norm(group.x, w.ln1_gamma, w.ln1_beta);
      q = matmul(normed1, w.wq, lanes);
      k = matmul(normed1, w.wk, lanes);
      v = matmul(normed1, w.wv, lanes);
    }
    // Cache append and read per sequence, in batch order, on this thread
    // (fault draws and verification keep their order); then the group's
    // attention fans out.
    const std::span<const float> krows = std::as_const(k).f32();
    const std::span<const float> vrows = std::as_const(v).f32();
    const auto row = [h](std::span<const float> m, std::int64_t i) {
      return m.subspan(static_cast<std::size_t>(i * h),
                       static_cast<std::size_t>(h));
    };
    if (views.size() < members) views.resize(members);
    std::int64_t row0 = 0;
    for (std::size_t m = 0; m < members; ++m) {
      const std::int64_t t_new = group.rows[m];
      KVCache& cache = cache_of(m);
      {
        // Appended quantized at rest if enabled.
        const auto span = task_span("store_cache");
        for (std::int64_t i = row0; i < row0 + t_new; ++i) {
          cache.append(row(krows, i), row(vrows, i));
        }
      }
      {
        const auto span = task_span("load_cache");
        cache.read_rows(KVPlane::kKeys, views[m].k);  // prior + t_new rows
        cache.read_rows(KVPlane::kValues, views[m].v);
      }
      row0 += t_new;
    }
    attention(std::as_const(q).f32().data(), group, views,
              attn.f32().data(), lanes);
    for (std::size_t m = 0; m < members; ++m) {
      double seconds = 0.0;
      for (const LaneScratch& lane : lanes_) seconds += lane.dequantize_s[m];
      if (seconds > 0.0) cache_of(m).add_dequantize_seconds(seconds);
    }
  }

  // Output projection, residual and the pre-LN MLP block with the model
  // family's non-linearity.
  const auto span = task_span("compute");
  const Tensor mid = tensor::add(group.x, matmul(attn, w.wo, lanes));
  const Tensor normed2 = tensor::layer_norm(mid, w.ln2_gamma, w.ln2_beta);
  Tensor up = matmul(normed2, w.w1, lanes);
  activate(up, lanes);
  group.x = tensor::add(mid, matmul(up, w.w2, lanes));
}

void Transformer::forward(std::vector<Tensor>& states,
                          std::vector<SequenceCache*>& caches,
                          parallel::ThreadPool* prefetch) {
  LMO_CHECK_EQ(states.size(), caches.size());
  LMO_CHECK(!states.empty());

  // Stack consecutive sequences into row groups. The cap bounds the
  // group's activation footprint (rows × mlp_hidden floats per
  // intermediate) while still fitting the longest sequence alone.
  std::int64_t cap = 64;
  for (const Tensor& state : states) cap = std::max(cap, state.shape()[0]);
  std::vector<RowGroup> groups;
  std::int64_t group_rows = 0;
  for (std::size_t s = 0; s < states.size(); ++s) {
    LMO_CHECK_EQ(states[s].shape()[1], spec_.hidden);
    const std::int64_t t = states[s].shape()[0];
    if (groups.empty() || group_rows + t > cap) {
      groups.push_back(RowGroup{s, {}, {}});
      group_rows = 0;
    }
    groups.back().rows.push_back(t);
    group_rows += t;
  }
  for (RowGroup& group : groups) {
    if (group.rows.size() == 1) {
      group.x = std::move(states[group.first]);
      continue;
    }
    std::int64_t total = 0;
    for (std::int64_t t : group.rows) total += t;
    group.x = Tensor::zeros({total, spec_.hidden});
    std::byte* dst = group.x.raw().data();
    for (std::size_t m = 0; m < group.rows.size(); ++m) {
      const auto src = states[group.first + m].raw();
      std::memcpy(dst, src.data(), src.size());
      dst += src.size();
    }
  }

  std::vector<KVViews> views;
  const int lanes = prepare_lanes();
  for (std::int64_t layer = 0; layer < spec_.num_layers; ++layer) {
    if (prefetch != nullptr) {
      // Warm the next layer's host payloads concurrently with compute. The
      // walk wraps: the last layer stages layer 0 for the next forward
      // (the next decode step), so no step starts with a cold fetch. A
      // staged entry is charged to the device pool like any other and is
      // reclaimable by the degradation ladder.
      const std::int64_t next = (layer + 1) % spec_.num_layers;
      for (const char* kind : kLayerWeights) {
        (void)manager_.prefetch(weight_name(next, kind), *prefetch);
      }
    }
    const LayerWeights w = fetch_layer(layer);
    for (RowGroup& group : groups) {
      layer_forward(w, layer, group, caches, views, lanes);
    }
  }

  for (RowGroup& group : groups) {
    if (group.rows.size() == 1) {
      states[group.first] = std::move(group.x);
      continue;
    }
    std::int64_t row0 = 0;
    for (std::size_t m = 0; m < group.rows.size(); ++m) {
      states[group.first + m] =
          tensor::slice_rows(group.x, row0, row0 + group.rows[m]);
      row0 += group.rows[m];
    }
  }
}

Tensor Transformer::logits(const Tensor& state) {
  return logits(std::vector<Tensor>{state}).reshaped({spec_.vocab});
}

Tensor Transformer::logits(const std::vector<Tensor>& states) {
  LMO_CHECK(!states.empty());
  const std::int64_t h = spec_.hidden;
  Tensor last = Tensor::zeros({static_cast<std::int64_t>(states.size()), h});
  float* dst = last.f32().data();
  for (std::size_t b = 0; b < states.size(); ++b) {
    const Tensor& state = states[b];
    LMO_CHECK_EQ(state.shape()[1], h);
    std::memcpy(dst + static_cast<std::int64_t>(b) * h,
                state.f32().data() + (state.shape()[0] - 1) * h,
                static_cast<std::size_t>(h) * sizeof(float));
  }
  const Tensor normed = tensor::layer_norm(last, lnf_gamma_, lnf_beta_);
  return matmul(normed, embedding_, prepare_lanes());
}

}  // namespace lmo::runtime
