// A real (laptop-scale) pre-LayerNorm transformer executed through the
// offloading substrate: every layer's weights are fetched from the
// OffloadManager (possibly dequantized host payloads), the KV cache is a
// real block-table KVCache (possibly compressed at rest), and all math runs
// in f32 via
// lmo::tensor ops. The walk is layer-outer so one weight fetch serves every
// sequence in the batch — the same amortization the zig-zag block schedule
// exploits — and consecutive sequences are stacked into row groups so each
// weight is applied with one GEMM per group rather than once per sequence
// (FlexGen's batch amortization). The KV append and read stay per
// sequence; attention runs over the whole group, reading f32 cache rows in
// place and decoding only the head slice of a quantized row it needs.
//
// Trace spans (docs/observability.md): a `compute` span covers one row
// group's LayerNorm + QKV projections, and another its output projection +
// MLP; between them each sequence gets `store_cache` (append) and
// `load_cache` (verify rows; nothing is copied or decoded), and the group
// one `compute` span for its attention.
//
// Simplifications vs production checkpoints (documented in DESIGN.md):
// tied input/output embeddings, no biases, GELU MLP for all presets.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lmo/model/llm_config.hpp"
#include "lmo/parallel/threadpool.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/offload_manager.hpp"
#include "lmo/tensor/tensor.hpp"
#include "lmo/util/rng.hpp"

namespace lmo::runtime {

class Transformer {
 public:
  /// Fork-join floor of a row group's attention, in Σ t_new·visible·hidden
  /// over the group's sequences: below it the group's attention runs on
  /// the calling thread.
  static constexpr std::int64_t kAttentionSplitWork = std::int64_t{1} << 16;

  /// Creates synthetic weights (normal, seeded) and registers them with
  /// `manager`: the first `device_layers` layers live on the device tier,
  /// the last `disk_layers` layers on the disk tier (requires
  /// manager.attach_store()), everything between on the host tier
  /// (streamed on fetch).
  Transformer(const model::ModelSpec& spec, OffloadManager& manager,
              std::int64_t device_layers, std::uint64_t seed,
              std::int64_t disk_layers = 0);

  const model::ModelSpec& spec() const { return spec_; }

  /// Fresh full-attention caches for one sequence, one per layer, over
  /// `pool` (whose row width must be this model's hidden size).
  SequenceCache make_cache(KVBlockPool& pool) const;

  /// Embed a token sequence → [T, h].
  tensor::Tensor embed(std::span<const std::int64_t> tokens);

  /// Intra-op parallelism: with `pool` set (nullptr = serial), the calling
  /// thread and the pool's workers split GEMM output-column panels,
  /// activation element ranges and a row group's attention into (sequence,
  /// head, query-row block) tasks — each above a fixed work floor —
  /// through ThreadPool::parallel_for.
  /// Every output element is computed by one lane in the serial order, so
  /// results are bit-identical at any lane count. KV reads and appends,
  /// fault draws and trace spans stay on the calling thread.
  void set_compute_pool(parallel::ThreadPool* pool) { compute_pool_ = pool; }

  /// Run all layers over a batch of hidden-state matrices ([T_i, h]),
  /// appending every position to the caches. Layer-outer: weights are
  /// fetched once per layer for the whole batch; with `prefetch` non-null,
  /// layer (i+1) mod num_layers loads asynchronously while layer i
  /// computes — the last layer stages layer 0 for the next call.
  /// Consecutive sequences share a row group of at most max(64, max T_i)
  /// rows. Every row's result — state and cache — is bit-identical to a
  /// forward over that sequence alone: the GEMM kernel's summation order
  /// does not depend on the row count.
  void forward(std::vector<tensor::Tensor>& states,
               std::vector<SequenceCache*>& caches,
               parallel::ThreadPool* prefetch = nullptr);

  /// Final LayerNorm + tied unembedding of the last row → [vocab].
  tensor::Tensor logits(const tensor::Tensor& state);

  /// logits() of every state's last row as one GEMM → [B, vocab]; row b
  /// is bit-identical to logits(states[b]).
  tensor::Tensor logits(const std::vector<tensor::Tensor>& states);

  /// Weight-tensor name for OffloadManager lookups, e.g. name(3, "wq").
  static std::string weight_name(std::int64_t layer, const std::string& kind);

 private:
  struct LayerWeights {
    tensor::Tensor wq, wk, wv, wo, w1, w2;
    tensor::Tensor ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
  };

  /// Consecutive sequences stacked into one [rows, h] state matrix.
  struct RowGroup {
    std::size_t first = 0;             ///< index of the first sequence
    std::vector<std::int64_t> rows;    ///< T_i of each member sequence
    tensor::Tensor x;                  ///< [Σ T_i, h]
  };
  /// One sequence's K and V read views. A forward pass keeps one per row
  /// group member and reuses them across layers: they hold stored-row
  /// pointers, never decoded rows.
  struct KVViews {
    KVRowView k, v;
  };
  /// Query rows [begin, end) of one head of row group member `member`,
  /// whose rows start at group row `row0`.
  struct AttentionTask {
    std::size_t member = 0;
    std::int64_t row0 = 0, head = 0, begin = 0, end = 0;
  };
  /// One compute lane's scratch, owned here and sized on the calling
  /// thread, so no lane allocates: the GEMM's packing buffer, one
  /// attention query's scores, the head slices of the K and V rows a task
  /// decodes, and the seconds spent decoding per row group member.
  struct LaneScratch {
    std::vector<float> gemm, scores, k, v;
    std::vector<double> dequantize_s;
  };

  LayerWeights fetch_layer(std::int64_t layer);
  /// Lanes for the next pass (1 without a pool), with their GEMM scratch
  /// sized.
  int prepare_lanes();
  /// matmul_nt_blocked(a, b), split on column panels above the work floor.
  tensor::Tensor matmul(const tensor::Tensor& a, const tensor::Tensor& b,
                        int lanes);
  /// The model's activation in place, split on element ranges above the
  /// work floor.
  void activate(tensor::Tensor& x, int lanes);
  /// One layer over one row group: cache appends and reads per sequence,
  /// attention over the whole group, then the MLP, one GEMM per weight.
  void layer_forward(const LayerWeights& w, std::int64_t layer,
                     RowGroup& group, std::vector<SequenceCache*>& caches,
                     std::vector<KVViews>& views, int lanes);
  /// Causal attention of every member of `group` — `q` and `out` are the
  /// group's [rows, h] query and context matrices — over the K and V rows
  /// in `views` (already holding the new tokens), split into
  /// AttentionTasks. Leaves each lane's decode seconds per member in its
  /// LaneScratch::dequantize_s.
  void attention(const float* q, const RowGroup& group,
                 const std::vector<KVViews>& views, float* out, int lanes);

  model::ModelSpec spec_;
  OffloadManager& manager_;
  parallel::ThreadPool* compute_pool_ = nullptr;
  std::vector<LaneScratch> lanes_;
  std::vector<AttentionTask> tasks_;  ///< reused by every attention call
  tensor::Tensor embedding_;  ///< [vocab, h], always device-resident
  tensor::Tensor lnf_gamma_, lnf_beta_;
};

}  // namespace lmo::runtime
