#include "lmo/runtime/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <set>

#include "lmo/ckpt/format.hpp"
#include "lmo/ckpt/tensor_codec.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

void encode_i64_vec(ckpt::ByteWriter& writer,
                    const std::vector<std::int64_t>& values) {
  writer.u64(values.size());
  for (std::int64_t v : values) writer.i64(v);
}

std::vector<std::int64_t> decode_i64_vec(ckpt::ByteReader& reader) {
  const std::uint64_t count = reader.u64();
  std::vector<std::int64_t> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(reader.i64());
  return values;
}

// KV record tags in the cache codec. The writer emits kDenseTag for every
// cache; the other three are records of earlier builds, decoded into blocks.
constexpr std::uint8_t kDenseTag = 1;
constexpr std::uint8_t kPagedTag = 2;
constexpr std::uint8_t kWindowTag = 3;
constexpr std::uint8_t kSharedTag = 4;

/// One stored row as a checkpoint tensor: f32 rows as a [hidden] tensor,
/// quantized rows as the QuantizedTensor tensor::quantize produced.
void encode_row(ckpt::ByteWriter& writer, const KVCache& cache,
                std::span<const std::byte> row) {
  const std::int64_t hidden = cache.hidden();
  const KVBlockPool& pool = cache.pool();
  if (cache.bits() == 16) {
    std::vector<float> values(static_cast<std::size_t>(hidden));
    std::memcpy(values.data(), row.data(), values.size() * sizeof(float));
    ckpt::encode_tensor(writer,
                        tensor::Tensor::from_values({hidden}, std::move(values)));
    return;
  }
  const auto groups = static_cast<std::size_t>(pool.row_groups());
  const auto* meta = reinterpret_cast<const float*>(row.data());
  const auto* codes = reinterpret_cast<const std::uint8_t*>(
      row.data() + 2 * groups * sizeof(float));
  ckpt::encode_quantized(
      writer, tensor::QuantizedTensor::from_parts(
                  tensor::Shape{hidden},
                  tensor::QuantConfig{cache.bits(), pool.group_size()},
                  pool.row_groups() * pool.group_size(),
                  std::vector<std::uint8_t>(codes,
                                            codes + pool.row_payload_bytes()),
                  std::vector<float>(meta, meta + groups),
                  std::vector<float>(meta + groups, meta + 2 * groups)));
}

/// Decode one encode_row record into `cache`'s stored-row layout.
std::vector<std::byte> decode_row(ckpt::ByteReader& reader,
                                  const KVCache& cache) {
  const KVBlockPool& pool = cache.pool();
  std::vector<std::byte> row(pool.row_bytes());
  if (cache.bits() == 16) {
    const tensor::Tensor value = ckpt::decode_tensor(reader);
    if (value.dtype() != tensor::DType::kF32 ||
        value.shape() != tensor::Shape{cache.hidden()}) {
      throw util::CheckpointCorrupt("KV checkpoint row has the wrong shape");
    }
    std::memcpy(row.data(), value.f32().data(), row.size());
    return row;
  }
  const tensor::QuantizedTensor q = ckpt::decode_quantized(reader);
  if (q.bits() != cache.bits() || q.group_size() != pool.group_size() ||
      q.original_shape().numel() != cache.hidden()) {
    throw util::CheckpointCorrupt(
        "KV checkpoint row does not match the cache's quantization");
  }
  const std::size_t meta = q.group_min().size() * sizeof(float);
  std::memcpy(row.data(), q.group_min().data(), meta);
  std::memcpy(row.data() + meta, q.group_scale().data(), meta);
  std::memcpy(row.data() + 2 * meta, q.payload().data(), q.payload().size());
  return row;
}

/// A kDenseTag record: geometry, then every visible K row, then every V
/// row, stored bytes verbatim (quantized payloads bit-exact).
void decode_dense(ckpt::ByteReader& reader, KVCache& cache) {
  const std::int64_t hidden = reader.i64();
  const int bits = reader.u8();
  reader.i64();  // quantization group: each quantized row carries its own
  const std::uint64_t length = reader.u64();
  if (hidden != cache.hidden() || bits != cache.bits()) {
    throw util::CheckpointCorrupt(
        "KV checkpoint record does not match the cache geometry");
  }
  const auto decode_rows = [&] {
    std::vector<std::vector<std::byte>> rows;
    for (std::uint64_t i = 0; i < length; ++i) {
      rows.push_back(decode_row(reader, cache));
    }
    return rows;
  };
  const auto k = decode_rows();
  const auto v = decode_rows();
  for (std::size_t i = 0; i < k.size(); ++i) cache.append_stored(k[i], v[i]);
}

/// Append `length` gathered f32 rows per plane (an earlier build's paged,
/// shared or window record).
void append_f32_rows(KVCache& cache, std::span<const float> k,
                     std::span<const float> v, std::int64_t length) {
  const std::int64_t hidden = cache.hidden();
  for (std::int64_t t = 0; t < length; ++t) {
    const auto row = [&](std::span<const float> plane) {
      const auto rows = plane.subspan(static_cast<std::size_t>(t * hidden),
                                      static_cast<std::size_t>(hidden));
      return tensor::Tensor::from_values(
          {hidden}, std::vector<float>(rows.begin(), rows.end()));
    };
    cache.append(row(k), row(v));
  }
}

/// kPagedTag: the length, then gathered [length, hidden] K and V matrices.
void decode_paged(ckpt::ByteReader& reader, KVCache& cache) {
  const std::int64_t length = reader.i64();
  if (length < 0) {
    throw util::CheckpointCorrupt("paged KV checkpoint has negative length");
  }
  if (length == 0) return;
  const std::vector<float> k = reader.f32_array();
  const std::vector<float> v = reader.f32_array();
  const std::size_t expected = static_cast<std::size_t>(length) *
                               static_cast<std::size_t>(cache.hidden());
  if (k.size() != expected || v.size() != expected) {
    throw util::CheckpointCorrupt(
        "paged KV checkpoint payload does not match length " +
        std::to_string(length) + " x hidden " +
        std::to_string(cache.hidden()));
  }
  append_f32_rows(cache, k, v, length);
}

/// kWindowTag: a ring of `window` row slots plus its cursors; only the
/// visible rows, oldest first, carry over.
void decode_window(ckpt::ByteReader& reader, KVCache& cache) {
  const std::int64_t hidden = reader.i64();
  const std::int64_t window = reader.i64();
  const std::int64_t appended = reader.i64();
  const std::int64_t visible = reader.i64();
  const std::vector<float> k_ring = reader.f32_array();
  const std::vector<float> v_ring = reader.f32_array();
  const auto slots = [&](const std::vector<float>& ring) {
    return static_cast<std::int64_t>(ring.size()) / hidden;
  };
  if (hidden != cache.hidden() || window <= 0 || visible < 0 ||
      visible > std::min(appended, window) ||
      k_ring.size() != v_ring.size() || slots(k_ring) != window ||
      k_ring.size() % static_cast<std::size_t>(hidden) != 0) {
    throw util::CheckpointCorrupt("window KV checkpoint is inconsistent");
  }
  std::vector<float> k, v;
  for (std::int64_t i = 0; i < visible; ++i) {
    const auto slot = static_cast<std::size_t>(
        (appended - visible + i) % window * hidden);
    k.insert(k.end(), k_ring.begin() + slot, k_ring.begin() + slot + hidden);
    v.insert(v.end(), v_ring.begin() + slot, v_ring.begin() + slot + hidden);
  }
  append_f32_rows(cache, k, v, visible);
}

void encode_fault_states(ckpt::ByteWriter& writer) {
  const std::vector<util::FaultSiteState> states =
      util::FaultInjector::instance().site_states();
  writer.u64(states.size());
  for (const util::FaultSiteState& s : states) {
    writer.string(s.site);
    writer.i64(s.ops);
    writer.i64(s.failures);
    writer.i64(s.allocs_denied);
    writer.u64(s.draws);
  }
}

std::vector<util::FaultSiteState> decode_fault_states(
    ckpt::ByteReader& reader) {
  const std::uint64_t count = reader.u64();
  std::vector<util::FaultSiteState> states;
  states.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    util::FaultSiteState s;
    s.site = reader.string();
    s.ops = reader.i64();
    s.failures = reader.i64();
    s.allocs_denied = reader.i64();
    s.draws = reader.u64();
    states.push_back(std::move(s));
  }
  return states;
}

/// Restore whatever saved sites are still armed; saved sites the current
/// process has not armed are skipped (the caller chose a different chaos
/// profile — that is their prerogative, not corruption).
void apply_fault_states(const std::vector<util::FaultSiteState>& states) {
  auto& injector = util::FaultInjector::instance();
  if (!injector.enabled()) return;
  std::set<std::string> armed;
  for (const auto& s : injector.site_states()) armed.insert(s.site);
  for (const auto& s : states) {
    if (armed.count(s.site) != 0) injector.restore_site_state(s);
  }
}

}  // namespace

void encode_runtime_config(ckpt::ByteWriter& writer,
                           const RuntimeConfig& config) {
  const model::ModelSpec& spec = config.spec;
  writer.string(spec.name);
  writer.i64(spec.num_layers);
  writer.i64(spec.hidden);
  writer.i64(spec.mlp_hidden);
  writer.i64(spec.num_heads);
  writer.i64(spec.vocab);
  writer.u8(static_cast<std::uint8_t>(spec.mlp_matrices));
  writer.u8(static_cast<std::uint8_t>(spec.activation));

  writer.i64(config.device_layers);
  writer.u8(static_cast<std::uint8_t>(config.weight_bits));
  writer.u8(static_cast<std::uint8_t>(config.kv_bits));
  writer.i64(config.quant_group);
  writer.u64(config.device_capacity);
  writer.u64(config.host_capacity);
  // Disk-tier fingerprint (format v3): disk_layers and capacity change the
  // transfer schedule and fault-site draw order, so resuming under a
  // different disk shape must be a CheckpointMismatch. spill_path stays
  // out — it names *where* the store lives, not how generation behaves.
  writer.i64(config.disk_layers);
  writer.u64(config.disk_capacity);
  writer.u64(config.spill_block_bytes);
  writer.u8(static_cast<std::uint8_t>(config.kv_flavor));
  // The former page-size slot: one block size serves paging and sharing.
  writer.i64(config.kv_block_tokens);
  writer.i64(config.window_tokens);
  writer.u8(config.prefix_share ? 1 : 0);
  writer.i64(config.kv_block_tokens);
  writer.i64(config.prefetch_threads);
  writer.i64(config.recovery.max_transfer_attempts);
  writer.f64(config.recovery.retry_backoff_seconds);
  writer.f64(config.recovery.prefetch_wait_seconds);
  writer.u8(config.recovery.allow_degradation ? 1 : 0);
  writer.i64(config.compute_threads);
  writer.u64(config.seed);
  writer.f64(config.sampling.temperature);
  writer.i64(config.sampling.top_k);
  writer.f64(config.sampling.top_p);
  writer.u64(config.sampling.seed);
}

RuntimeConfig decode_runtime_config(ckpt::ByteReader& reader) {
  RuntimeConfig config;
  model::ModelSpec& spec = config.spec;
  spec.name = reader.string();
  spec.num_layers = reader.i64();
  spec.hidden = reader.i64();
  spec.mlp_hidden = reader.i64();
  spec.num_heads = reader.i64();
  spec.vocab = reader.i64();
  spec.mlp_matrices = reader.u8();
  const std::uint8_t activation = reader.u8();
  if (activation > static_cast<std::uint8_t>(model::Activation::kSilu)) {
    throw util::CheckpointCorrupt("checkpoint has unknown activation tag " +
                                  std::to_string(activation));
  }
  spec.activation = static_cast<model::Activation>(activation);

  config.device_layers = reader.i64();
  config.weight_bits = reader.u8();
  config.kv_bits = reader.u8();
  config.quant_group = reader.i64();
  config.device_capacity = static_cast<std::size_t>(reader.u64());
  config.host_capacity = static_cast<std::size_t>(reader.u64());
  config.disk_layers = reader.i64();
  config.disk_capacity = static_cast<std::size_t>(reader.u64());
  config.spill_block_bytes = static_cast<std::size_t>(reader.u64());
  // Flavor byte 1 was a paged flavor, which is kDense now.
  const std::uint8_t flavor = reader.u8();
  constexpr std::uint8_t kLegacyPaged = 1;
  if (flavor > static_cast<std::uint8_t>(KVFlavor::kWindow)) {
    throw util::CheckpointCorrupt("checkpoint has unknown KV flavor tag " +
                                  std::to_string(flavor));
  }
  config.kv_flavor = flavor == kLegacyPaged ? KVFlavor::kDense
                                            : static_cast<KVFlavor>(flavor);
  const std::int64_t page_tokens = reader.i64();
  config.window_tokens = reader.i64();
  config.prefix_share = reader.u8() != 0;
  config.kv_block_tokens = reader.i64();
  // Earlier builds kept a separate page size, which was the block size of
  // a paged session that did not share prefixes.
  if (flavor == kLegacyPaged && !config.prefix_share) {
    config.kv_block_tokens = page_tokens;
  }
  config.prefetch_threads = static_cast<int>(reader.i64());
  config.recovery.max_transfer_attempts = static_cast<int>(reader.i64());
  config.recovery.retry_backoff_seconds = reader.f64();
  config.recovery.prefetch_wait_seconds = reader.f64();
  config.recovery.allow_degradation = reader.u8() != 0;
  config.compute_threads = static_cast<int>(reader.i64());
  config.seed = reader.u64();
  config.sampling.temperature = reader.f64();
  config.sampling.top_k = static_cast<int>(reader.i64());
  config.sampling.top_p = reader.f64();
  config.sampling.seed = reader.u64();
  return config;
}

bool runtime_config_equal(const RuntimeConfig& a, const RuntimeConfig& b) {
  return a.spec.name == b.spec.name &&
         a.spec.num_layers == b.spec.num_layers &&
         a.spec.hidden == b.spec.hidden &&
         a.spec.mlp_hidden == b.spec.mlp_hidden &&
         a.spec.num_heads == b.spec.num_heads &&
         a.spec.vocab == b.spec.vocab &&
         a.spec.mlp_matrices == b.spec.mlp_matrices &&
         a.spec.activation == b.spec.activation &&
         a.device_layers == b.device_layers &&
         a.weight_bits == b.weight_bits && a.kv_bits == b.kv_bits &&
         a.quant_group == b.quant_group &&
         a.device_capacity == b.device_capacity &&
         a.host_capacity == b.host_capacity &&
         a.disk_layers == b.disk_layers &&
         a.disk_capacity == b.disk_capacity &&
         a.spill_block_bytes == b.spill_block_bytes &&
         a.kv_flavor == b.kv_flavor &&
         a.window_tokens == b.window_tokens &&
         a.prefix_share == b.prefix_share &&
         a.kv_block_tokens == b.kv_block_tokens &&
         a.prefetch_threads == b.prefetch_threads &&
         a.recovery.max_transfer_attempts ==
             b.recovery.max_transfer_attempts &&
         a.recovery.retry_backoff_seconds ==
             b.recovery.retry_backoff_seconds &&
         a.recovery.prefetch_wait_seconds ==
             b.recovery.prefetch_wait_seconds &&
         a.recovery.allow_degradation == b.recovery.allow_degradation &&
         a.seed == b.seed &&
         a.sampling.temperature == b.sampling.temperature &&
         a.sampling.top_k == b.sampling.top_k &&
         a.sampling.top_p == b.sampling.top_p &&
         a.sampling.seed == b.sampling.seed;
}

void encode_kv_cache(ckpt::ByteWriter& writer, const KVCache& cache) {
  writer.u8(kDenseTag);
  writer.i64(cache.hidden());
  writer.u8(static_cast<std::uint8_t>(cache.bits()));
  writer.i64(cache.pool().group_size());
  writer.u64(static_cast<std::uint64_t>(cache.length()));
  for (const KVPlane plane : {KVPlane::kKeys, KVPlane::kValues}) {
    for (std::int64_t i = 0; i < cache.length(); ++i) {
      encode_row(writer, cache, cache.stored_row(plane, i));
    }
  }
}

void decode_kv_cache(ckpt::ByteReader& reader, KVCache& cache) {
  LMO_CHECK_MSG(cache.length() == 0, "KV restore needs an empty cache");
  const std::uint8_t tag = reader.u8();
  switch (tag) {
    case kDenseTag:
      return decode_dense(reader, cache);
    case kPagedTag:
      return decode_paged(reader, cache);
    case kWindowTag:
      return decode_window(reader, cache);
    case kSharedTag:
      // A paged record behind the writer's hidden width, which the
      // payload-size check covers.
      reader.i64();
      return decode_paged(reader, cache);
    default:
      throw util::CheckpointCorrupt("unknown KV cache flavor tag " +
                                    std::to_string(tag));
  }
}

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  const std::vector<std::byte> payload =
      ckpt::read_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState);
  ckpt::ByteReader reader(payload);
  CheckpointMeta meta;
  meta.config = decode_runtime_config(reader);
  meta.num_sequences = static_cast<std::size_t>(reader.u64());
  meta.gen_len = reader.i64();
  meta.produced = reader.i64();
  return meta;
}

std::size_t Generator::snapshot(const std::string& path) {
  LMO_CHECK_MSG(session_ != nullptr, "no active session to snapshot");
  auto& trace = telemetry::TraceRecorder::global();
  telemetry::ScopedSpan span(trace, "ckpt.snapshot", "checkpoint");

  // Barrier: no prefetch may be mid-transfer while we serialize, or the
  // staging set captured implicitly by the fault-site draw counts would
  // not match what the resumed process rebuilds.
  const std::size_t waited = manager_->quiesce();

  const Session& session = *session_;
  ckpt::ByteWriter writer;
  encode_runtime_config(writer, config_);
  writer.u64(session.prompts.size());
  writer.i64(session.gen_len);
  writer.i64(session.produced);
  writer.f64(session.prefill_seconds);
  writer.f64(session.decode_seconds);
  for (std::size_t s = 0; s < session.prompts.size(); ++s) {
    encode_i64_vec(writer, session.prompts[s]);
    encode_i64_vec(writer, session.tokens[s]);
    writer.i64(session.next[s]);
  }
  const auto rng_state = sampling_rng_.state();
  for (std::uint64_t word : rng_state) writer.u64(word);
  encode_fault_states(writer);
  for (const SequenceCache& cache : session.caches) {
    for (const KVCache& layer : cache) encode_kv_cache(writer, layer);
  }

  const std::vector<std::byte> payload = writer.take();
  ckpt::write_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState,
                              payload);

  auto& metrics = manager_->metrics();
  metrics.counter("ckpt.snapshot.total").add();
  metrics.gauge("ckpt.snapshot.bytes").add(static_cast<double>(payload.size()));
  metrics.counter("ckpt.quiesce.waited_transfers")
      .add(static_cast<std::uint64_t>(waited));
  return payload.size();
}

void Generator::resume(const std::string& path) {
  LMO_CHECK_MSG(session_ == nullptr,
                "cannot resume while a session is active");
  auto& trace = telemetry::TraceRecorder::global();
  telemetry::ScopedSpan span(trace, "ckpt.restore", "checkpoint");

  const std::vector<std::byte> payload =
      ckpt::read_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState);
  ckpt::ByteReader reader(payload);

  const RuntimeConfig saved = decode_runtime_config(reader);
  if (!runtime_config_equal(saved, config_)) {
    throw util::CheckpointMismatch(
        path + ": checkpoint config fingerprint does not match this "
               "generator (model/quantization/KV/seed settings differ)");
  }

  auto session = std::make_unique<Session>();
  const std::uint64_t num_sequences = reader.u64();
  if (num_sequences == 0) {
    throw util::CheckpointCorrupt(path + ": checkpoint has zero sequences");
  }
  session->gen_len = reader.i64();
  session->produced = reader.i64();
  session->prefill_seconds = reader.f64();
  session->decode_seconds = reader.f64();
  if (session->gen_len <= 0 || session->produced <= 0 ||
      session->produced > session->gen_len) {
    throw util::CheckpointCorrupt(path +
                                  ": checkpoint progress is inconsistent");
  }
  for (std::uint64_t s = 0; s < num_sequences; ++s) {
    session->prompts.push_back(decode_i64_vec(reader));
    session->tokens.push_back(decode_i64_vec(reader));
    session->next.push_back(reader.i64());
    if (session->prompts.back().empty() ||
        static_cast<std::int64_t>(session->tokens.back().size()) !=
            session->produced) {
      throw util::CheckpointCorrupt(
          path + ": sequence " + std::to_string(s) +
          " token progress does not match the produced counter");
    }
  }

  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = reader.u64();
  const std::vector<util::FaultSiteState> fault_states =
      decode_fault_states(reader);

  for (std::uint64_t s = 0; s < num_sequences; ++s) {
    // The caches hold the prompt and every produced token but the pending
    // `next`.
    const auto appended = static_cast<std::int64_t>(
        session->prompts[s].size() + session->tokens[s].size() - 1);
    SequenceCache cache = make_sequence_cache();
    for (KVCache& layer : cache) {
      layer.resume_at(appended);
      decode_kv_cache(reader, layer);
      if (layer.appended() != appended) {
        throw util::CheckpointCorrupt(
            path + ": sequence " + std::to_string(s) + " KV record holds " +
            std::to_string(layer.length()) + " rows after " +
            std::to_string(appended) + " tokens");
      }
    }
    session->caches.push_back(std::move(cache));
  }
  if (!reader.exhausted()) {
    throw util::CheckpointCorrupt(
        path + ": " + std::to_string(reader.remaining()) +
        " trailing bytes after the generator state");
  }

  // All-or-nothing: mutate the generator only after the full payload
  // decoded cleanly, so a corrupt file never leaves a half-restored
  // session behind.
  sampling_rng_.set_state(rng_state);
  apply_fault_states(fault_states);
  for (auto& c : session->caches) session->cache_ptrs.push_back(&c);
  session_ = std::move(session);

  auto& metrics = manager_->metrics();
  metrics.counter("ckpt.restore.total").add();
  metrics.gauge("ckpt.restore.bytes").add(static_cast<double>(payload.size()));
}

}  // namespace lmo::runtime
