// Batched decode: row-group forward passes and the KV row-view read path.
// Every fast path here keeps its slow path as the oracle — a per-sequence
// forward, a copying keys()/values() read, and digests of logits recorded
// from the per-sequence, copy-every-read runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/transformer.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/rng.hpp"
#include "lmo/util/status.hpp"

// Heap allocations made by any thread but the one that ran static
// initialization (the test's main thread): a compute lane must allocate
// nothing during a forward pass.
namespace {
const std::thread::id g_main_thread = std::this_thread::get_id();
std::atomic<std::size_t> g_off_main_allocations{0};
}  // namespace

// Out of line: GCC 12 inlines these into their callers and then warns
// (-Wmismatched-new-delete) that free() receives a pointer from operator
// new.
__attribute__((noinline)) void* operator new(std::size_t bytes) {
  if (std::this_thread::get_id() != g_main_thread) ++g_off_main_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lmo::runtime {
namespace {

using tensor::Tensor;

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw().data(), b.raw().data(), a.raw().size()) == 0;
}

std::vector<std::int64_t> random_prompt(util::Xoshiro256& rng,
                                        std::int64_t len) {
  std::vector<std::int64_t> prompt;
  for (std::int64_t i = 0; i < len; ++i) {
    prompt.push_back(static_cast<std::int64_t>(rng.below(256)));
  }
  return prompt;
}

// -- recorded digests --------------------------------------------------------

// Greedy decode of ragged batches straight through the Transformer, with
// every logits row folded into an FNV-1a hash byte by byte (and the chosen
// tokens with them). Logit bytes make the hash sensitive to any numeric
// drift, which greedy tokens alone are not: the tied-embedding toy model
// mostly echoes its input token.
struct HashCase {
  const char* name;
  int weight_bits;
  int kv_bits;
  std::int64_t device_layers;
  KVFlavor kv;
  std::int64_t block_tokens;
  std::uint64_t digest;  ///< recorded from the per-sequence runtime
};

/// One sequence's caches: `layers` of them over `blocks`, each seeing
/// every row (window 0) or the last `window` rows.
SequenceCache make_caches(KVBlockPool& blocks, std::int64_t layers,
                          std::int64_t window = 0) {
  SequenceCache cache;
  for (std::int64_t layer = 0; layer < layers; ++layer) {
    cache.emplace_back(blocks, window);
  }
  return cache;
}

std::uint64_t fnv(std::uint64_t hash, std::span<const std::byte> bytes) {
  for (std::byte b : bytes) {
    hash = (hash ^ static_cast<std::uint64_t>(b)) * 1099511628211ull;
  }
  return hash;
}

/// `lanes` > 1 runs the compute through a pool of lanes − 1 workers.
std::uint64_t forward_hash(const HashCase& c, int lanes = 1,
                           model::Activation activation =
                               model::Activation::kGelu) {
  model::ModelSpec spec = model::ModelSpec::tiny(3, 128, 4, 256);
  spec.activation = activation;
  MemoryPool device("device", 256u << 20);
  MemoryPool host("host", 1024u << 20);
  OffloadManager manager(device, host, c.weight_bits, 32);
  Transformer model(spec, manager, c.device_layers, 42);
  parallel::ThreadPool prefetch(2);
  std::unique_ptr<parallel::ThreadPool> compute;
  if (lanes > 1) {
    compute = std::make_unique<parallel::ThreadPool>(lanes - 1);
    model.set_compute_pool(compute.get());
  }
  KVBlockPool blocks({.block_tokens = c.block_tokens,
                      .hidden = spec.hidden,
                      .bits = c.kv_bits,
                      .group_size = 32},
                     &host);
  const std::int64_t window = c.kv == KVFlavor::kWindow ? 32 : 0;

  util::Xoshiro256 rng(7);
  std::uint64_t hash = 1469598103934665603ull;
  // The first batch splits across row groups (cap 70: {5}, {70}, {12, 33,
  // 1}, {64}) and decodes through the 4-row tiles; the second stays under
  // one tile.
  for (const std::vector<std::int64_t>& lengths :
       {std::vector<std::int64_t>{5, 70, 12, 33, 1, 64},
        std::vector<std::int64_t>{9, 20, 3}}) {
    std::vector<SequenceCache> caches;
    std::vector<SequenceCache*> cache_ptrs;
    std::vector<Tensor> states;
    for (std::int64_t len : lengths) {
      states.push_back(model.embed(random_prompt(rng, len)));
      caches.push_back(make_caches(blocks, spec.num_layers, window));
    }
    for (auto& cache : caches) cache_ptrs.push_back(&cache);
    for (int step = 0; step < 10; ++step) {
      model.forward(states, cache_ptrs, &prefetch);
      for (auto& state : states) {
        const Tensor logits = model.logits(state);
        hash = fnv(hash, logits.raw());
        const std::int64_t token[] = {tensor::argmax(logits)};
        hash = fnv(hash, std::as_bytes(std::span<const std::int64_t>(token)));
        state = model.embed(token);
      }
    }
  }
  return hash;
}

TEST(ForwardDigest, MatchesThePerSequenceRuntime) {
  const HashCase cases[] = {
      {"fp16", 16, 16, 0, KVFlavor::kDense, 16, 0x7bb915ebf21d3b34ull},
      {"w4-kv4", 4, 4, 0, KVFlavor::kDense, 16, 0xcdf16a2a0af666bdull},
      {"w8-kv8", 8, 8, 0, KVFlavor::kDense, 16, 0xe6839bf16b545fa1ull},
      {"device-resident", 16, 16, 3, KVFlavor::kDense, 16,
       0xdded24c70659dee3ull},
      // The former paged flavor: the block size never changes a digest.
      {"paged", 16, 16, 0, KVFlavor::kDense, 4, 0x7bb915ebf21d3b34ull},
      {"window", 16, 16, 0, KVFlavor::kWindow, 16, 0xe5958dadddb3ccbdull},
  };
  for (const HashCase& c : cases) {
    EXPECT_EQ(forward_hash(c), c.digest) << c.name;
  }
}

TEST(ForwardDigest, EveryLaneCountMatchesTheSerialRun) {
  // The ragged prefill (rows up to 70, so m·k·n, t_new·visible·hidden and
  // the MLP's element count all pass their fork-join floors) and the
  // decode steps after it, at 2, 3 and 4 compute lanes: every logits byte
  // and token must equal the serial run's — the recorded digest where
  // there is one.
  const HashCase cases[] = {
      {"fp16", 16, 16, 0, KVFlavor::kDense, 16, 0x7bb915ebf21d3b34ull},
      {"w4-kv4", 4, 4, 0, KVFlavor::kDense, 16, 0xcdf16a2a0af666bdull},
      {"window", 16, 16, 0, KVFlavor::kWindow, 16, 0xe5958dadddb3ccbdull},
  };
  for (const HashCase& c : cases) {
    for (int lanes : {2, 3, 4}) {
      EXPECT_EQ(forward_hash(c, lanes), c.digest)
          << c.name << " at " << lanes << " lanes";
    }
  }
  for (const model::Activation activation :
       {model::Activation::kRelu, model::Activation::kSilu}) {
    const std::uint64_t serial = forward_hash(cases[0], 1, activation);
    for (int lanes : {2, 3, 4}) {
      EXPECT_EQ(forward_hash(cases[0], lanes, activation), serial)
          << model::to_string(activation) << " at " << lanes << " lanes";
    }
  }
}

TEST(ForwardDigest, ComputeLanesAllocateNothing) {
  // A ragged prefill that splits GEMM panels, attention heads and the
  // activation, then decode steps whose one row group is long enough to
  // fan attention out over (sequence, head), at 4 lanes, over f32 and kv4
  // caches: every scratch buffer a lane touches is sized on the calling
  // thread.
  const model::ModelSpec spec = model::ModelSpec::tiny(2, 128, 4, 256);
  MemoryPool device("device", 256u << 20);
  MemoryPool host("host", 256u << 20);
  OffloadManager manager(device, host, 16, 32);
  Transformer model(spec, manager, 0, 42);
  parallel::ThreadPool compute(3);
  model.set_compute_pool(&compute);
  for (int bits : {16, 4}) {
    KVBlockPool blocks({.block_tokens = 16,
                        .hidden = spec.hidden,
                        .bits = bits,
                        .group_size = 32},
                       &host);
    util::Xoshiro256 rng(5);
    std::vector<SequenceCache> caches;
    std::vector<SequenceCache*> cache_ptrs;
    std::vector<Tensor> states;
    std::int64_t decode_work = 0;  // of the first decode step's group
    for (std::int64_t len : {70, 12, 40, 200, 200}) {
      states.push_back(model.embed(random_prompt(rng, len)));
      caches.push_back(make_caches(blocks, spec.num_layers));
      decode_work += (len + 1) * spec.hidden;
    }
    ASSERT_GE(decode_work, Transformer::kAttentionSplitWork);
    for (auto& cache : caches) cache_ptrs.push_back(&cache);
    g_off_main_allocations = 0;
    for (int step = 0; step < 3; ++step) {
      model.forward(states, cache_ptrs);
      for (auto& state : states) {
        const std::int64_t token[] = {tensor::argmax(model.logits(state))};
        state = model.embed(token);
      }
    }
    EXPECT_EQ(g_off_main_allocations.load(), 0u) << "kv" << bits;
  }
}

// -- batched vs per-sequence forward -----------------------------------------

/// Builds one sequence's per-layer caches; called twice per sequence so the
/// batched and the per-sequence pass start from equal, independent caches.
using CacheMaker = std::function<SequenceCache()>;

void expect_batched_matches_per_sequence(const std::string& label,
                                         const CacheMaker& make) {
  SCOPED_TRACE(label);
  const model::ModelSpec spec = model::ModelSpec::tiny(2, 128, 4, 256);
  MemoryPool device("device", 256u << 20);
  MemoryPool host("host", 256u << 20);
  OffloadManager manager(device, host, 16, 32);
  Transformer model(spec, manager, 0, 11);

  // Ragged lengths: the row cap is 70, so {5} + {70} split, {12, 33, 1}
  // share a group and {64} starts another.
  const std::vector<std::int64_t> lengths = {5, 70, 12, 33, 1, 64};
  util::Xoshiro256 rng(3);
  std::vector<Tensor> batched, single;
  std::vector<SequenceCache> batched_caches, single_caches;
  for (std::int64_t len : lengths) {
    batched.push_back(model.embed(random_prompt(rng, len)));
    single.push_back(batched.back().clone());
    batched_caches.push_back(make());
    single_caches.push_back(make());
  }
  std::vector<SequenceCache*> batched_ptrs;
  for (auto& cache : batched_caches) batched_ptrs.push_back(&cache);

  // A ragged prefill, then two single-token decode steps over the caches
  // it built.
  for (int round = 0; round < 3; ++round) {
    model.forward(batched, batched_ptrs);
    for (std::size_t s = 0; s < single.size(); ++s) {
      std::vector<Tensor> one = {single[s]};
      std::vector<SequenceCache*> one_cache = {&single_caches[s]};
      model.forward(one, one_cache);
      single[s] = one[0];
    }
    for (std::size_t s = 0; s < lengths.size(); ++s) {
      EXPECT_TRUE(same_bytes(batched[s], single[s]))
          << "round " << round << " seq " << s;
      for (std::size_t layer = 0; layer < batched_caches[s].size(); ++layer) {
        const KVCache& a = batched_caches[s][layer];
        const KVCache& b = single_caches[s][layer];
        ASSERT_EQ(a.length(), b.length());
        EXPECT_TRUE(same_bytes(a.keys(), b.keys()))
            << "round " << round << " seq " << s << " layer " << layer;
        EXPECT_TRUE(same_bytes(a.values(), b.values()))
            << "round " << round << " seq " << s << " layer " << layer;
      }
    }
    // Next round: one new token per sequence.
    for (std::size_t s = 0; s < lengths.size(); ++s) {
      const std::int64_t token[] = {static_cast<std::int64_t>(s * 7 + round)};
      batched[s] = model.embed(token);
      single[s] = batched[s].clone();
    }
  }
}

TEST(BatchedForward, MatchesPerSequenceForEveryKvBackend) {
  const std::int64_t hidden = 128;
  const std::int64_t layers = 2;
  MemoryPool kv_pool("kv", 512u << 20);
  for (int bits : {16, 8, 4}) {
    KVBlockPool blocks({.block_tokens = 16,
                        .hidden = hidden,
                        .bits = bits,
                        .group_size = 32},
                       &kv_pool);
    expect_batched_matches_per_sequence(
        "dense kv" + std::to_string(bits),
        [&] { return make_caches(blocks, layers); });
    // A window smaller than the longest prompt: drops blocks.
    expect_batched_matches_per_sequence(
        "window kv" + std::to_string(bits),
        [&] { return make_caches(blocks, layers, 24); });
  }

  // Shared: every sequence starts from the same cached 8-token prefix
  // (two 4-token blocks, published from another cache) and appends into
  // blocks of its own.
  KVBlockPool blocks({.block_tokens = 4, .hidden = hidden}, &kv_pool);
  kvshare::PrefixCache prefix(blocks, layers, nullptr);
  util::Xoshiro256 rng(5);
  std::vector<std::int64_t> tokens(12);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<std::int64_t>(i);
  }
  {
    SequenceCache publisher = make_caches(blocks, layers);
    for (KVCache& layer : publisher) {
      for (int t = 0; t < 8; ++t) {
        layer.append(Tensor::normal({hidden}, rng),
                     Tensor::normal({hidden}, rng));
      }
    }
    prefix.insert(std::span<const std::int64_t>(tokens).first(8),
                  [&](std::int64_t offset) {
                    std::vector<std::int64_t> ids;
                    for (const KVCache& layer : publisher) {
                      ids.push_back(layer.block_table()[offset / 4]);
                    }
                    return ids;
                  });
  }
  const auto lease = prefix.match(tokens);
  ASSERT_NE(lease, nullptr);
  ASSERT_EQ(lease->matched_tokens(), 8);
  expect_batched_matches_per_sequence("shared", [&] {
    SequenceCache cache;
    for (std::int64_t layer = 0; layer < layers; ++layer) {
      cache.emplace_back(*lease, layer);
    }
    return cache;
  });
}

// -- the row view -------------------------------------------------------------

Tensor ramp_row(std::int64_t hidden, float base) {
  Tensor row = Tensor::zeros({hidden});
  auto p = row.f32();
  for (std::int64_t i = 0; i < hidden; ++i) {
    p[static_cast<std::size_t>(i)] = base + 0.25f * static_cast<float>(i);
  }
  return row;
}

/// Elements [begin, begin + count) of row `i` of a view, decoded.
std::vector<float> decoded(const KVRowView& view, std::size_t i,
                           std::int64_t begin, std::size_t count) {
  std::vector<float> out(count);
  view.format.decode(std::span(view.rows).subspan(i, 1), begin,
                     static_cast<std::int64_t>(count), out.data());
  return out;
}

TEST(KVRowView, RowsAreReadInPlace) {
  MemoryPool pool("host", 1 << 20);
  KVBlockPool f32_blocks({.block_tokens = 4, .hidden = 8}, &pool);
  KVCache cache(f32_blocks);
  for (int i = 0; i < 5; ++i) {
    cache.append(ramp_row(8, static_cast<float>(i)),
                 ramp_row(8, -static_cast<float>(i)));
  }
  KVRowView view;
  cache.read_rows(KVPlane::kKeys, view);
  ASSERT_EQ(view.rows.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(static_cast<const void*>(view.rows[i]),
              cache.stored_row(KVPlane::kKeys,
                               static_cast<std::int64_t>(i)).data());
  }
  EXPECT_TRUE(view.wire.empty());  // nothing copied

  // Quantized rows are read in place too, and decode (whole, or a slice
  // from an odd nibble across a group boundary) to the bytes values()
  // holds.
  KVBlockPool kv4_blocks(
      {.block_tokens = 4, .hidden = 8, .bits = 4, .group_size = 4}, &pool);
  KVCache quant(kv4_blocks);
  for (int i = 0; i < 5; ++i) {
    quant.append(ramp_row(8, static_cast<float>(i)),
                 ramp_row(8, -static_cast<float>(i)));
  }
  quant.read_rows(KVPlane::kValues, view);
  EXPECT_TRUE(view.format.quantized());
  const Tensor values = quant.values();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(static_cast<const void*>(view.rows[i]),
              quant.stored_row(KVPlane::kValues,
                               static_cast<std::int64_t>(i)).data());
    EXPECT_EQ(std::memcmp(decoded(view, i, 0, 8).data(),
                          values.f32().data() + i * 8, 8 * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(decoded(view, i, 3, 4).data(),
                          values.f32().data() + i * 8 + 3, 4 * sizeof(float)),
              0);
  }
}

/// Fault-injector position of the KV flip site: (corrupt_bit calls, draws).
std::pair<std::int64_t, std::uint64_t> flip_site_position() {
  for (const auto& state : util::FaultInjector::instance().site_states()) {
    if (state.site == "integrity.kv.flip") return {state.ops, state.draws};
  }
  return {-1, 0};
}

// The copying read this view replaced made one corrupt_bit draw per row, in
// row order, verified each row right after its draw and threw at the first
// row whose wire copy failed. The view keeps that contract for f32 and
// quantized rows alike, and keys() (now built on the view) agrees with it.
TEST(KVRowView, IntegrityMatchesTheCopyingRead) {
  constexpr std::int64_t kRows = 24;
  constexpr std::uint64_t kSeed = 17;
  util::FaultSpec flips;
  flips.flip_probability = 0.25;
  for (int bits : {16, 4}) {
    SCOPED_TRACE("kv" + std::to_string(bits));
    integrity::IntegrityConfig config;
    config.policy = integrity::VerifyPolicy::kAlways;
    telemetry::MetricsRegistry metrics;
    integrity::ChecksumRegistry registry(config, &metrics);
    MemoryPool pool("host", 1 << 24);
    KVBlockPool blocks(
        {.block_tokens = 4, .hidden = 16, .bits = bits, .group_size = 8},
        &pool);
    KVCache verified(blocks);
    KVCache plain(blocks);
    verified.set_integrity(&registry, "kv.parity");
    for (std::int64_t i = 0; i < kRows; ++i) {
      const Tensor k = ramp_row(16, static_cast<float>(i));
      const Tensor v = ramp_row(16, 0.5f - static_cast<float>(i));
      verified.append(k, v);
      plain.append(k, v);
    }
    const Tensor clean = plain.keys();

    // With no injector armed every row verifies and is read in place, so
    // nothing is copied.
    {
      KVRowView view;
      verified.read_rows(KVPlane::kKeys, view);
      ASSERT_EQ(view.rows.size(), static_cast<std::size_t>(kRows));
      for (std::int64_t i = 0; i < kRows; ++i) {
        EXPECT_EQ(std::memcmp(
                      decoded(view, static_cast<std::size_t>(i), 0, 16).data(),
                      clean.f32().data() + i * 16, 16 * sizeof(float)),
                  0);
      }
      EXPECT_TRUE(view.wire.empty());
    }

    // Unverified twin: every row is read (one flip-site op each), and the
    // first corrupted row is where verification must stop.
    std::int64_t first_flip = -1;
    {
      util::ScopedFaultInjection chaos(kSeed);
      chaos.arm("integrity.kv.flip", flips);
      KVRowView view;
      plain.read_rows(KVPlane::kKeys, view);
      EXPECT_EQ(flip_site_position().first, kRows);
      for (std::int64_t i = 0; i < kRows && first_flip < 0; ++i) {
        if (std::memcmp(
                decoded(view, static_cast<std::size_t>(i), 0, 16).data(),
                clean.f32().data() + i * 16, 16 * sizeof(float))) {
          first_flip = i;
        }
      }
      EXPECT_FALSE(view.wire.empty());
      plain.read_rows(KVPlane::kValues, view);
      EXPECT_EQ(flip_site_position().first, 2 * kRows);
    }
    ASSERT_GE(first_flip, 0) << "seed produced no flip in the keys plane";

    const std::string where =
        "KV row " + std::to_string(first_flip) + " of kv.parity";
    std::pair<std::int64_t, std::uint64_t> at_view, at_keys;
    for (bool via_view : {true, false}) {
      util::ScopedFaultInjection chaos(kSeed);
      chaos.arm("integrity.kv.flip", flips);
      try {
        if (via_view) {
          KVRowView view;
          verified.read_rows(KVPlane::kKeys, view);
        } else {
          (void)verified.keys();
        }
        ADD_FAILURE() << "flipped row was not detected";
      } catch (const util::DataCorruption& e) {
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << e.what();
      }
      (via_view ? at_view : at_keys) = flip_site_position();
    }
    EXPECT_EQ(at_view.first, first_flip + 1);  // stopped at the flipped row
    EXPECT_EQ(at_view, at_keys);
  }
}

}  // namespace
}  // namespace lmo::runtime
