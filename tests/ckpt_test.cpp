// Tests for the checkpoint subsystem: envelope validation (every corruption
// mode maps to one typed error), tensor/KV codec bit-exactness, and the
// headline robustness contract — a generation killed mid-decode and resumed
// from its snapshot produces byte-identical tokens, for both KV flavors at
// every bit width, even with a transient-fault chaos schedule active across
// the kill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lmo/ckpt/binary_io.hpp"
#include "lmo/ckpt/format.hpp"
#include "lmo/ckpt/tensor_codec.hpp"
#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"
#include "lmo/util/tempdir.hpp"

namespace lmo {
namespace {

using util::CheckError;
using util::CheckpointCorrupt;
using util::CheckpointMismatch;
using util::CheckpointTruncated;
using util::CheckpointVersionMismatch;

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A named file inside its own util::TempDir: unique per test even when
/// suites run in parallel, and removed with the directory no matter how the
/// test exits.
struct TempFile {
  explicit TempFile(const std::string& name)
      : dir("ckpt_test"), path(dir.file(name)) {}
  util::TempDir dir;
  std::string path;
};

// ---------------------------------------------------------- binary io --

TEST(CkptBinaryIo, PrimitivesRoundTrip) {
  ckpt::ByteWriter writer;
  writer.u8(7);
  writer.u32(0xdeadbeefu);
  writer.u64(0x0123456789abcdefull);
  writer.i64(-42);
  writer.f32(1.5f);
  writer.f64(-2.25);
  writer.string("checkpoint");
  writer.f32_array(std::vector<float>{1.0f, -0.5f, 3.25f});

  ckpt::ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.u8(), 7);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f32(), 1.5f);
  EXPECT_EQ(reader.f64(), -2.25);
  EXPECT_EQ(reader.string(), "checkpoint");
  EXPECT_EQ(reader.f32_array(), (std::vector<float>{1.0f, -0.5f, 3.25f}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(CkptBinaryIo, ReadPastEndIsTruncated) {
  ckpt::ByteWriter writer;
  writer.u32(1);
  ckpt::ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.u32(), 1u);
  EXPECT_THROW(reader.u8(), CheckpointTruncated);
  // A length prefix larger than the remaining bytes is truncation too.
  ckpt::ByteWriter lying;
  lying.u64(1000);  // claims a 1000-byte string follows
  ckpt::ByteReader reader2(lying.buffer());
  EXPECT_THROW(reader2.string(), CheckpointTruncated);
}

// ----------------------------------------------------------- envelope --

TEST(CkptEnvelope, RoundTripsPayload) {
  TempFile file("ckpt_test_envelope.bin");
  std::vector<std::byte> payload;
  for (int i = 0; i < 100; ++i) payload.push_back(std::byte(i));
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              payload);
  const auto loaded = ckpt::read_checkpoint_file(
      file.path, ckpt::PayloadKind::kGeneratorState);
  EXPECT_EQ(loaded, payload);
}

TEST(CkptEnvelope, MissingFileIsTruncated) {
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   "/nonexistent/ckpt_test.bin",
                   ckpt::PayloadKind::kGeneratorState),
               CheckpointTruncated);
}

TEST(CkptEnvelope, TruncationAtEveryBoundaryIsTyped) {
  TempFile file("ckpt_test_truncated.bin");
  std::vector<std::byte> payload(64, std::byte{0x5a});
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              payload);
  const auto bytes = read_file(file.path);
  // Cut inside the header, inside the payload, and inside the CRC trailer:
  // all must surface as CheckpointTruncated, never as UB or a short read.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{24}, std::size_t{50},
        bytes.size() - 2}) {
    write_file(file.path,
               std::vector<char>(bytes.begin(),
                                 bytes.begin() + static_cast<long>(keep)));
    EXPECT_THROW(ckpt::read_checkpoint_file(
                     file.path, ckpt::PayloadKind::kGeneratorState),
                 CheckpointTruncated)
        << "keep=" << keep;
  }
}

TEST(CkptEnvelope, BadMagicIsCorrupt) {
  TempFile file("ckpt_test_magic.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(16, std::byte{1}));
  auto bytes = read_file(file.path);
  bytes[0] ^= 0x7f;
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointCorrupt);
}

TEST(CkptEnvelope, PayloadBitFlipIsCorrupt) {
  TempFile file("ckpt_test_crc.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(32, std::byte{0xaa}));
  auto bytes = read_file(file.path);
  bytes[30] ^= 0x01;  // one bit inside the payload
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointCorrupt);
}

TEST(CkptEnvelope, VersionSkewIsTyped) {
  TempFile file("ckpt_test_version.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(8, std::byte{2}));
  auto bytes = read_file(file.path);
  bytes[8] = static_cast<char>(ckpt::kFormatVersion + 1);  // version field
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointVersionMismatch);
}

TEST(CkptEnvelope, WrongPayloadKindIsMismatch) {
  TempFile file("ckpt_test_kind.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(8, std::byte{3}));
  auto bytes = read_file(file.path);
  bytes[12] = 99;  // payload-kind field
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointMismatch);
}

TEST(CkptEnvelope, TornTmpFileNeverShadowsPublishedCheckpoint) {
  // Atomic publish: writes land in <path>.tmp and only a completed rename
  // makes them visible. A crash mid-write leaves a torn tmp file behind —
  // the previously published checkpoint must still restore bit-exactly.
  TempFile file("ckpt_test_atomic.bin");
  std::vector<std::byte> published(48, std::byte{0x11});
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              published);
  // The next writer died mid-tmp: plant a truncated garbage tmp file.
  write_file(file.path + ".tmp", std::vector<char>{'t', 'o', 'r', 'n'});
  const auto loaded = ckpt::read_checkpoint_file(
      file.path, ckpt::PayloadKind::kGeneratorState);
  EXPECT_EQ(loaded, published);
}

TEST(CkptEnvelope, CrashPointsStraddleThePublishRename) {
  // ckpt.publish is checked twice: before the tmp write and after fsync,
  // immediately before the rename. A crash at either point must leave the
  // previous checkpoint restorable (the first leaves no tmp bytes at all,
  // the second a complete-but-unpublished tmp).
  struct Fired : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  TempFile file("ckpt_test_publish.bin");
  const std::vector<std::byte> old_payload(32, std::byte{0x22});
  const std::vector<std::byte> new_payload(32, std::byte{0x33});
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              old_payload);
  for (const std::int64_t at : {0, 1}) {
    util::ScopedFaultInjection chaos(7);
    util::FaultSpec spec;
    spec.crash_at_op = at;
    chaos.arm(ckpt::kPublishSite, spec);
    chaos.set_crash_handler(
        [](const std::string& site) { throw Fired(site); });
    EXPECT_THROW(ckpt::write_checkpoint_file(
                     file.path, ckpt::PayloadKind::kGeneratorState,
                     new_payload),
                 Fired)
        << "publish crash point " << at << " never fired";
    EXPECT_EQ(ckpt::read_checkpoint_file(file.path,
                                         ckpt::PayloadKind::kGeneratorState),
              old_payload)
        << "crash at publish check " << at
        << " corrupted the published checkpoint";
  }
  // With no crash armed the publish completes and the new payload wins.
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              new_payload);
  EXPECT_EQ(ckpt::read_checkpoint_file(file.path,
                                       ckpt::PayloadKind::kGeneratorState),
            new_payload);
}

// -------------------------------------------------------- tensor codec --

TEST(CkptTensorCodec, DenseTensorRoundTripsBitExactly) {
  util::Xoshiro256 rng(7);
  const auto original = tensor::Tensor::uniform({3, 5}, rng);
  ckpt::ByteWriter writer;
  ckpt::encode_tensor(writer, original);
  ckpt::ByteReader reader(writer.buffer());
  const auto restored = ckpt::decode_tensor(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.shape(), original.shape());
  EXPECT_EQ(restored.max_abs_diff(original), 0.0f);
}

TEST(CkptTensorCodec, QuantizedTensorRoundTripsBitExactly) {
  util::Xoshiro256 rng(8);
  for (const int bits : {4, 8}) {
    const auto source = tensor::Tensor::uniform({4, 32}, rng);
    const auto original =
        tensor::quantize(source, tensor::QuantConfig{bits, 16});
    ckpt::ByteWriter writer;
    ckpt::encode_quantized(writer, original);
    ckpt::ByteReader reader(writer.buffer());
    const auto restored = ckpt::decode_quantized(reader);
    EXPECT_TRUE(reader.exhausted());
    // Bit-exact payload adoption: dequantizing both gives identical floats
    // (a re-quantization round trip would drift).
    EXPECT_EQ(tensor::dequantize(restored).max_abs_diff(
                  tensor::dequantize(original)),
              0.0f)
        << bits << "-bit";
  }
}

TEST(CkptTensorCodec, GarbageShapeIsCorrupt) {
  ckpt::ByteWriter writer;
  writer.u8(200);  // rank far beyond kMaxRank
  ckpt::ByteReader reader(writer.buffer());
  EXPECT_THROW(ckpt::decode_shape(reader), CheckpointCorrupt);

  ckpt::ByteWriter negative;
  negative.u8(1);
  negative.i64(-4);  // negative extent
  ckpt::ByteReader reader2(negative.buffer());
  EXPECT_THROW(ckpt::decode_shape(reader2), CheckpointCorrupt);
}

// ------------------------------------------------------------ kv codec --

void expect_same_contents(const runtime::KVCache& restored,
                          const runtime::KVCache& original) {
  ASSERT_EQ(restored.length(), original.length());
  if (original.length() == 0) return;
  EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
  EXPECT_EQ(restored.values().max_abs_diff(original.values()), 0.0f);
}

runtime::KVBlockPoolConfig blocks_of(std::int64_t hidden, int bits) {
  return {.block_tokens = 4, .hidden = hidden, .bits = bits,
          .group_size = 16};
}

TEST(CkptKVCodec, DenseRoundTripsPlainAndQuantized) {
  util::Xoshiro256 rng(11);
  for (const int bits : {16, 8, 4}) {
    runtime::MemoryPool pool("h", 1 << 20);
    runtime::KVBlockPool blocks(blocks_of(32, bits), &pool);
    runtime::KVCache cache(blocks);
    for (int i = 0; i < 5; ++i) {
      cache.append(tensor::Tensor::uniform({32}, rng),
                   tensor::Tensor::uniform({32}, rng));
    }
    ckpt::ByteWriter writer;
    runtime::encode_kv_cache(writer, cache);
    ckpt::ByteReader reader(writer.buffer());
    runtime::KVCache restored(blocks);
    runtime::decode_kv_cache(reader, restored);
    EXPECT_TRUE(reader.exhausted());
    expect_same_contents(restored, cache);
    // Stored bytes, quantization metadata included, come back verbatim.
    for (std::int64_t i = 0; i < cache.length(); ++i) {
      const auto a = cache.stored_row(runtime::KVPlane::kValues, i);
      const auto b = restored.stored_row(runtime::KVPlane::kValues, i);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

TEST(CkptKVCodec, WindowCacheWritesOnlyItsVisibleRows) {
  util::Xoshiro256 rng(12);
  runtime::MemoryPool pool("h", 1 << 20);
  runtime::KVBlockPool blocks(blocks_of(16, 16), &pool);
  runtime::KVCache cache(blocks, /*window=*/5);
  for (int i = 0; i < 11; ++i) {
    cache.append(tensor::Tensor::uniform({16}, rng),
                 tensor::Tensor::uniform({16}, rng));
  }
  ckpt::ByteWriter writer;
  runtime::encode_kv_cache(writer, cache);
  ckpt::ByteReader reader(writer.buffer());
  runtime::KVCache restored(blocks, 5);
  runtime::decode_kv_cache(reader, restored);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.appended(), 5);
  expect_same_contents(restored, cache);
}

TEST(CkptKVCodec, EmptyDenseCacheRoundTrips) {
  runtime::MemoryPool pool("h", 1 << 20);
  runtime::KVBlockPool blocks(blocks_of(16, 16), &pool);
  runtime::KVCache cache(blocks);
  ckpt::ByteWriter writer;
  runtime::encode_kv_cache(writer, cache);
  ckpt::ByteReader reader(writer.buffer());
  runtime::KVCache restored(blocks);
  runtime::decode_kv_cache(reader, restored);
  EXPECT_EQ(restored.length(), 0);
}

TEST(CkptKVCodec, RecordOfAnotherGeometryIsCorrupt) {
  runtime::MemoryPool pool("h", 1 << 20);
  runtime::KVBlockPool f32_blocks(blocks_of(16, 16), &pool);
  runtime::KVBlockPool kv4_blocks(blocks_of(16, 4), &pool);
  runtime::KVCache cache(f32_blocks);
  cache.append(tensor::Tensor::zeros({16}), tensor::Tensor::zeros({16}));
  ckpt::ByteWriter writer;
  runtime::encode_kv_cache(writer, cache);
  ckpt::ByteReader reader(writer.buffer());
  runtime::KVCache restored(kv4_blocks);
  EXPECT_THROW(runtime::decode_kv_cache(reader, restored), CheckpointCorrupt);
}

TEST(CkptKVCodec, UnknownFlavorTagIsCorrupt) {
  runtime::MemoryPool pool("h", 1 << 20);
  runtime::KVBlockPool blocks(blocks_of(16, 16), &pool);
  runtime::KVCache cache(blocks);
  ckpt::ByteWriter writer;
  writer.u8(77);  // no such flavor
  ckpt::ByteReader reader(writer.buffer());
  EXPECT_THROW(runtime::decode_kv_cache(reader, cache), CheckpointCorrupt);
}

// --------------------------------------------- generator kill-resume --

runtime::RuntimeConfig tiny_config(runtime::KVFlavor flavor) {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;
  config.prefetch_threads = 0;
  config.recovery.retry_backoff_seconds = 1e-6;
  config.kv_flavor = flavor;
  config.window_tokens = 6;  // small enough that gen_len wraps the ring
  // Hot sampling over the whole vocabulary, so the checkpointed RNG state
  // and every restored KV row are load-bearing: a restore that failed to
  // reproduce the xoshiro words or a cache row would diverge. (At a
  // temperature near 1 the toy model repeats one token, and a token
  // comparison sees nothing.)
  config.sampling.temperature = 8.0;
  config.sampling.top_k = 0;
  return config;
}

constexpr const char* kFetchSite = "offload.fetch.transfer";
const std::vector<std::vector<std::int64_t>> kPrompts = {{1, 2, 3, 4},
                                                         {9, 8, 7}};
constexpr std::int64_t kGenLen = 10;

util::FaultSpec transient_5pct() {
  util::FaultSpec spec;
  spec.fail_probability = 0.05;
  return spec;
}

/// Live KV blocks of `gen`'s pool at the current step and after each
/// later one, then the finished tokens.
std::pair<std::vector<std::size_t>, std::vector<std::vector<std::int64_t>>>
finish_counting_blocks(runtime::Generator& gen) {
  std::vector<std::size_t> blocks;
  for (;;) {
    blocks.push_back(gen.kv_blocks().live_blocks());
    if (gen.done()) break;
    gen.step();
  }
  return {blocks, gen.finish().tokens};
}

/// The crash-recovery drill the chaos CLI ships: an uninterrupted chaos run
/// vs a run killed at `kill_at` and resumed by a fresh Generator + fresh
/// injector. Both must produce the same tokens, and from the kill point on
/// hold the same KV blocks at every step: a restored window cache starts
/// at the block phase of the one it was written from.
void expect_kill_resume_deterministic(const runtime::RuntimeConfig& config) {
  TempFile file("ckpt_test_kill_resume.ckpt");

  std::pair<std::vector<std::size_t>, std::vector<std::vector<std::int64_t>>>
      reference;
  {
    util::ScopedFaultInjection chaos(2024);
    chaos.arm(kFetchSite, transient_5pct());
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    while (gen.step_index() < kGenLen / 2) gen.step();
    reference = finish_counting_blocks(gen);
  }

  {
    util::ScopedFaultInjection chaos(2024);
    chaos.arm(kFetchSite, transient_5pct());
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    while (gen.step_index() < kGenLen / 2) gen.step();
    EXPECT_GT(gen.snapshot(file.path), 0u);
  }  // the "crash": generator and fault-injector state die with the scope

  {
    util::ScopedFaultInjection chaos(2024);
    chaos.arm(kFetchSite, transient_5pct());
    runtime::Generator gen(config);
    gen.resume(file.path);
    EXPECT_EQ(gen.step_index(), kGenLen / 2);
    EXPECT_EQ(finish_counting_blocks(gen), reference);
  }
}

TEST(GeneratorCkpt, KillResumeIsDeterministicDense) {
  expect_kill_resume_deterministic(tiny_config(runtime::KVFlavor::kDense));
}

TEST(GeneratorCkpt, KillResumeIsDeterministicDenseQuantizedKV) {
  auto config = tiny_config(runtime::KVFlavor::kDense);
  config.kv_bits = 4;
  expect_kill_resume_deterministic(config);
}

TEST(GeneratorCkpt, KillResumeIsDeterministicSmallBlocks) {
  auto config = tiny_config(runtime::KVFlavor::kDense);
  config.kv_block_tokens = 4;
  expect_kill_resume_deterministic(config);
}

TEST(GeneratorCkpt, KillResumeIsDeterministicQuantizedWindow) {
  auto config = tiny_config(runtime::KVFlavor::kWindow);
  config.kv_bits = 8;
  config.kv_block_tokens = 4;
  expect_kill_resume_deterministic(config);
}

TEST(GeneratorCkpt, KillResumeIsDeterministicWindow) {
  expect_kill_resume_deterministic(tiny_config(runtime::KVFlavor::kWindow));
}

// Checkpoints written by an earlier build of the runtime (format v3, in
// tests/data) must keep resuming to the tokens that build produced in an
// uninterrupted run. The sampling temperature is high enough that tokens
// vary step to step yet still depend on the model's logits.
void expect_fixture_resumes(
    const runtime::RuntimeConfig& config, const std::string& name,
    const std::vector<std::vector<std::int64_t>>& expected) {
  runtime::Generator gen(config);
  gen.resume(std::string(LMO_TEST_DATA_DIR) + "/" + name);
  EXPECT_EQ(gen.step_index(), kGenLen / 2);
  while (!gen.done()) gen.step();
  EXPECT_EQ(gen.finish().tokens, expected);
}

TEST(GeneratorCkpt, PagedFixtureFromEarlierBuildResumes) {
  // Written mid-decode of kPrompts by the former paged flavor (fingerprint
  // flavor byte 1, read as kDense) with 4-token pages, when the page size
  // was a field of its own.
  auto config = tiny_config(runtime::KVFlavor::kDense);
  config.kv_block_tokens = 4;
  expect_fixture_resumes(config, "paged_kv_v3.ckpt",
                         {{4, 35, 10, 10, 19, 19, 13, 13, 14, 62},
                          {47, 52, 52, 32, 32, 17, 33, 54, 61, 61}});
}

TEST(GeneratorCkpt, PrefixShareFixtureFromEarlierBuildResumes) {
  // Written mid-decode of a batch whose prompts matched 32 cached tokens
  // (16 per sequence) published by a warm-up batch.
  auto config = tiny_config(runtime::KVFlavor::kDense);
  config.prefix_share = true;
  config.kv_block_tokens = 4;
  expect_fixture_resumes(config, "prefix_share_v3.ckpt",
                         {{58, 58, 16, 16, 17, 61, 61, 38, 38, 30},
                          {58, 25, 25, 41, 62, 62, 30, 1, 1, 55}});
}

TEST(GeneratorCkpt, DenseKv4FixtureFromEarlierBuildResumes) {
  // Written mid-decode of kPrompts when dense KV kept one group-quantized
  // tensor per row.
  auto config = tiny_config(runtime::KVFlavor::kDense);
  config.kv_bits = 4;
  expect_fixture_resumes(config, "dense_kv4_v3.ckpt",
                         {{4, 35, 10, 10, 19, 19, 13, 13, 14, 62},
                          {47, 52, 52, 32, 32, 17, 33, 54, 61, 61}});
}

TEST(GeneratorCkpt, WindowFixtureFromEarlierBuildResumes) {
  // Written mid-decode of kPrompts with a 6-token window, when the window
  // cache was a ring; the ring had wrapped by the snapshot.
  expect_fixture_resumes(tiny_config(runtime::KVFlavor::kWindow),
                         "window_kv_v3.ckpt",
                         {{4, 35, 10, 10, 19, 19, 13, 13, 16, 58},
                          {47, 52, 52, 32, 32, 17, 34, 52, 58, 58}});
}

TEST(GeneratorCkpt, SnapshotQuiescesActivePrefetchWorkers) {
  // With async prefetch on, snapshot() must drain in-flight transfers
  // (OffloadManager::quiesce) before serializing — this is the
  // ThreadSanitizer target path. The resumed run must still match an
  // uninterrupted one.
  auto config = tiny_config(runtime::KVFlavor::kDense);
  config.prefetch_threads = 2;
  runtime::Generator reference(config);
  const auto expected = reference.generate(kPrompts, kGenLen).tokens;

  TempFile file("ckpt_test_quiesce.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.step();  // leaves prefetches for upcoming layers in flight
    gen.snapshot(file.path);
  }
  runtime::Generator gen(config);
  gen.resume(file.path);
  while (!gen.done()) gen.step();
  EXPECT_EQ(gen.finish().tokens, expected);
}

TEST(GeneratorCkpt, SessionApiMatchesGenerate) {
  // No faults, no checkpoint: the incremental session API alone must
  // reproduce the one-shot generate() path.
  const auto config = tiny_config(runtime::KVFlavor::kDense);
  runtime::Generator one_shot(config);
  const auto expected = one_shot.generate(kPrompts, kGenLen);
  runtime::Generator stepped(config);
  stepped.begin(kPrompts, kGenLen);
  EXPECT_TRUE(stepped.active());
  EXPECT_EQ(stepped.step_index(), 1);
  while (!stepped.done()) stepped.step();
  const auto result = stepped.finish();
  EXPECT_FALSE(stepped.active());
  EXPECT_EQ(result.tokens, expected.tokens);
}

TEST(GeneratorCkpt, SessionContractViolationsAreCheckErrors) {
  const auto config = tiny_config(runtime::KVFlavor::kDense);
  runtime::Generator gen(config);
  EXPECT_THROW(gen.step(), CheckError);            // no session
  EXPECT_THROW(gen.finish(), CheckError);          // no session
  EXPECT_THROW(gen.snapshot("x.ckpt"), CheckError);  // nothing to snapshot
  gen.begin(kPrompts, 2);
  EXPECT_THROW(gen.begin(kPrompts, 2), CheckError);  // already active
  TempFile file("ckpt_test_active.ckpt");
  gen.snapshot(file.path);
  EXPECT_THROW(gen.resume(file.path), CheckError);  // resume over a session
}

TEST(GeneratorCkpt, ConfigDriftIsMismatch) {
  const auto config = tiny_config(runtime::KVFlavor::kDense);
  TempFile file("ckpt_test_drift.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.snapshot(file.path);
  }
  // Same model, different quantization / flavor / pool: every drift that
  // would change the schedule must be rejected, not silently absorbed.
  for (const auto& mutate :
       std::vector<void (*)(runtime::RuntimeConfig&)>{
           [](runtime::RuntimeConfig& c) { c.weight_bits = 4; },
           [](runtime::RuntimeConfig& c) {
             c.kv_flavor = runtime::KVFlavor::kWindow;
           },
           [](runtime::RuntimeConfig& c) { c.host_capacity /= 2; },
           [](runtime::RuntimeConfig& c) { c.sampling.temperature = 0.0; },
       }) {
    auto drifted = config;
    mutate(drifted);
    runtime::Generator gen(drifted);
    EXPECT_THROW(gen.resume(file.path), CheckpointMismatch);
    EXPECT_FALSE(gen.active());  // rejection leaves no half-restored state
  }
}

TEST(GeneratorCkpt, CorruptCheckpointLeavesGeneratorUsable) {
  const auto config = tiny_config(runtime::KVFlavor::kDense);
  TempFile file("ckpt_test_corrupt.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.snapshot(file.path);
  }
  auto bytes = read_file(file.path);
  bytes[bytes.size() / 2] ^= 0x10;  // flip a payload bit
  write_file(file.path, bytes);

  runtime::Generator gen(config);
  EXPECT_THROW(gen.resume(file.path), CheckpointCorrupt);
  EXPECT_FALSE(gen.active());
  // All-or-nothing: the failed restore must not have touched the RNG or
  // fault streams — a fresh generation still works and is deterministic.
  const auto after = gen.generate(kPrompts, 3).tokens;
  runtime::Generator witness(config);
  EXPECT_EQ(after, witness.generate(kPrompts, 3).tokens);
}

TEST(GeneratorCkpt, ReadCheckpointMetaProbesWithoutPools) {
  auto config = tiny_config(runtime::KVFlavor::kWindow);
  TempFile file("ckpt_test_meta.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.step();
    gen.step();
    gen.snapshot(file.path);
  }
  const auto meta = runtime::read_checkpoint_meta(file.path);
  EXPECT_EQ(meta.num_sequences, kPrompts.size());
  EXPECT_EQ(meta.gen_len, kGenLen);
  EXPECT_EQ(meta.produced, 3);  // begin() + two steps
  EXPECT_TRUE(runtime::runtime_config_equal(meta.config, config));
  // The meta is enough to rebuild the Generator and finish the run.
  runtime::Generator gen(meta.config);
  gen.resume(file.path);
  while (!gen.done()) gen.step();
  EXPECT_EQ(gen.finish().tokens[0].size(),
            static_cast<std::size_t>(kGenLen));
}

TEST(GeneratorCkpt, RuntimeConfigCodecRoundTrips) {
  auto config = tiny_config(runtime::KVFlavor::kWindow);
  config.kv_bits = 4;
  config.compute_threads = 3;
  config.recovery.max_transfer_attempts = 7;
  ckpt::ByteWriter writer;
  runtime::encode_runtime_config(writer, config);
  ckpt::ByteReader reader(writer.buffer());
  const auto decoded = runtime::decode_runtime_config(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(runtime::runtime_config_equal(decoded, config));
  EXPECT_EQ(decoded.compute_threads, 3);  // recorded, but not compared
  auto other = config;
  other.compute_threads = 1;
  EXPECT_TRUE(runtime::runtime_config_equal(decoded, other));
  other.kv_block_tokens += 1;
  EXPECT_FALSE(runtime::runtime_config_equal(decoded, other));
}

TEST(GeneratorCkpt, ResumesAtAnotherComputeLaneCount) {
  // Written at 1 lane, resumed at 3: the decode steps after the resume
  // split the MLP GEMMs (8 × 256 × 1024 ≥ the split floor) and the
  // activation across lanes, and the tokens must equal an uninterrupted
  // serial run.
  auto config = tiny_config(runtime::KVFlavor::kDense);
  config.spec = model::ModelSpec::tiny(2, 256, 4, 64);
  config.compute_threads = 1;
  std::vector<std::vector<std::int64_t>> prompts;
  for (std::int64_t s = 0; s < 8; ++s) prompts.push_back({s, 2 * s + 1, 7});
  const auto reference =
      runtime::Generator(config).generate(prompts, kGenLen).tokens;

  TempFile file("ckpt_test_lanes.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(prompts, kGenLen);
    while (gen.step_index() < kGenLen / 2) gen.step();
    EXPECT_GT(gen.snapshot(file.path), 0u);
  }
  config.compute_threads = 3;
  runtime::Generator gen(config);
  gen.resume(file.path);
  while (!gen.done()) gen.step();
  EXPECT_EQ(gen.finish().tokens, reference);
}

}  // namespace
}  // namespace lmo
