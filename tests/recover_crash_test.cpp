// The kill -9 matrix: a forked child runs a supervised generation with a
// crash-point fault armed (util::FaultInjector::maybe_crash -> SIGKILL) at
// successive operation indices of every crash site on the offload path —
// journal append, block write, fsync barrier, checkpoint publish. The
// parent recovers each kill in-process from the on-disk state alone and
// asserts byte-identical tokens and zero leaked blocks.
//
// The configs run with prefetch_threads == 0 and compute_threads == 1:
// the child is forked, and fork() of a multithreaded process may deadlock
// in the child (TSan in particular forbids it). Parent and child both use
// thread-free Generators, so every fork in this file stays safe.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lmo/ckpt/format.hpp"
#include "lmo/recover/recovery_manager.hpp"
#include "lmo/recover/wal.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/store/block_store.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/tempdir.hpp"

namespace {

using namespace lmo;

runtime::RuntimeConfig drill_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.weight_bits = 8;
  config.device_layers = 0;
  config.disk_layers = 1;
  config.disk_capacity = 4u << 20;
  config.spill_block_bytes = 4096;
  config.prefetch_threads = 0;  // fork safety: no threads, ever
  config.compute_threads = 1;
  config.recovery.retry_backoff_seconds = 1e-6;
  return config;
}

const std::vector<std::vector<std::int64_t>> kPrompts = {{1, 2, 3, 4}};
constexpr std::int64_t kGenLen = 6;
constexpr int kCkptInterval = 2;

/// One full supervised run in `dir`; returns the generated tokens.
std::vector<std::vector<std::int64_t>> supervised_run(
    const std::string& dir, const runtime::RuntimeConfig& config) {
  recover::RecoveryManager manager({dir, kCkptInterval});
  auto gen = manager.start(config);
  gen->begin(kPrompts, kGenLen);
  while (!gen->done()) {
    gen->step();
    manager.note_step(*gen);
  }
  return gen->finish().tokens;
}

/// Fork a child that re-runs the supervised generation with SIGKILL armed
/// at check `at` of `site`. Returns the child's wait status.
int run_child_with_crash(const std::string& dir,
                         const runtime::RuntimeConfig& config,
                         const std::string& site, std::int64_t at,
                         std::uint64_t seed) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    util::ScopedFaultInjection chaos(seed);
    util::FaultSpec spec;
    spec.crash_at_op = at;
    chaos.arm(site, spec);
    try {
      supervised_run(dir, config);
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);  // the schedule never fired
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

TEST(CrashMatrix, EveryCrashSiteRecoversByteIdentically) {
  const auto config = drill_config();
  const std::uint64_t seed = 2024;

  util::TempDir ref_dir("recover_crash");
  const auto reference = supervised_run(ref_dir.path(), config);

  const std::vector<std::string> sites = {
      recover::kJournalAppendSite,
      store::BlockStore::kWriteSite,
      recover::kJournalFsyncSite,
      ckpt::kPublishSite,
  };
  constexpr int kMaxOpsPerSite = 3;

  util::TempDir dir("recover_crash");
  int kills = 0;
  for (const std::string& site : sites) {
    bool site_fired = false;
    for (int at = 0; at < kMaxOpsPerSite; ++at) {
      const int status =
          run_child_with_crash(dir.path(), config, site, at, seed);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) break;  // site done
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << site << " op " << at << ": unexpected child status " << status;
      site_fired = true;
      ++kills;

      // Recover from the on-disk state alone. A kill before the first
      // checkpoint legitimately recovers unresumed — the run then begins
      // from scratch, and determinism makes the tokens identical anyway.
      recover::RecoveryManager manager({dir.path(), kCkptInterval});
      recover::RecoveredSession session = manager.recover(&config);
      ASSERT_NE(session.generator, nullptr) << site << " op " << at;
      runtime::Generator& gen = *session.generator;
      if (!session.resumed) gen.begin(kPrompts, kGenLen);
      while (!gen.done()) {
        gen.step();
        manager.note_step(gen);
      }
      EXPECT_EQ(gen.finish().tokens, reference)
          << site << " op " << at << ": recovered tokens diverged";

      // Zero leaked blocks: after adoption + sweep, everything in use is
      // reachable through a committed keyed entry.
      auto& metrics = session.generator->manager().metrics();
      EXPECT_EQ(metrics.counter("recover.recoveries").value(), 1u)
          << site << " op " << at;
      store::BlockStore* store = session.generator->spill_store();
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(store->release_unclaimed(), 0u)
          << site << " op " << at << ": leaked unclaimed entries";
    }
    EXPECT_TRUE(site_fired) << site << ": crash schedule never fired — "
                            << "the drill is vacuous for this site";
  }
  EXPECT_GT(kills, 0);
}

TEST(CrashMatrix, RepeatedCrashesAcrossRecoveriesStillConverge) {
  // Crash, recover, crash the *recovered* run, recover again: the WAL is
  // compacted on every recovery, so state never accretes and the final
  // run still matches the reference.
  const auto config = drill_config();
  util::TempDir ref_dir("recover_crash");
  const auto reference = supervised_run(ref_dir.path(), config);

  util::TempDir dir("recover_crash");
  int status = run_child_with_crash(dir.path(), config,
                                    ckpt::kPublishSite, 1, 7);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Second incarnation: recovered in a child, killed again mid-journal.
  {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      util::ScopedFaultInjection chaos(8);
      util::FaultSpec spec;
      spec.crash_at_op = 0;
      chaos.arm(recover::kJournalAppendSite, spec);
      try {
        recover::RecoveryManager manager({dir.path(), kCkptInterval});
        auto session = manager.recover(&config);
        runtime::Generator& gen = *session.generator;
        if (!session.resumed) gen.begin(kPrompts, kGenLen);
        while (!gen.done()) {
          gen.step();
          manager.note_step(gen);
        }
        gen.finish();
      } catch (...) {
        ::_exit(3);
      }
      ::_exit(0);
    }
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "second crash never fired (status " << status << ")";
  }

  // Third incarnation recovers and finishes.
  recover::RecoveryManager manager({dir.path(), kCkptInterval});
  recover::RecoveredSession session = manager.recover(&config);
  runtime::Generator& gen = *session.generator;
  if (!session.resumed) gen.begin(kPrompts, kGenLen);
  while (!gen.done()) {
    gen.step();
    manager.note_step(gen);
  }
  EXPECT_EQ(gen.finish().tokens, reference);
}

}  // namespace
