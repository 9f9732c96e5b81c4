// Tests for thread-pool execution, Kahn concurrency analysis, the thread-
// scaling model (paper Fig. 5's shape), Algorithm 3, operator bundling and
// the cache-miss model (paper Table 5's bands).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lmo/parallel/bundling.hpp"
#include "lmo/parallel/cache_model.hpp"
#include "lmo/parallel/interop.hpp"
#include "lmo/parallel/parallelism_search.hpp"
#include "lmo/parallel/profile_db.hpp"
#include "lmo/parallel/scaling.hpp"
#include "lmo/parallel/threadpool.hpp"
#include "lmo/util/check.hpp"

namespace lmo::parallel {
namespace {

using util::CheckError;

// ------------------------------------------------------------ threadpool --

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.completed(), 100u);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, FuturePropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      const int now = ++in_flight;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      --in_flight;
    });
  }
  pool.wait_idle();
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, ParallelForRunsEveryChunkOnceOnDistinctLanes) {
  ThreadPool pool(3);
  for (std::int64_t n : {0, 1, 2, 3, 4, 5, 17, 64}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    std::vector<std::atomic<int>> busy(4);
    std::atomic<bool> shared_lane{false};
    pool.parallel_for(n, [&](std::int64_t i, int lane) {
      ASSERT_GE(lane, 0);
      ASSERT_LT(lane, 4);
      if (busy[static_cast<std::size_t>(lane)].fetch_add(1) != 0) {
        shared_lane = true;
      }
      ++hits[static_cast<std::size_t>(i)];
      busy[static_cast<std::size_t>(lane)].fetch_sub(1);
    });
    EXPECT_FALSE(shared_lane) << "n = " << n;
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
    }
  }
  // The lane cap holds too.
  std::atomic<int> top{0};
  pool.parallel_for(
      32,
      [&](std::int64_t, int lane) {
        int seen = top.load();
        while (lane > seen && !top.compare_exchange_weak(seen, lane)) {
        }
      },
      2);
  EXPECT_LE(top.load(), 1);
}

TEST(ThreadPool, ParallelForStress) {
  // Many fork-joins with uneven chunk counts, some with a throwing chunk,
  // while another thread resizes the pool and submits tasks. Every call
  // must run each chunk at most once (exactly once when none throws),
  // rethrow the chunk's exception only after every started chunk has
  // returned, and leave the pool usable.
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  std::thread resizer([&] {
    int size = 1;
    while (!done.load()) {
      pool.resize(size);
      pool.submit([] {}).get();
      size = size % 4 + 1;
    }
  });
  for (int call = 0; call < 400; ++call) {
    const std::int64_t n = 1 + (call * 7) % 23;
    const std::int64_t throw_at = call % 5 == 0 ? (call / 5) % n : -1;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    std::atomic<int> running{0};
    const auto body = [&](std::int64_t i, int) {
      ++running;
      ++hits[static_cast<std::size_t>(i)];
      if (i == throw_at) {
        --running;
        throw std::runtime_error("chunk " + std::to_string(i));
      }
      std::this_thread::yield();
      --running;
    };
    if (throw_at >= 0) {
      EXPECT_THROW(pool.parallel_for(n, body), std::runtime_error);
    } else {
      pool.parallel_for(n, body);
    }
    EXPECT_EQ(running.load(), 0) << "call " << call;
    for (std::int64_t i = 0; i < n; ++i) {
      const int h = hits[static_cast<std::size_t>(i)].load();
      if (throw_at >= 0) {
        EXPECT_LE(h, 1) << "call " << call << " chunk " << i;
      } else {
        EXPECT_EQ(h, 1) << "call " << call << " chunk " << i;
      }
    }
  }
  done = true;
  resizer.join();

  // A chunk that calls back into its own pool runs the inner loop inline.
  std::atomic<int> inner{0};
  pool.parallel_for(4, [&](std::int64_t, int) {
    pool.parallel_for(3, [&](std::int64_t, int) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 12);
}

// --------------------------------------------------------------- interop --

model::OpGraph diamond() {
  model::OpGraph g;
  const auto a = g.add_op("a");
  const auto b = g.add_op("b");
  const auto c = g.add_op("c");
  const auto d = g.add_op("d");
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  return g;
}

TEST(InterOp, RunsEveryOpOnceRespectingDeps) {
  auto g = diamond();
  ThreadPool pool(4);
  std::vector<std::atomic<bool>> done(4);
  const auto stats = run_graph(g, pool, 4, [&](model::OpId id) {
    // Dependencies must have completed.
    for (model::OpId p : g.predecessors(id)) {
      EXPECT_TRUE(done[static_cast<std::size_t>(p)].load());
    }
    done[static_cast<std::size_t>(id)] = true;
  });
  EXPECT_EQ(stats.ops_executed, 4u);
  for (auto& d : done) EXPECT_TRUE(d.load());
}

TEST(InterOp, AdmissionLimitBoundsConcurrency) {
  // Wide graph (8 independent ops) with inter-op limit 2.
  model::OpGraph g;
  for (int i = 0; i < 8; ++i) g.add_op("op" + std::to_string(i));
  ThreadPool pool(8);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  const auto stats = run_graph(g, pool, 2, [&](model::OpId) {
    const int now = ++in_flight;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --in_flight;
  });
  EXPECT_LE(peak.load(), 2);
  EXPECT_LE(stats.peak_concurrency, 2u);
  EXPECT_EQ(stats.ops_executed, 8u);
}

TEST(InterOp, BodyExceptionIsRethrown) {
  auto g = diamond();
  ThreadPool pool(2);
  EXPECT_THROW(run_graph(g, pool, 2,
                         [&](model::OpId id) {
                           if (id == 0) throw std::runtime_error("op fail");
                         }),
               std::runtime_error);
}

// --------------------------------------------------------------- scaling --

TEST(Scaling, BandwidthSaturatesAtConfiguredThreads) {
  const auto cpu = hw::Platform::a100_single().cpu;
  ThreadScalingModel m(cpu);
  EXPECT_LT(m.effective_bandwidth(1), m.effective_bandwidth(4));
  EXPECT_LT(m.effective_bandwidth(4), m.effective_bandwidth(8));
  EXPECT_DOUBLE_EQ(m.effective_bandwidth(8), m.effective_bandwidth(16));
  EXPECT_DOUBLE_EQ(m.effective_bandwidth(8), cpu.mem_bandwidth);
}

TEST(Scaling, Fig5IntraOpShape) {
  // Paper Fig. 5 (left): throughput rises with intra-op threads then goes
  // stable past ~8 for memory-bound attention ops.
  const auto cpu = hw::Platform::a100_single().cpu;
  ThreadScalingModel m(cpu);
  model::OpNode op{"bmm", 1e9, 4e9, -1};  // memory-bound
  const double t1 = m.op_seconds(op, 1, 1);
  const double t4 = m.op_seconds(op, 4, 4);
  const double t8 = m.op_seconds(op, 8, 8);
  const double t16 = m.op_seconds(op, 16, 16);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t8);
  EXPECT_NEAR(t16 / t8, 1.0, 0.25);  // flat region (NUMA slack allowed)
}

TEST(Scaling, OversubscriptionPenalizes) {
  const auto cpu = hw::Platform::a100_single().cpu;  // 56 cores
  ThreadScalingModel m(cpu);
  EXPECT_DOUBLE_EQ(m.contention_factor(56), 1.0);
  EXPECT_GT(m.contention_factor(112), 1.0);
  EXPECT_GT(m.contention_factor(224), m.contention_factor(112));
  model::OpNode op{"bmm", 1e9, 4e9, -1};
  EXPECT_GT(m.op_seconds(op, 8, 448), m.op_seconds(op, 8, 8));
}

TEST(Scaling, NumaPenaltyWhenSpanningSockets) {
  const auto cpu = hw::Platform::a100_single().cpu;  // 2 sockets × 28 cores
  ThreadScalingModel m(cpu);
  // Memory-bound op past bandwidth saturation: thread count no longer
  // helps, so crossing the socket boundary shows the bare NUMA multiplier.
  model::OpNode op{"bmm", 1.0, 4e9, -1};
  const double one_socket = m.op_seconds(op, 28, 28);
  const double two_sockets = m.op_seconds(op, 32, 32);
  EXPECT_NEAR(two_sockets / one_socket, m.params().numa_penalty, 0.02);
}

TEST(Scaling, PerOpComputeCapLimitsSingleKernelScaling) {
  const auto cpu = hw::Platform::a100_single().cpu;
  ThreadScalingModel m(cpu);
  model::OpNode op{"gemm", 1e12, 1e6, -1};  // compute-bound
  // Beyond the per-op cap, more threads buy nothing (and NUMA hurts).
  EXPECT_GE(m.op_seconds(op, 28, 28), m.op_seconds(op, 16, 16) * 0.99);
}

TEST(Scaling, OversubscriptionNeverCreatesCapacity) {
  // 9 co-running ops × 56 threads cannot beat 9 ops × 6 threads on 56
  // cores: fair sharing plus thrash makes the oversubscribed plan slower.
  const auto cpu = hw::Platform::a100_single().cpu;
  ThreadScalingModel m(cpu);
  model::OpNode op{"proj", 6.6e9, 1.05e8, -1};
  EXPECT_GT(m.op_seconds(op, 56, 9 * 56), m.op_seconds(op, 6, 9 * 6));
}

// -------------------------------------------------------------- profiles --

TEST(ProfileDB, RecordLookupNearest) {
  ProfileDB db;
  db.record("bmm", 4, 0.010);
  db.record("bmm", 8, 0.006);
  EXPECT_TRUE(db.has("bmm", 4));
  EXPECT_FALSE(db.has("bmm", 2));
  EXPECT_DOUBLE_EQ(db.lookup("bmm", 8), 0.006);
  EXPECT_THROW(db.lookup("bmm", 2), CheckError);
  EXPECT_DOUBLE_EQ(db.lookup_nearest("bmm", 5), 0.010);
  EXPECT_DOUBLE_EQ(db.lookup_nearest("bmm", 7), 0.006);
  EXPECT_THROW(db.lookup_nearest("softmax", 4), CheckError);
}

TEST(ProfileDB, FromScalingModelCoversAllOps) {
  model::AttentionGraphParams params{.hidden = 256, .seq_len = 64,
                                     .batch = 8, .num_batches = 2,
                                     .kv_bits = 16};
  const auto graph = model::build_attention_graph(params);
  ThreadScalingModel m(hw::Platform::a100_single().cpu);
  const auto db = ProfileDB::from_scaling_model(graph, m, {1, 4, 8});
  EXPECT_EQ(db.size(), graph.size() * 3);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    EXPECT_TRUE(db.has(graph.node(static_cast<model::OpId>(i)).name, 4));
  }
}

TEST(ProfileDB, MeasureRecordsMedian) {
  ProfileDB db;
  db.measure("sleepy", 1, 3, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_GE(db.lookup("sleepy", 1), 0.0005);
}

// -------------------------------------------------------------- bundling --

TEST(Bundling, FusesSmallLinearChainOps) {
  model::OpGraph g;
  const auto big = g.add_op("big", 1e9, 1e9);
  const auto tiny = g.add_op("tiny", 10.0, 10.0);  // sole successor of big
  const auto big2 = g.add_op("big2", 1e9, 1e9);
  g.add_edge(big, tiny);
  g.add_edge(tiny, big2);
  const int bundles = bundle_small_ops(g);
  EXPECT_EQ(bundles, 2);  // tiny fused into big
  EXPECT_EQ(g.node(big).bundle, g.node(tiny).bundle);
  EXPECT_NE(g.node(big).bundle, g.node(big2).bundle);
}

TEST(Bundling, DoesNotFuseAcrossForks) {
  model::OpGraph g;
  const auto src = g.add_op("src", 1e9, 1e9);
  const auto t1 = g.add_op("t1", 1.0, 1.0);
  const auto t2 = g.add_op("t2", 1.0, 1.0);
  g.add_edge(src, t1);
  g.add_edge(src, t2);  // src has two dependents — no fusion
  const int bundles = bundle_small_ops(g);
  EXPECT_EQ(bundles, 3);
}

TEST(Bundling, BundledGraphSumsCostsAndStaysAcyclic) {
  model::AttentionGraphParams params{.hidden = 64, .seq_len = 16, .batch = 2,
                                     .num_batches = 1, .kv_bits = 16};
  auto g = model::build_attention_graph(params);
  const double flops = g.total_flops();
  const double bytes = g.total_bytes();
  bundle_small_ops(g);
  const auto coarse = bundled_graph(g);
  EXPECT_LE(coarse.size(), g.size());
  EXPECT_TRUE(coarse.is_acyclic());
  EXPECT_NEAR(coarse.total_flops(), flops, 1.0);
  EXPECT_NEAR(coarse.total_bytes(), bytes, 1.0);
}

TEST(Bundling, RequiresAssignmentBeforeCoarsening) {
  model::OpGraph g;
  g.add_op("a");
  EXPECT_THROW(bundled_graph(g), CheckError);
}

// ------------------------------------------------ Algorithm 3 (the search) --

SearchInput paper_search_input() {
  SearchInput input;
  model::AttentionGraphParams params{.hidden = 7168, .seq_len = 68,
                                     .batch = 64, .num_batches = 3,
                                     .kv_bits = 16};
  input.compute_graph = model::build_attention_graph(params);
  input.io_bytes = {1.2e9, 9e6, 0.0, 0.0, 9e6};  // weight-load dominated
  input.platform = hw::Platform::a100_single();
  return input;
}

TEST(Algorithm3, ProducesValidPlanWithinBudget) {
  const auto input = paper_search_input();
  const auto plan = find_optimal_parallelism(input);
  ASSERT_TRUE(plan.valid);
  const int budget = input.platform.cpu.cores;
  EXPECT_GE(plan.intra_op_compute, 1);
  EXPECT_GE(plan.inter_op_compute, 1);
  // Line 7: at least five threads remain for the I/O tasks.
  EXPECT_GE(budget - plan.inter_op_compute * plan.intra_op_compute, 5);
  // Inter-op total = compute + the five load/store tasks.
  EXPECT_EQ(plan.inter_op_total, plan.inter_op_compute + 5);
  for (int t : plan.io_threads) EXPECT_GE(t, 1);
  EXPECT_GT(plan.t_gen, 0.0);
}

TEST(Algorithm3, IoThreadsProportionalToVolume) {
  auto input = paper_search_input();
  input.io_bytes = {8e9, 1e6, 1e6, 1e6, 1e6};  // load_weight dwarfs others
  const auto plan = find_optimal_parallelism(input);
  for (std::size_t i = 1; i < kNumIoTasks; ++i) {
    EXPECT_GE(plan.io_threads[kLoadWeight], plan.io_threads[i]);
  }
}

TEST(Algorithm3, BeatsDefaultThreading) {
  // The controlled plan must out-perform framework defaults (oversubscribed
  // 56×112) on the same inputs — paper Fig. 8's 32% compute reduction.
  const auto input = paper_search_input();
  const auto tuned = find_optimal_parallelism(input);
  const auto fallback = default_parallelism(input);
  EXPECT_LT(tuned.compute_seconds, fallback.compute_seconds);
  EXPECT_LE(tuned.t_gen, fallback.t_gen);
}

TEST(Algorithm3, DefaultUsesAllCoresIntraOp) {
  const auto input = paper_search_input();
  const auto plan = default_parallelism(input);
  EXPECT_EQ(plan.intra_op_compute, input.platform.cpu.cores);
  EXPECT_TRUE(plan.valid);
}

TEST(Algorithm3, DiskTaskReservesThreadsAndJoinsCriticalPath) {
  auto input = paper_search_input();
  input.disk_bytes = 4e9;
  input.disk_gbps = 2.0;
  const auto plan = find_optimal_parallelism(input);
  ASSERT_TRUE(plan.valid);
  EXPECT_GE(plan.disk_threads, 1);
  EXPECT_LE(plan.disk_threads, 4);
  EXPECT_GT(plan.disk_seconds, 0.0);
  EXPECT_GE(plan.t_gen, plan.disk_seconds);  // t_gen is a max over tasks
  // Inter-op total now includes the disk-load task alongside the five
  // host I/O tasks.
  EXPECT_EQ(plan.inter_op_total, plan.inter_op_compute + 5 + 1);
  // Line 7's reservation grows by the disk staging threads.
  const int budget = input.platform.cpu.cores;
  EXPECT_GE(budget - plan.inter_op_compute * plan.intra_op_compute,
            5 + plan.disk_threads);
}

TEST(Algorithm3, SlowerDiskExtendsDiskTask) {
  auto fast = paper_search_input();
  fast.disk_bytes = 4e9;
  fast.disk_gbps = 4.0;
  auto slow = fast;
  slow.disk_gbps = 1.0;
  EXPECT_GT(find_optimal_parallelism(slow).disk_seconds,
            find_optimal_parallelism(fast).disk_seconds);
}

TEST(Algorithm3, NoDiskBytesKeepsLegacyPlanBitForBit) {
  const auto base = find_optimal_parallelism(paper_search_input());
  auto input = paper_search_input();
  input.disk_gbps = 3.0;  // bandwidth alone (no bytes) must change nothing
  const auto plan = find_optimal_parallelism(input);
  EXPECT_EQ(plan.disk_threads, 0);
  EXPECT_EQ(plan.disk_seconds, 0.0);
  EXPECT_EQ(plan.inter_op_compute, base.inter_op_compute);
  EXPECT_EQ(plan.intra_op_compute, base.intra_op_compute);
  EXPECT_EQ(plan.inter_op_total, base.inter_op_total);
  EXPECT_EQ(plan.io_threads, base.io_threads);
  EXPECT_EQ(plan.t_gen, base.t_gen);
}

TEST(Algorithm3, DefaultPlanGivesDiskTaskOneThread) {
  auto input = paper_search_input();
  input.disk_bytes = 2e9;
  input.disk_gbps = 2.0;
  const auto plan = default_parallelism(input);
  EXPECT_EQ(plan.disk_threads, 1);
  EXPECT_GT(plan.disk_seconds, 0.0);
  EXPECT_EQ(plan.inter_op_total, plan.inter_op_compute + 5 + 1);
}

TEST(Algorithm3, MaxConcurrencyTimedMatchesStructure) {
  const auto g = diamond();
  const auto uniform = [](const model::OpNode&) { return 1.0; };
  EXPECT_EQ(max_concurrency_timed(g, uniform), 2);  // b ∥ c
  // Chain graph has concurrency 1.
  model::OpGraph chain;
  auto prev = chain.add_op("0");
  for (int i = 1; i < 5; ++i) {
    const auto next = chain.add_op(std::to_string(i));
    chain.add_edge(prev, next);
    prev = next;
  }
  EXPECT_EQ(max_concurrency_timed(chain, uniform), 1);
}

TEST(Algorithm3, ScheduleMakespanShrinksWithMoreLanes) {
  model::OpGraph g;
  for (int i = 0; i < 6; ++i) g.add_op("op" + std::to_string(i));
  const auto uniform = [](const model::OpNode&) { return 1.0; };
  EXPECT_DOUBLE_EQ(schedule_compute_graph(g, 1, uniform), 6.0);
  EXPECT_DOUBLE_EQ(schedule_compute_graph(g, 3, uniform), 2.0);
  EXPECT_DOUBLE_EQ(schedule_compute_graph(g, 6, uniform), 1.0);
}

TEST(Algorithm3, ProfilesOverrideModel) {
  auto input = paper_search_input();
  ProfileDB profiles;
  // Claim every op is instant at 2 threads — the search should love it.
  for (std::size_t i = 0; i < input.compute_graph.size(); ++i) {
    profiles.record(
        input.compute_graph.node(static_cast<model::OpId>(i)).name, 2, 1e-7);
  }
  const auto plan = find_optimal_parallelism(input, &profiles);
  EXPECT_EQ(plan.intra_op_compute, 2);
}

// ------------------------------------------------------------ cache model --

TEST(CacheModel, Table5Bands) {
  // Paper Table 5 (OPT-30B, gen len 8, default FlexGen setting): load
  // misses 10B → 6B, store misses 19B → 12B under parallelism control.
  const auto spec = model::ModelSpec::opt_30b();
  const model::Workload w{.prompt_len = 64, .gen_len = 8, .gpu_batch = 64,
                          .num_batches = 10};
  const auto off = estimate_llc_misses(spec, w, 16, false);
  const auto on = estimate_llc_misses(spec, w, 16, true);
  EXPECT_NEAR(off.load_misses / 1e9, 10.0, 3.0);
  EXPECT_NEAR(on.load_misses / 1e9, 6.0, 2.0);
  EXPECT_NEAR(off.store_misses / 1e9, 19.0, 5.0);
  EXPECT_NEAR(on.store_misses / 1e9, 12.0, 4.0);
  // ~38% reduction in both.
  EXPECT_NEAR(1.0 - on.load_misses / off.load_misses, 0.38, 0.08);
  EXPECT_NEAR(1.0 - on.store_misses / off.store_misses, 0.38, 0.08);
}

TEST(CacheModel, MissesGrowWithGenerationLength) {
  const auto spec = model::ModelSpec::opt_30b();
  model::Workload w8{.prompt_len = 64, .gen_len = 8, .gpu_batch = 64,
                     .num_batches = 10};
  model::Workload w32 = w8;
  w32.gen_len = 32;
  EXPECT_GT(estimate_llc_misses(spec, w32, 16, false).load_misses,
            estimate_llc_misses(spec, w8, 16, false).load_misses * 3);
}

}  // namespace
}  // namespace lmo::parallel
