// Micro-benchmarks of the tensor compute kernels the real runtime uses:
// the scalar reference GEMM loop (tests/matmul_reference.hpp) vs the
// register-tiled matmul_nt_blocked, with a byte-equality check per shape,
// plus softmax / layernorm / activation throughput.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/rng.hpp"
#include "matmul_reference.hpp"

namespace {

using namespace lmo;
using tensor::Tensor;

Tensor make(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return Tensor::uniform({rows, cols}, rng);
}

template <typename Kernel>
double best_seconds(int reps, Kernel&& kernel) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const Tensor c = kernel();
    benchmark::DoNotOptimize(c.raw().data());
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

/// Reference-vs-tiled table over the runtime's GEMM shapes: batch-1 and
/// batch-8 decode projections, a 64-row prefill group, and a square case.
/// Returns false if any shape's outputs differ in a single byte.
bool reference_vs_tiled(bench::Session& session) {
  struct Shape {
    std::int64_t m, k, n;
  };
  const Shape shapes[] = {{1, 128, 128},  {8, 128, 128}, {8, 128, 512},
                          {8, 512, 128},  {64, 128, 512}, {256, 256, 256}};
  const int reps = session.quick() ? 3 : 10;
  util::Table table({"m x k x n", "reference ms", "tiled ms", "speedup",
                     "identical"});
  bool all_identical = true;
  for (const Shape& s : shapes) {
    const Tensor a = make(s.m, s.k, 1);
    const Tensor b = make(s.n, s.k, 2);
    const Tensor want = tensor::testing::reference_matmul_nt(a, b);
    const Tensor got = tensor::matmul_nt_blocked(a, b);
    const bool identical = std::memcmp(want.raw().data(), got.raw().data(),
                                       want.raw().size()) == 0;
    all_identical = all_identical && identical;
    const double ref = best_seconds(
        reps, [&] { return tensor::testing::reference_matmul_nt(a, b); });
    const double tiled =
        best_seconds(reps, [&] { return tensor::matmul_nt_blocked(a, b); });
    const std::string name = std::to_string(s.m) + "x" + std::to_string(s.k) +
                             "x" + std::to_string(s.n);
    table.add_row({name, bench::fmt(ref * 1e3, 3), bench::fmt(tiled * 1e3, 3),
                   bench::fmt(ref / tiled, 2), identical ? "yes" : "NO"});
    session.metric("matmul." + name + ".speedup", ref / tiled);
  }
  session.metric("matmul.identical", all_identical ? 1.0 : 0.0);
  bench::print_header("matmul_nt_blocked: scalar reference vs tiled");
  table.print(std::cout);
  return all_identical;
}

void BM_MatmulNtReference(benchmark::State& state) {
  const auto n = state.range(0);
  const Tensor a = make(n, n, 1);
  const Tensor b = make(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::testing::reference_matmul_nt(a, b, 64);
    benchmark::DoNotOptimize(c.raw().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulNtReference)->MinTime(0.05)->Arg(64)->Arg(256)->Arg(512);

void BM_MatmulNtBlocked(benchmark::State& state) {
  const auto n = state.range(0);
  const Tensor a = make(n, n, 1);
  const Tensor b = make(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul_nt_blocked(a, b, 64);
    benchmark::DoNotOptimize(c.raw().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulNtBlocked)->MinTime(0.05)->Arg(64)->Arg(256)->Arg(512);

void BM_Softmax(benchmark::State& state) {
  const Tensor a = make(256, 1024, 3);
  for (auto _ : state) {
    auto s = tensor::softmax_rows(a);
    benchmark::DoNotOptimize(s.raw().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.byte_size()));
}
BENCHMARK(BM_Softmax)->MinTime(0.05);

void BM_LayerNorm(benchmark::State& state) {
  const Tensor a = make(256, 1024, 4);
  const Tensor gamma = Tensor::full({1024}, 1.0f);
  const Tensor beta = Tensor::zeros({1024});
  for (auto _ : state) {
    auto n = tensor::layer_norm(a, gamma, beta);
    benchmark::DoNotOptimize(n.raw().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.byte_size()));
}
BENCHMARK(BM_LayerNorm)->MinTime(0.05);

void BM_Activations(benchmark::State& state) {
  const Tensor a = make(256, 1024, 5);
  const int which = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Tensor out = which == 0   ? tensor::gelu(a)
                 : which == 1 ? tensor::relu(a)
                              : tensor::silu(a);
    benchmark::DoNotOptimize(out.raw().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.byte_size()));
}
BENCHMARK(BM_Activations)
    ->MinTime(0.05)
    ->Arg(0)   // gelu
    ->Arg(1)   // relu
    ->Arg(2);  // silu

}  // namespace

int main(int argc, char** argv) {
  // Strip the repo-wide --quick/--json flags before google-benchmark sees
  // the command line (it rejects flags it does not know).
  lmo::bench::Session session(argc, argv, "bench_tensor_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool identical = reference_vs_tiled(session);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return identical ? 0 : 1;
}
