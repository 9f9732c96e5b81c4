// Micro-benchmarks of the tensor compute kernels the real runtime uses:
// the scalar reference GEMM loop (tests/matmul_reference.hpp) vs the SSE2
// and AVX2 kernels behind matmul_nt_blocked, and the scalar fp16 decode vs
// Tensor::cast, each with a byte-equality check (exit 1 on a mismatch),
// plus softmax / layernorm / activation throughput.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/tensor/ops_detail.hpp"
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

/// Reference vs the SSE2 and AVX2 GEMM kernels over the runtime's shapes:
/// batch-1 and batch-8 decode projections, a 64-row prefill group, and a
/// square case. Returns false if any kernel's output differs from the
/// reference in a single byte.
bool gemm_kernels(bench::Session& session) {
  using tensor::detail::GemmKernel;
  struct Shape {
    std::int64_t m, k, n;
  };
  const Shape shapes[] = {{1, 128, 128},  {8, 128, 128}, {8, 128, 512},
                          {8, 512, 128},  {64, 128, 512}, {256, 256, 256}};
  const int reps = session.quick() ? 3 : 10;
  const bool avx2 = tensor::detail::cpu_has_avx2();
  util::Table table({"m x k x n", "reference ms", "sse2 ms", "avx2 ms",
                     "avx2 / sse2", "identical"});
  bool all_identical = true;
  for (const Shape& s : shapes) {
    const Tensor a = make(s.m, s.k, 1);
    const Tensor b = make(s.n, s.k, 2);
    const Tensor want = tensor::testing::reference_matmul_nt(a, b);
    const auto same = [&](const Tensor& got) {
      return std::memcmp(want.raw().data(), got.raw().data(),
                         want.raw().size()) == 0;
    };
    bool identical = same(tensor::matmul_nt_blocked(a, b)) &&
                     same(tensor::detail::matmul_nt_with(GemmKernel::kSse2,
                                                         a, b));
    if (avx2) {
      identical = identical && same(tensor::detail::matmul_nt_with(
                                   GemmKernel::kAvx2, a, b));
    }
    all_identical = all_identical && identical;
    const double ref = best_seconds(
        reps, [&] { return tensor::testing::reference_matmul_nt(a, b); });
    const double sse2 = best_seconds(reps, [&] {
      return tensor::detail::matmul_nt_with(GemmKernel::kSse2, a, b);
    });
    const double wide =
        avx2 ? best_seconds(reps,
                            [&] {
                              return tensor::detail::matmul_nt_with(
                                  GemmKernel::kAvx2, a, b);
                            })
             : 0.0;
    const std::string name = std::to_string(s.m) + "x" + std::to_string(s.k) +
                             "x" + std::to_string(s.n);
    table.add_row({name, bench::fmt(ref * 1e3, 3), bench::fmt(sse2 * 1e3, 3),
                   avx2 ? bench::fmt(wide * 1e3, 3) : "n/a",
                   avx2 ? bench::fmt(sse2 / wide, 2) : "n/a",
                   identical ? "yes" : "NO"});
    session.metric("matmul." + name + ".sse2_speedup", ref / sse2);
    if (avx2) session.metric("matmul." + name + ".avx2_speedup", ref / wide);
  }
  session.metric("matmul.identical", all_identical ? 1.0 : 0.0);
  bench::print_header("GEMM kernels: scalar reference vs SSE2 vs AVX2");
  table.print(std::cout);
  return all_identical;
}

/// fp16 → f32 decode (the host-tier weight upcast on every fetch): the
/// scalar f16_bits_to_f32 loop vs Tensor::cast on one 512 × 128 weight,
/// in ns per element, with a byte-equality check. Returns false on a
/// mismatch.
bool f16_decode(bench::Session& session) {
  const std::int64_t n = 512 * 128;
  const Tensor half = make(1, n, 3).cast(tensor::DType::kF16);
  const auto* bits = reinterpret_cast<const std::uint16_t*>(half.raw().data());
  const int reps = session.quick() ? 10 : 100;
  const auto scalar_decode = [&] {
    Tensor out = Tensor::zeros({1, n});
    float* dst = out.f32().data();
    for (std::int64_t i = 0; i < n; ++i) {
      dst[i] = tensor::f16_bits_to_f32(bits[i]);
    }
    return out;
  };
  const Tensor want = scalar_decode();
  const Tensor got = half.cast(tensor::DType::kF32);
  const bool identical = std::memcmp(want.raw().data(), got.raw().data(),
                                     want.raw().size()) == 0;
  const double per = 1e9 / static_cast<double>(n);
  const double scalar = best_seconds(reps, scalar_decode) * per;
  const double cast =
      best_seconds(reps, [&] { return half.cast(tensor::DType::kF32); }) *
      per;
  util::Table table({"elements", "scalar ns/elem", "cast ns/elem", "speedup",
                     "identical"});
  table.add_row({std::to_string(n), bench::fmt(scalar, 3),
                 bench::fmt(cast, 3), bench::fmt(scalar / cast, 2),
                 identical ? "yes" : "NO"});
  session.metric("f16_decode.ns_per_element", cast);
  session.metric("f16_decode.identical", identical ? 1.0 : 0.0);
  bench::print_header("fp16 -> f32 decode: f16_bits_to_f32 loop vs cast");
  table.print(std::cout);
  return identical;
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
  const bool gemm_identical = gemm_kernels(session);
  const bool f16_identical = f16_decode(session);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gemm_identical && f16_identical ? 0 : 1;
}
