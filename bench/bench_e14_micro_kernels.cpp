// E14 — in-memory kernel microbenchmarks (google-benchmark): the local
// computation the PDM model treats as free. Quantifies the premise that
// CPU work per pass is far cheaper than the I/O it accompanies.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>

#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "internal/radix_partition.h"
#include "pdm/pdm_context.h"
#include "primitives/run_formation.h"
#include "util/cpu_pool.h"
#include "util/generators.h"
#include "util/rng.h"

namespace pdm {
namespace {

void BM_StdSort(benchmark::State& state) {
  const usize n = static_cast<usize>(state.range(0));
  Rng rng(1);
  auto base = make_keys(n, Dist::kUniform, rng);
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_StdSort)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

void BM_ParallelSort(benchmark::State& state) {
  const usize n = static_cast<usize>(state.range(0));
  CpuPool pool(4);
  Rng rng(1);
  auto base = make_keys(n, Dist::kUniform, rng);
  std::vector<u64> scratch(n);
  for (auto _ : state) {
    auto v = base;
    internal_sort_budgeted(std::span<u64>(v), std::less<u64>{}, pool,
                           std::span<u64>(scratch));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 18)->Arg(1 << 21);

// Keys for the in-core kernel rows: 0 = permutation of 0..n-1 (only the
// low log2(n) key bits vary), 1 = uniform 64-bit keys, 2 = that
// permutation with one key moved to 2^40 (one top-digit bucket holds all
// but one record), 3 = 16-bit keys with 1% uniform 64-bit keys among them.
std::vector<u64> kernel_keys(usize n, i64 shape, Rng& rng) {
  if (shape < 2) {
    return make_keys(n, shape == 0 ? Dist::kPermutation : Dist::kUniform,
                     rng);
  }
  std::vector<u64> v(n);
  if (shape == 2) {
    v = make_keys(n, Dist::kPermutation, rng);
    v[rng.below(n)] = u64{1} << 40;
  } else {
    for (u64& k : v) k = rng.below(100) == 0 ? rng.next() : rng.below(1 << 16);
  }
  return v;
}

const char* kernel_keys_name(i64 shape) {
  switch (shape) {
    case 0: return "permutation";
    case 1: return "uniform";
    case 2: return "outlier";
    default: return "sparse-wide";
  }
}

// The in-core kernel as the sorters call it. Args: n, the key shape
// (kernel_keys), then the kernel budget. `with_scratch` passes scratch for
// every record (u64 keys take the distributing radix path) or none, as
// every budget-1 sorter calls it (kernel_scratch is empty there; the
// in-place radix path).
void time_internal_sort(benchmark::State& state, bool with_scratch) {
  const usize n = static_cast<usize>(state.range(0));
  CpuPool pool(static_cast<usize>(state.range(2)));
  Rng rng(6);
  const auto base = kernel_keys(n, state.range(1), rng);
  std::vector<u64> v(n);
  std::vector<u64> scratch(with_scratch ? n : 0);
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(base.begin(), base.end(), v.begin());
    state.ResumeTiming();
    internal_sort_budgeted(std::span<u64>(v), std::less<u64>{}, pool,
                           std::span<u64>(scratch));
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(kernel_keys_name(state.range(1)));
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n * sizeof(u64)));
}

// Mid sizes (2^15, 2^16) show whether the kernel budget pays there; the
// skewed rows leave one top-digit bucket far above the cache.
void BM_InternalSort(benchmark::State& state) {
  time_internal_sort(state, true);
}
BENCHMARK(BM_InternalSort)
    ->ArgsProduct({{1 << 15, 1 << 16, 1 << 18, 1 << 20}, {0, 1}, {1, 4}})
    ->ArgsProduct({{1 << 20}, {2, 3}, {4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_InternalSortNoScratch(benchmark::State& state) {
  time_internal_sort(state, false);
}
BENCHMARK(BM_InternalSortNoScratch)
    ->ArgsProduct({{1 << 18, 1 << 20}, {0, 1}, {1}})
    ->Args({1 << 14, 1, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_LoserTreeMerge(benchmark::State& state) {
  const usize k = static_cast<usize>(state.range(0));
  const usize per = 1 << 14;
  Rng rng(2);
  std::vector<std::vector<u64>> runs(k);
  for (auto& r : runs) {
    r = make_keys(per, Dist::kUniform, rng);
    std::sort(r.begin(), r.end());
  }
  std::vector<u64> out(k * per);
  for (auto _ : state) {
    LoserTree<u64> tree(k);
    std::vector<usize> pos(k, 1);
    for (usize i = 0; i < k; ++i) tree.set_initial(i, runs[i][0]);
    tree.build();
    usize o = 0;
    while (!tree.empty()) {
      const usize s = tree.min_source();
      out[o++] = tree.min_value();
      if (pos[s] < per) {
        tree.replace_min(runs[s][pos[s]++]);
      } else {
        tree.exhaust_min();
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(k * per));
}
BENCHMARK(BM_LoserTreeMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The loser-tree loop of replacement_select_runs without its I/O: an
// M-record tree in which each emitted record is replaced by the next
// input record, tagged with the current run or, when it arrives too late
// for it, the next one. The function runs this loop for records and
// comparators outside kRadixSortable, and after the first failed batch
// check otherwise (BM_ReplacementSelectRuns times the whole function).
// Args: M, then 0 = near-sorted (displacement N/32), 1 = random
// permutation; N = 2^20.
void BM_ReplacementSelection(benchmark::State& state) {
  const usize m = static_cast<usize>(state.range(0));
  const Dist dist =
      state.range(1) == 0 ? Dist::kNearSortedDisplaced : Dist::kPermutation;
  const usize n = usize{1} << 20;
  Rng rng(5);
  const auto in = make_keys(n, dist, rng);
  std::vector<u64> out(n);
  u32 last_run = 0;
  for (auto _ : state) {
    LoserTree<u64> tree(m);
    for (usize i = 0; i < m; ++i) tree.set_initial(i, in[i]);
    tree.build();
    usize next = m;
    usize o = 0;
    while (!tree.empty()) {
      const u64 top = tree.min_value();
      last_run = tree.min_tag();
      out[o++] = top;
      if (next < n) {
        const u64 x = in[next++];
        tree.replace_min(x, x < top ? last_run + 1 : last_run);
      } else {
        tree.exhaust_min();
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(dist_name(dist));
  state.counters["runs"] = last_run + 1;
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_ReplacementSelection)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 18}, {0, 1}});

// replacement_select_runs as the sorters call it, through a memory-backed
// context (4 disks of 4 KiB blocks, kernel budget 1), so the time includes
// its reads and writes. Under std::less, u64 keys take run 0 in sorted
// batches until a batch fails its check; a lambda with the same order runs
// the loser tree throughout. On permutation input the first check fails,
// so the std::less row pays for the sorted heap fill and then runs the
// tree. Args: M, then 0 = near-sorted (displacement N/32), 1 = random
// permutation, then 0 = std::less, 1 = lambda; N = 2^20.
void BM_ReplacementSelectRuns(benchmark::State& state) {
  const u64 m = static_cast<u64>(state.range(0));
  const Dist dist =
      state.range(1) == 0 ? Dist::kNearSortedDisplaced : Dist::kPermutation;
  const bool tree = state.range(2) != 0;
  const usize n = usize{1} << 20;
  Rng rng(5);
  const auto in = make_keys(n, dist, rng);
  usize runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto ctx = make_memory_context(4, 4096, 1);
    std::optional<StripedRun<u64>> staged(
        write_input_run<u64>(*ctx, std::span<const u64>(in)));
    state.ResumeTiming();
    auto select = [&](auto cmp) {
      return replacement_select_runs<u64>(*ctx, *staged, m, 0, 0, false,
                                          flat_run_start_stride(ctx->D()),
                                          cmp);
    };
    auto out = tree ? select([](u64 a, u64 b) { return a < b; })
                    : select(std::less<u64>{});
    runs = out.size();
    benchmark::DoNotOptimize(out.data());
    state.PauseTiming();
    out.clear();  // the runs and the input release their blocks first
    staged.reset();
    ctx.reset();
    state.ResumeTiming();
  }
  state.SetLabel(std::string(dist_name(dist)) +
                 (tree ? "/lambda" : "/std::less"));
  state.counters["runs"] = static_cast<double>(runs);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_ReplacementSelectRuns)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 18}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RadixPartition(benchmark::State& state) {
  const usize n = 1 << 20;
  const u32 bits = static_cast<u32>(state.range(0));
  const usize buckets = usize{1} << bits;
  CpuPool serial(1);
  Rng rng(3);
  auto v = make_keys(n, Dist::kUniform, rng);
  std::vector<u64> out(n);
  std::vector<u64> counts(buckets);
  for (auto _ : state) {
    partition_stable(
        std::span<const u64>(v), std::span<u64>(out), buckets,
        [bits](const u64& k) {
          return static_cast<usize>((k >> 32) & ((u64{1} << bits) - 1));
        },
        serial, std::span<u64>(counts));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_RadixPartition)->Arg(4)->Arg(6)->Arg(8);

void BM_UnshuffleGather(benchmark::State& state) {
  // The stride-m gather of run formation's unshuffled write.
  const usize n = 1 << 20;
  const usize m = static_cast<usize>(state.range(0));
  Rng rng(4);
  auto v = make_keys(n, Dist::kUniform, rng);
  std::vector<u64> out(n);
  const usize p = n / m;
  for (auto _ : state) {
    for (usize j = 0; j < m; ++j) {
      u64* dst = out.data() + j * p;
      for (usize t = 0; t < p; ++t) dst[t] = v[t * m + j];
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_UnshuffleGather)->Arg(16)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace pdm
