// Parallel in-core kernels (cpu_pool.h) and the service CPU-budget
// arbiter. The determinism bar: every sorter must produce byte-identical
// output, identical IoStats accounting (ops, blocks, per-disk vectors)
// and an identical schedule hash at any CPU budget — budget 1 takes the
// exact legacy serial code path, budgets >= 2 take the parallel kernels
// whose chunking is a function of n only. Also covers the mid-flight
// async-depth re-arbitration (raise_depth without a quiesce) and the
// size-indexed allocator free list. The whole file must be TSan-clean
// (CI runs it under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "baselines/columnsort.h"
#include "baselines/multiway_merge.h"
#include "core/adaptive.h"
#include "core/integer_sort.h"
#include "core/radix_sort.h"
#include "internal/insort.h"
#include "internal/radix_partition.h"
#include "pdm/memory_backend.h"
#include "service/sort_service.h"
#include "test_support.h"
#include "util/cpu_pool.h"
#include "util/generators.h"
#include "util/metrics.h"

namespace pdm {
namespace {

using test::Geometry;

// ---------------------------------------------------------------- CpuPool

TEST(CpuPool, SerialBudgetRunsInlineInOrder)
{
  CpuPool pool(1);
  const auto me = std::this_thread::get_id();
  std::vector<usize> order;
  pool.run_chunks(8, [&](usize i) {
    EXPECT_EQ(std::this_thread::get_id(), me);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (usize i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(CpuPool, ParallelExecutesEveryChunkExactlyOnce)
{
  CpuPool pool(4);
  constexpr usize kChunks = 257;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.run_chunks(kChunks, [&](usize i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (usize i = 0; i < kChunks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(CpuPool, ParallelRangesPartitionExactly)
{
  CpuPool pool(3);
  constexpr usize kBegin = 13, kEnd = 1013;
  std::vector<std::atomic<int>> hits(kEnd);
  pool.parallel_ranges(kBegin, kEnd, 7, [&](usize lo, usize hi) {
    for (usize i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (usize i = 0; i < kBegin; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (usize i = kBegin; i < kEnd; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(CpuPool, HelpersRunConcurrentlyWithCaller)
{
  // Chunk 0 blocks until chunk 1 runs: passes only if two threads
  // participate in the region (times out, rather than hangs, on failure).
  CpuPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool flagged = false;
  bool saw = false;
  pool.run_chunks(2, [&](usize i) {
    if (i == 1) {
      {
        std::lock_guard<std::mutex> g(m);
        flagged = true;
      }
      cv.notify_all();
    } else {
      std::unique_lock<std::mutex> lk(m);
      saw = cv.wait_for(lk, std::chrono::seconds(30),
                        [&] { return flagged; });
    }
  });
  EXPECT_TRUE(saw) << "helper thread never picked up chunk 1";
}

TEST(CpuPool, ExceptionPropagatesAndPoolSurvives)
{
  CpuPool pool(4);
  EXPECT_THROW(pool.run_chunks(16,
                               [&](usize i) {
                                 if (i == 3) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  // The pool is reusable after a failed region.
  std::atomic<int> n{0};
  pool.run_chunks(16, [&](usize) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

TEST(CpuPool, BudgetRaiseTakesEffectOnNextRegion)
{
  CpuPool pool(1);
  pool.set_budget(4);
  EXPECT_EQ(pool.budget(), 4u);
  std::atomic<int> n{0};
  pool.run_chunks(64, [&](usize) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 64);
}

// ------------------------------------------------- in-core kernel units

TEST(ParallelKernels, BudgetedSortMatchesSerialByteForByte)
{
  Rng rng(7);
  auto data = make_keys(u64{50000}, Dist::kUniform, rng);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  for (usize budget : {2u, 3u, 4u}) {
    CpuPool pool(budget);
    auto got = data;
    std::vector<u64> scratch(got.size());
    internal_sort_budgeted(std::span<u64>(got), std::less<u64>{}, pool,
                           std::span<u64>(scratch));
    EXPECT_EQ(got, expected) << "budget " << budget;
  }
}

TEST(ParallelKernels, BudgetedSortSmallInputAndShortScratchFallBack)
{
  Rng rng(8);
  CpuPool pool(4);
  // Below the parallel threshold: serial path.
  auto small = make_keys(u64{1000}, Dist::kUniform, rng);
  auto small_expected = small;
  std::sort(small_expected.begin(), small_expected.end());
  std::vector<u64> scratch(small.size());
  internal_sort_budgeted(std::span<u64>(small), std::less<u64>{}, pool,
                         std::span<u64>(scratch));
  EXPECT_EQ(small, small_expected);
  // Scratch too short for the merge ping-pong: serial path.
  auto big = make_keys(u64{40000}, Dist::kUniform, rng);
  auto big_expected = big;
  std::sort(big_expected.begin(), big_expected.end());
  std::vector<u64> tiny_scratch(17);
  internal_sort_budgeted(std::span<u64>(big), std::less<u64>{}, pool,
                         std::span<u64>(tiny_scratch));
  EXPECT_EQ(big, big_expected);
}

TEST(ParallelKernels, StablePartitionMatchesSerialScatter)
{
  Rng rng(9);
  const usize n = 60000;
  const usize buckets = 16;
  auto keys = make_keys(n, Dist::kUniform, rng);
  auto digit = [](const u64& k) { return static_cast<usize>(k & 15); };

  CpuPool serial(1);
  std::vector<u64> out_serial(n), counts_serial(buckets);
  partition_stable(std::span<const u64>(keys), std::span<u64>(out_serial),
                   buckets, digit, serial, std::span<u64>(counts_serial));
  for (usize budget : {2u, 4u}) {
    CpuPool pool(budget);
    std::vector<u64> out(n), counts(buckets);
    partition_stable(std::span<const u64>(keys), std::span<u64>(out),
                     buckets, digit, pool, std::span<u64>(counts));
    EXPECT_EQ(out, out_serial) << "budget " << budget;
    EXPECT_EQ(counts, counts_serial) << "budget " << budget;
  }
}

// ------------------------------------- sorter-family budget invariance

void expect_same_io(const IoStats& a, const IoStats& b, usize budget) {
  EXPECT_EQ(a.read_ops, b.read_ops) << "budget " << budget;
  EXPECT_EQ(a.write_ops, b.write_ops) << "budget " << budget;
  EXPECT_EQ(a.blocks_read, b.blocks_read) << "budget " << budget;
  EXPECT_EQ(a.blocks_written, b.blocks_written) << "budget " << budget;
  EXPECT_EQ(a.disk_reads, b.disk_reads) << "budget " << budget;
  EXPECT_EQ(a.disk_writes, b.disk_writes) << "budget " << budget;
  EXPECT_EQ(a.schedule_hash, b.schedule_hash) << "budget " << budget;
  EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s) << "budget " << budget;
}

// The fingerprint of one sort: a checksum of the output records plus the
// I/O accounting. Each test pins it as recorded constants, so a change
// meant to preserve behaviour (a deleted option, a folded driver) is
// checked against the values of earlier builds, not only against another
// configuration of the same build.
struct IoPin {
  u64 checksum;  // order-dependent FNV-1a fold of the output records
  u64 read_ops, write_ops, blocks_read, blocks_written;
  u64 read_calls, write_calls, schedule_hash;
  friend bool operator==(const IoPin&, const IoPin&) = default;
};

// Prints in initializer syntax, so a failure shows the constant to pin.
std::ostream& operator<<(std::ostream& os, const IoPin& p) {
  return os << std::hex << "{0x" << p.checksum << std::dec << ", "
            << p.read_ops << ", " << p.write_ops << ", " << p.blocks_read
            << ", " << p.blocks_written << ", " << p.read_calls << ", "
            << p.write_calls << ", 0x" << std::hex << p.schedule_hash
            << std::dec << "}";
}

IoPin io_pin(const std::vector<u64>& out, const IoStats& s) {
  u64 h = 14695981039346656037ULL;
  for (u64 x : out) h = (h ^ x) * 1099511628211ULL;
  return IoPin{h,          s.read_ops,       s.write_ops,
               s.blocks_read, s.blocks_written, s.read_calls,
               s.write_calls, s.schedule_hash};
}

// Pinned fingerprints of one sort, synchronous and at async depth 4.
struct SortPins {
  IoPin sync;
  IoPin async4;
};

// Runs `sort_fn` on identical staged input at CPU budgets {1, 2, 4}, then
// once more at async depth 4 and budget 4, and requires byte-identical
// records and I/O accounting including the schedule hash: the CPU budget
// must be invisible to everything but wall clock. The synchronous budget-1
// run and the depth-4 run must also match their pinned fingerprints (the
// schedule hash legitimately differs between depths, see
// AsyncPlusCpuMatchesSerial). M = 16384 so leaf sorts and partitions clear
// the parallel kernels' 2^14-record threshold.
constexpr u64 kBigMem = 16384;

template <class Fn>
void expect_budget_invariant(u64 n, const SortPins& pins, Fn&& sort_fn,
                             Dist dist = Dist::kUniform) {
  std::vector<u64> out0;
  IoStats stats0;
  struct Config {
    usize depth;
    usize budget;
  };
  for (const Config c : {Config{0, 1}, Config{0, 2}, Config{0, 4},
                         Config{4, 4}}) {
    auto ctx = test::make_ctx<u64>(Geometry::square(kBigMem), 5);
    Rng rng(1234);
    auto data = make_keys(n, dist, rng);
    auto in = test::stage_input<u64>(*ctx, data);
    if (c.depth >= 2) ctx->set_async_depth(c.depth);
    ctx->set_cpu_budget(c.budget);
    auto out = sort_fn(*ctx, in);
    ctx->aio().drain();
    ASSERT_EQ(out.size(), data.size());
    if (c.depth == 0 && c.budget == 1) {
      out0 = std::move(out);
      stats0 = ctx->stats();
      // Some sorters remap keys before staging (integer/radix ranges), so
      // assert order rather than equality with the original data.
      EXPECT_TRUE(std::is_sorted(out0.begin(), out0.end()));
      EXPECT_EQ(io_pin(out0, stats0), pins.sync) << "synchronous fingerprint";
    } else {
      EXPECT_EQ(out, out0) << "depth " << c.depth << " budget " << c.budget
                           << ": records differ from serial run";
      if (c.depth == 0) {
        expect_same_io(ctx->stats(), stats0, c.budget);
      } else {
        EXPECT_EQ(io_pin(out, ctx->stats()), pins.async4)
            << "depth-" << c.depth << " fingerprint";
      }
    }
  }
}

TEST(CpuBudgetInvariance, InternalSort)
{
  expect_budget_invariant(kBigMem,
      {{0x8d24d3d98295c40e, 8, 4, 256, 128, 64, 32, 0x20c490c589092465},
       {0x8d24d3d98295c40e, 8, 4, 256, 128, 64, 32, 0x20c490c589092465}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    AdaptiveOptions opt;
    opt.mem_records = kBigMem;
    opt.force = Algo::kInternal;
    return pdm_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, ExpectedTwoPass)
{
  expect_budget_invariant(4 * kBigMem,
      {{0xc91f42e38a56fbdc, 48, 32, 1536, 1024, 672, 224, 0x6b0c36cbbf0356a5},
       {0xc91f42e38a56fbdc, 48, 32, 1536, 1024, 672, 224, 0x424efde0bb4526a5}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    ExpectedTwoPassOptions opt;
    opt.mem_records = kBigMem;
    return expected_two_pass_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, ThreePassLmm)
{
  expect_budget_invariant(8 * kBigMem,
      {{0x79d29bc41a32536f, 128, 96, 4096, 3072, 2336, 2272, 0xcc80080708e1eba5},
       {0x79d29bc41a32536f, 128, 96, 4096, 3072, 2336, 2272, 0xed52a0ea7a1129a5}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    ThreePassLmmOptions opt;
    opt.mem_records = kBigMem;
    return three_pass_lmm_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, ThreePassMesh)
{
  // N = M^{3/2}: every band and column sort is M = 2^14 records, so the
  // budgeted kernel takes its parallel path at budgets >= 2.
  expect_budget_invariant(kBigMem * isqrt(kBigMem),
      {{0x46f8e42013eb2ab2, 2048, 1536, 65536, 49152, 24640, 24544, 0x1a9cc45d0260c065},
       {0x46f8e42013eb2ab2, 2048, 1536, 65536, 49152, 24640, 24544, 0x1a9cc45d0260c065}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    ThreePassMeshOptions opt;
    opt.mem_records = kBigMem;
    return three_pass_mesh_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, Columnsort)
{
  // r = M rows so the column and window sorts clear the kernel threshold
  // (the derived geometry would pick r = 4096).
  expect_budget_invariant(8 * kBigMem,
      {{0x79d29bc41a32536f, 128, 96, 4096, 3072, 2336, 2336, 0xe522deb5633f2065},
       {0x79d29bc41a32536f, 128, 96, 4096, 3072, 2336, 2336, 0xe522deb5633f2065}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    ColumnsortOptions opt;
    opt.mem_records = kBigMem;
    opt.rows = kBigMem;
    opt.cols = 8;
    return columnsort_cc_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, ExpectedSixPass)
{
  expect_budget_invariant(8 * kBigMem,
      {{0x79d29bc41a32536f, 256, 224, 5120, 4096, 3360, 2528, 0xe6fd94f0b88eefe5},
       {0x79d29bc41a32536f, 256, 224, 5120, 4096, 3360, 2528, 0x876fd921fa641ae5}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    ExpectedSixPassOptions opt;
    opt.mem_records = kBigMem;
    return expected_six_pass_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, SevenPass)
{
  expect_budget_invariant(kBigMem * isqrt(kBigMem),
      {{0x46f8e42013eb2ab2, 3072, 2560, 98304, 81920, 57408, 45024, 0x3c9361841d598665},
       {0x46f8e42013eb2ab2, 3072, 2560, 98304, 81920, 57408, 45024, 0x3a82f8389c18e365}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    SevenPassOptions opt;
    opt.mem_records = kBigMem;
    return seven_pass_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, OrderAdaptive)
{
  expect_budget_invariant(8 * kBigMem,
      {{0x79d29bc41a32536f, 595, 65, 3074, 2050, 1314, 2050, 0x5d46900003c676a9},
       {0x79d29bc41a32536f, 595, 65, 3074, 2050, 1314, 2050, 0x74abf56219d2e5c9}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    MultiwaySortOptions opt;
    opt.mem_records = kBigMem;
    opt.mode = RunFormationMode::kReplacementSelection;
    return multiway_merge_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, OrderAdaptiveNearSorted)
{
  // Windows of n/32 = M/2 records, bulk_nearsorted's shape: replacement
  // selection makes one run, so the pins cover the selection itself, where
  // the uniform case above covers the merge behind it.
  expect_budget_invariant(16 * kBigMem,
      {{0xf652fa43a6562325, 128, 64, 4096, 2048, 544, 2048, 0x2150f4659049dba5},
       {0xf652fa43a6562325, 128, 64, 4096, 2048, 544, 2048, 0xd7c27a56e05259a5}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    MultiwaySortOptions opt;
    opt.mem_records = kBigMem;
    opt.mode = RunFormationMode::kReplacementSelection;
    return multiway_merge_sort<u64>(ctx, in, opt).output.read_all();
  }, Dist::kNearSortedDisplaced);
}

TEST(CpuBudgetInvariance, ExpectedThreePass)
{
  expect_budget_invariant(16 * kBigMem,
      {{0x5633fb17fb939035, 256, 192, 8192, 6144, 3136, 1472, 0x93594dce6d6db5a5},
       {0x5633fb17fb939035, 256, 192, 8192, 6144, 3136, 1472, 0xdf0f160ab0d966a5}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    ExpectedThreePassOptions opt;
    opt.mem_records = kBigMem;
    return expected_three_pass_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, MultiwayMerge)
{
  expect_budget_invariant(8 * kBigMem,
      {{0x79d29bc41a32536f, 194, 64, 3072, 2048, 1312, 1280, 0x5ca3a7f67c897933},
       {0x79d29bc41a32536f, 194, 64, 3072, 2048, 1312, 1280, 0xa7e2b1828c321533}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    MultiwaySortOptions opt;
    opt.mem_records = kBigMem;
    opt.lookahead = 2;
    return multiway_merge_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, IntegerSort)
{
  expect_budget_invariant(4 * kBigMem,
      {{0xfb93297686dfc9e6, 61, 52, 1567, 1055, 703, 745, 0x4121801e2dedd2e8},
       {0xfb93297686dfc9e6, 61, 52, 1567, 1055, 703, 692, 0x308999cc7a73ee88}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    IntegerSortOptions opt;
    opt.mem_records = kBigMem;
    opt.range = 16;
    auto data = in.read_all();
    for (auto& k : data) k %= opt.range;
    auto remapped = write_input_run<u64>(ctx, std::span<const u64>(data));
    ctx.io().reset_stats();
    return integer_sort<u64>(ctx, remapped, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, RadixSort)
{
  expect_budget_invariant(8 * kBigMem,
      {{0x819214b6565e3c9d, 167, 152, 4283, 3259, 2305, 1529, 0x304530a5a319bce4},
       {0x819214b6565e3c9d, 167, 152, 4283, 3259, 2305, 1498, 0x4464d37bb84a1a12}},
      [](PdmContext& ctx, const StripedRun<u64>& in) {
    RadixSortOptions opt;
    opt.mem_records = kBigMem;
    opt.key_bits = 24;
    auto data = in.read_all();
    for (auto& k : data) k &= (u64{1} << 24) - 1;
    auto remapped = write_input_run<u64>(ctx, std::span<const u64>(data));
    ctx.io().reset_stats();
    return radix_sort<u64>(ctx, remapped, opt).output.read_all();
  });
}

TEST(CpuBudgetInvariance, AsyncPlusCpuMatchesSerial)
{
  // The two budget knobs compose: async depth pipelines the I/O while the
  // CPU budget parallelizes the in-core leaves. At a FIXED depth the CPU
  // budget must be invisible, schedule hash included; across depths the
  // hash legitimately moves (prefetch reorders batches relative to each
  // other — see async_io_test), so only records are compared there. Each
  // depth's fingerprint is pinned.
  const IoPin pins[2] = {
      {0xf3f654c30f2e26bc, 48, 32, 1536, 1024, 672, 224, 0x6b0c36cbbf0356a5},
      {0xf3f654c30f2e26bc, 48, 32, 1536, 1024, 672, 224, 0x424efde0bb4526a5}};
  std::vector<u64> out_any;
  for (usize depth : {usize{0}, usize{4}}) {
    std::vector<u64> out0;
    IoStats stats0;
    for (usize cpu : {usize{1}, usize{4}}) {
      auto ctx = test::make_ctx<u64>(Geometry::square(kBigMem), 5);
      Rng rng(77);
      auto data = make_keys(4 * kBigMem, Dist::kUniform, rng);
      auto in = test::stage_input<u64>(*ctx, data);
      if (depth >= 2) ctx->set_async_depth(depth);
      ctx->set_cpu_budget(cpu);
      ExpectedTwoPassOptions opt;
      opt.mem_records = kBigMem;
      auto out = expected_two_pass_sort<u64>(*ctx, in, opt).output.read_all();
      ctx->aio().drain();
      EXPECT_EQ(io_pin(out, ctx->stats()), pins[depth == 0 ? 0 : 1])
          << "depth " << depth << " cpu " << cpu;
      if (cpu == 1) {
        out0 = std::move(out);
        stats0 = ctx->stats();
      } else {
        EXPECT_EQ(out, out0) << "depth " << depth << " cpu " << cpu;
        expect_same_io(ctx->stats(), stats0, cpu);
      }
    }
    if (out_any.empty()) {
      out_any = std::move(out0);
    } else {
      EXPECT_EQ(out0, out_any) << "records changed across async depths";
    }
  }
}

// --------------------------------------- async depth re-arbitration

TEST(AsyncRaiseDepth, GrowWithoutQuiesceKeepsBytesAndAccounting)
{
  // Random write batches through the write-behind ring while the depth is
  // raised mid-flight (2 -> 6 -> 8), as the service re-grant does when a
  // neighbour job finishes. Bytes and accounting must match a synchronous
  // run exactly: depth is charged at submission, never at completion.
  auto sync_ctx = make_memory_context(8, 256, 3);
  auto async_ctx = make_memory_context(8, 256, 3);
  async_ctx->set_async_depth(2);
  const usize bb = sync_ctx->block_bytes();
  Rng rng(11);
  std::vector<std::pair<BlockRef, std::vector<std::byte>>> written;
  for (int batch = 0; batch < 30; ++batch) {
    if (batch == 10) async_ctx->raise_async_depth(6);
    if (batch == 20) async_ctx->raise_async_depth(8);
    const usize nreq = 1 + static_cast<usize>(rng.next() % 16);
    std::vector<std::vector<std::byte>> payloads(nreq);
    std::vector<WriteReq> sreqs, areqs;
    for (usize i = 0; i < nreq; ++i) {
      const u32 disk = static_cast<u32>(rng.next() % 8);
      payloads[i].resize(bb);
      for (auto& b : payloads[i]) b = static_cast<std::byte>(rng.next());
      const BlockRef sref = sync_ctx->alloc().alloc(disk);
      const BlockRef aref = async_ctx->alloc().alloc(disk);
      ASSERT_EQ(sref, aref);
      sreqs.push_back(WriteReq{sref, payloads[i].data()});
      areqs.push_back(WriteReq{aref, payloads[i].data()});
      written.emplace_back(sref, payloads[i]);
    }
    sync_ctx->io().write(sreqs);
    async_ctx->write_batch(areqs);
  }
  async_ctx->aio().drain();
  EXPECT_EQ(async_ctx->aio().depth(), 8u);
  // Shrinking back still quiesces via the legacy path.
  async_ctx->set_async_depth(2);
  EXPECT_EQ(async_ctx->aio().depth(), 2u);

  std::vector<std::byte> sbuf(bb), abuf(bb);
  for (const auto& [ref, bytes] : written) {
    const ReadReq sreq{ref, sbuf.data()};
    const ReadReq areq{ref, abuf.data()};
    sync_ctx->io().read(std::span<const ReadReq>(&sreq, 1));
    async_ctx->io().read(std::span<const ReadReq>(&areq, 1));
    ASSERT_EQ(sbuf, bytes);
    ASSERT_EQ(abuf, bytes);
  }
  const IoStats& a = sync_ctx->stats();
  const IoStats& b = async_ctx->stats();
  EXPECT_EQ(a.write_ops, b.write_ops);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.read_ops, b.read_ops);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
}

TEST(AsyncRaiseDepth, RaiseFromDisabledStartsWorkers)
{
  auto ctx = make_memory_context(4, 256, 3);
  EXPECT_FALSE(ctx->aio().enabled());
  ctx->raise_async_depth(4);
  EXPECT_TRUE(ctx->aio().enabled());
  EXPECT_EQ(ctx->aio().depth(), 4u);
  // Lower-or-equal raises are no-ops (never shrinks mid-flight).
  ctx->raise_async_depth(2);
  EXPECT_EQ(ctx->aio().depth(), 4u);
  std::vector<std::byte> payload(ctx->block_bytes(), std::byte{0x5a});
  const BlockRef ref = ctx->alloc().alloc(0);
  const WriteReq wreq{ref, payload.data()};
  ctx->write_batch(std::span<const WriteReq>(&wreq, 1));
  ctx->aio().drain();
  std::vector<std::byte> back(ctx->block_bytes());
  const ReadReq rreq{ref, back.data()};
  ctx->io().read(std::span<const ReadReq>(&rreq, 1));
  EXPECT_EQ(back, payload);
}

// ------------------------------------------- size-indexed free list

TEST(DiskAllocator, SizeIndexedFreeListFindsBigSpanBehindFragments)
{
  DiskAllocator a(1);
  // Fragment the low addresses: 256 singles, every other one freed, so
  // the address-ordered free list starts with 128 one-block spans — more
  // than kMaxFreeScan. The old bounded first-fit would give up and bump
  // the cursor; the size index must still find the big span behind them.
  std::vector<Extent> freed;
  for (int i = 0; i < 256; ++i) {
    Extent e = a.alloc_extent(0, 1);
    if (i % 2 == 0) freed.push_back(e);
  }
  for (const auto& e : freed) a.free_extent(e);
  Extent big = a.alloc_extent(0, 64);
  a.free_extent(big);
  const u64 high_water = a.used(0);
  const u64 free_before = a.free_blocks(0);

  Extent got = a.alloc_extent(0, 64);
  EXPECT_EQ(got.index, big.index) << "big span leaked to the bump cursor";
  EXPECT_EQ(a.used(0), high_water) << "cursor advanced despite a free fit";
  EXPECT_EQ(a.free_blocks(0), free_before - 64);

  // Octave fallback: a 48-block ask has no 48..63 span; it must split a
  // span from a higher octave (here a fresh 128) rather than bump.
  Extent wide = a.alloc_extent(0, 128);
  a.free_extent(wide);
  const u64 hw2 = a.used(0);
  Extent part = a.alloc_extent(0, 48);
  EXPECT_EQ(part.index, wide.index);
  EXPECT_EQ(a.used(0), hw2);
  // The 80-block remainder is reusable too.
  Extent rest = a.alloc_extent(0, 80);
  EXPECT_EQ(rest.index, wide.index + 48);
  EXPECT_EQ(a.used(0), hw2);

  // Single-block churn still reuses the small fragments.
  Extent one = a.alloc_extent(0, 1);
  EXPECT_EQ(a.used(0), hw2);
  a.free_extent(one);
  a.free_extent(part);
  a.free_extent(rest);
  EXPECT_EQ(a.free_blocks(0), free_before + 64);
}

// --------------------------------------------- service CPU arbiter

constexpr u64 kSvcMem = 1024;
constexpr usize kSvcBlockBytes = 256;

std::shared_ptr<MemoryDiskBackend> make_svc_backend(u64 latency_us = 0) {
  auto b = std::make_shared<MemoryDiskBackend>(8, kSvcBlockBytes);
  b->set_simulated_latency_us(latency_us);
  return b;
}

SortJobSpec svc_spec(std::string name) {
  SortJobSpec s;
  s.name = std::move(name);
  s.mem_records = kSvcMem;
  return s;
}

JobId submit_svc(SortService& svc, SortJobSpec spec, std::vector<u64> data,
                 std::atomic<int>& ok, std::atomic<int>& bad,
                 std::function<void()> on_done = {}) {
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  return svc.submit<u64>(
      std::move(spec), std::move(data), std::less<u64>{},
      [expected = std::move(expected), &ok, &bad,
       on_done = std::move(on_done)](const SortResult<u64>& res) {
        if (res.output.read_all() == expected) {
          ++ok;
        } else {
          ++bad;
        }
        if (on_done) on_done();
      });
}

TEST(CpuArbiter, PerJobIoInvariantUnderCpuBudget)
{
  // The same submission sequence on a serial service and a 4-thread
  // service: per-job I/O deltas, pass counts and outputs must match
  // exactly (one worker keeps job interleave deterministic).
  std::vector<IoStats> per_job[2];
  for (int round = 0; round < 2; ++round) {
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cpu_threads_total = round == 0 ? 1 : 4;
    SortService svc(make_svc_backend(), cfg);
    Rng rng(31);
    std::atomic<int> ok{0}, bad{0};
    std::vector<JobId> ids;
    for (int j = 0; j < 3; ++j) {
      ids.push_back(submit_svc(
          svc, svc_spec("inv" + std::to_string(j)),
          make_keys((j + 1) * 4 * kSvcMem, Dist::kUniform, rng), ok, bad));
    }
    svc.drain();
    EXPECT_EQ(ok.load(), 3);
    EXPECT_EQ(bad.load(), 0);
    for (JobId id : ids) {
      const JobInfo ji = svc.info(id);
      EXPECT_EQ(ji.state, JobState::kDone);
      per_job[round].push_back(ji.io);
    }
  }
  ASSERT_EQ(per_job[0].size(), per_job[1].size());
  for (usize j = 0; j < per_job[0].size(); ++j) {
    expect_same_io(per_job[1][j], per_job[0][j], 4);
  }
}

TEST(CpuArbiter, FairShareGrantAndRegrantOnFinish)
{
  // 3 workers, 4 threads: the first two running jobs get 2 threads each,
  // the third runs serial (cpu.waiting). When the short jobs finish their
  // threads are re-granted, so the survivor ends up holding all 4.
  ServiceConfig cfg;
  cfg.workers = 3;
  cfg.cpu_threads_total = 4;
  SortService svc(make_svc_backend(), cfg);
  Rng rng(13);
  std::atomic<int> ok{0}, bad{0};
  std::atomic<bool> release{false};

  // The long job parks in its completion callback (grants still held)
  // until the test has observed the re-grant.
  std::mutex m;
  std::condition_variable cv;
  const JobId long_id = submit_svc(
      svc, svc_spec("long"), make_keys(8 * kSvcMem, Dist::kUniform, rng), ok,
      bad, [&] {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return release.load(); });
      });
  JobId short_a = submit_svc(svc, svc_spec("short-a"),
                             make_keys(4 * kSvcMem, Dist::kUniform, rng), ok,
                             bad);
  JobId short_b = submit_svc(svc, svc_spec("short-b"),
                             make_keys(4 * kSvcMem, Dist::kUniform, rng), ok,
                             bad);

  // Wait for both short jobs to reach a terminal state.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  auto terminal = [&](JobId id) {
    return job_state_terminal(svc.info(id).state);
  };
  while ((!terminal(short_a) || !terminal(short_b)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(terminal(short_a) && terminal(short_b));

  // The parked survivor should be topped up to the whole budget once the
  // short jobs' release + re-grant runs (poll: release happens just after
  // the terminal state is published).
  usize seen = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const ShardLoad l = svc.load();
    EXPECT_LE(l.cpu_in_use, l.cpu_total);
    seen = l.cpu_in_use;
    if (l.running == 1 && seen == 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(seen, 4u) << "survivor was not re-granted the freed threads";
  EXPECT_EQ(svc.load().cpu_total, 4u);

  {
    std::lock_guard<std::mutex> g(m);
    release.store(true);
  }
  cv.notify_all();
  svc.drain();
  EXPECT_EQ(ok.load(), 3);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(svc.info(long_id).state, JobState::kDone);
  EXPECT_EQ(svc.load().cpu_in_use, 0u);
  EXPECT_EQ(metrics::Registry::global().gauge("cpu.granted").value(), 0);
  EXPECT_EQ(metrics::Registry::global().gauge("cpu.waiting").value(), 0);
}

TEST(CpuArbiter, SerialServiceGrantsNothing)
{
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cpu_threads_total = 1;  // default: kernels stay serial
  SortService svc(make_svc_backend(), cfg);
  Rng rng(17);
  std::atomic<int> ok{0}, bad{0};
  for (int j = 0; j < 4; ++j) {
    submit_svc(svc, svc_spec("s" + std::to_string(j)),
               make_keys(4 * kSvcMem, Dist::kUniform, rng), ok, bad);
  }
  svc.drain();
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(svc.load().cpu_in_use, 0u);
  EXPECT_EQ(svc.load().cpu_total, 1u);
}

// ------------------------------------------------------- TSan stress

TEST(CpuPoolStress, KernelParallelismWithAsyncIoAndCancellation)
{
  // Kernel threads, async I/O workers, concurrent service workers and
  // racing cancellations all at once; TSan (CI) is the real assertion.
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.cpu_threads_total = 8;
  cfg.io_depth_total = 8;
  SortService svc(make_svc_backend(2), cfg);
  Rng rng(23);
  std::atomic<int> ok{0}, bad{0};
  std::vector<JobId> ids;
  for (int j = 0; j < 24; ++j) {
    const u64 n = (1 + static_cast<u64>(rng.next() % 8)) * kSvcMem;
    ids.push_back(submit_svc(svc, svc_spec("stress" + std::to_string(j)),
                             make_keys(n, Dist::kUniform, rng), ok, bad));
  }
  // Race cancellations against execution from a separate thread.
  std::thread canceller([&] {
    for (usize j = 0; j < ids.size(); j += 3) {
      svc.cancel(ids[j]);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  canceller.join();
  svc.drain();
  EXPECT_EQ(bad.load(), 0);
  int done = 0, cancelled = 0, other = 0;
  for (JobId id : ids) {
    switch (svc.info(id).state) {
      case JobState::kDone: ++done; break;
      case JobState::kCancelled: ++cancelled; break;
      default: ++other; break;
    }
  }
  EXPECT_EQ(done + cancelled, 24);
  EXPECT_EQ(other, 0);
  // kDone => exactly one verified callback; kCancelled => at most one (a
  // cancel can latch after the callback already ran — the service promises
  // kCancelled to the canceller, not callback suppression, in that race).
  EXPECT_GE(ok.load(), done);
  EXPECT_LE(ok.load(), done + cancelled);
  EXPECT_EQ(svc.load().cpu_in_use, 0u);
}

}  // namespace
}  // namespace pdm
