// Extent layer tests: allocator contiguity / region separation / free-list
// reuse (incl. a concurrent stress run for TSan), and end-to-end
// equivalence of the coalesced I/O path — sync vs async, memory vs file
// backends must produce byte-identical disks and identical IoStats — plus
// a service sort whose ops, blocks and backend calls are pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "core/adaptive.h"
#include "pdm/file_backend.h"
#include "pdm/memory_backend.h"
#include "pdm/striped_run.h"
#include "service/sort_service.h"
#include "test_support.h"
#include "util/generators.h"

namespace pdm {
namespace {

TEST(ExtentAllocator, ExtentsAreContiguousAndRegionsSeparate) {
  DiskAllocator alloc(2);
  const u32 ra = alloc.open_region(64);
  const u32 rb = alloc.open_region(64);
  // Interleave two tenants' allocations on one disk: each tenant's
  // extents must chain contiguously inside its own arena, and the two
  // arenas must not overlap.
  std::vector<Extent> a, b;
  for (int i = 0; i < 4; ++i) {
    a.push_back(alloc.alloc_extent(0, 8, ra));
    b.push_back(alloc.alloc_extent(0, 8, rb));
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(a[i].index, a[i - 1].index + 8) << "tenant A fragmented";
    EXPECT_EQ(b[i].index, b[i - 1].index + 8) << "tenant B fragmented";
  }
  // Disjoint regions: A occupies [a0, a0+32), B [b0, b0+32).
  const u64 a_end = a[0].index + 32, b_end = b[0].index + 32;
  EXPECT_TRUE(a_end <= b[0].index || b_end <= a[0].index);
  EXPECT_EQ(alloc.used_by(ra), 32u);
  EXPECT_EQ(alloc.used_by(rb), 32u);
  EXPECT_EQ(alloc.open_regions(), 2u);
  // Closing a region recycles its unconsumed arena tail (64 - 32 blocks).
  EXPECT_EQ(alloc.free_blocks(0), 0u);
  alloc.close_region(ra);
  EXPECT_EQ(alloc.free_blocks(0), 32u);
  alloc.close_region(rb);
  EXPECT_EQ(alloc.free_blocks(0), 64u);
  EXPECT_EQ(alloc.open_regions(), 0u);
}

TEST(ExtentAllocator, FreeListReusesAndCoalesces) {
  DiskAllocator alloc(1);
  const Extent e1 = alloc.alloc_extent(0, 16);
  const Extent e2 = alloc.alloc_extent(0, 16);
  EXPECT_EQ(e2.index, e1.index + 16);
  EXPECT_EQ(alloc.used_by(0), 32u);
  // Freeing both adjacent spans coalesces them into one, which then
  // satisfies a larger request without bumping the cursor.
  alloc.free_extent(e1);
  alloc.free_extent(e2);
  EXPECT_EQ(alloc.used_by(0), 0u);
  EXPECT_EQ(alloc.free_blocks(0), 32u);
  const Extent big = alloc.alloc_extent(0, 32);
  EXPECT_EQ(big.index, e1.index);
  EXPECT_EQ(alloc.used(0), 32u) << "reuse must not grow the high-water mark";
  EXPECT_EQ(alloc.free_blocks(0), 0u);
  // Partial reuse splits a span and returns the remainder.
  alloc.free_extent(big);
  const Extent small = alloc.alloc_extent(0, 8);
  EXPECT_EQ(small.index, e1.index);
  EXPECT_EQ(alloc.free_blocks(0), 24u);
}

TEST(ExtentAllocator, RunsReleaseTailsAtFinish) {
  auto ctx = make_memory_context(4, 8 * sizeof(u64));
  {
    std::vector<u64> data(8 * 6, 7);  // 6 blocks over 4 disks
    auto run = write_input_run<u64>(*ctx, std::span<const u64>(data));
    // finish() has run: every partially consumed extent's tail is back in
    // the free list, so the context's region holds exactly the run's
    // blocks — the used_by() probe a service uses to check a region is
    // quiescent before resetting anything.
    EXPECT_EQ(ctx->alloc().used_by(ctx->alloc_region()), run.num_blocks());
    u64 free_total = 0;
    for (u32 d = 0; d < 4; ++d) free_total += ctx->alloc().free_blocks(d);
    EXPECT_GT(free_total, 0u) << "extent tails were not recycled";
    EXPECT_EQ(run.read_all(), data);
  }
}

TEST(ExtentAllocator, ConcurrentAllocStress) {
  DiskAllocator alloc(4);
  constexpr usize kThreads = 8;
  std::vector<std::vector<Extent>> held(kThreads);
  std::vector<std::thread> threads;
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      const u32 region = alloc.open_region(32);
      std::vector<Extent> mine;
      for (int i = 0; i < 400; ++i) {
        const u32 disk = static_cast<u32>(rng.below(4));
        const u64 count = 1 + rng.below(12);
        mine.push_back(alloc.alloc_extent(disk, count, region));
        if (rng.below(4) == 0 && !mine.empty()) {
          const usize victim = static_cast<usize>(rng.below(mine.size()));
          alloc.free_extent(mine[victim], region);
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(victim));
        }
      }
      held[t] = std::move(mine);
      alloc.close_region(region);
    });
  }
  for (auto& th : threads) th.join();
  // No two live extents may overlap, across all threads and regions.
  std::vector<std::vector<std::pair<u64, u64>>> spans(4);
  for (const auto& mine : held) {
    for (const Extent& e : mine) {
      spans[e.disk].emplace_back(e.index, e.index + e.count);
    }
  }
  for (u32 d = 0; d < 4; ++d) {
    std::sort(spans[d].begin(), spans[d].end());
    for (usize i = 1; i < spans[d].size(); ++i) {
      EXPECT_GE(spans[d][i].first, spans[d][i - 1].second)
          << "overlapping extents on disk " << d;
    }
  }
}

// --- coalesced I/O equivalence ----------------------------------------

void expect_same_accounting(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.read_ops, b.read_ops);
  EXPECT_EQ(a.write_ops, b.write_ops);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.read_calls, b.read_calls);
  EXPECT_EQ(a.write_calls, b.write_calls);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.disk_read_calls, b.disk_read_calls);
  EXPECT_EQ(a.disk_write_calls, b.disk_write_calls);
  EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s);
}

// Streams a run's worth of data out and back through two contexts — one
// synchronous, one pipelined — over the same backend type, with extents
// and coalescing on. Bytes and stats must match exactly.
void coalesced_roundtrip(PdmContext& sync_ctx, PdmContext& async_ctx,
                         usize depth, u64 seed) {
  async_ctx.set_async_depth(depth);
  Rng rng(seed);
  const usize rpb = sync_ctx.rpb<u64>();
  // Several runs, ragged sizes, so batches mix extent spans and partial
  // tails on both contexts identically.
  std::vector<std::vector<u64>> datasets;
  std::vector<StripedRun<u64>> sruns, aruns;
  for (int r = 0; r < 3; ++r) {
    const usize n = (r + 2) * 8 * rpb + static_cast<usize>(rng.below(rpb));
    datasets.push_back(make_keys(n, Dist::kUniform, rng));
    sruns.push_back(write_input_run<u64>(
        sync_ctx, std::span<const u64>(datasets.back()),
        static_cast<u32>(r)));
    aruns.push_back(write_input_run<u64>(
        async_ctx, std::span<const u64>(datasets.back()),
        static_cast<u32>(r)));
  }
  // Bulk span reads (the coalescing-heavy shape) in random chunks.
  for (int round = 0; round < 20; ++round) {
    const usize r = static_cast<usize>(rng.below(3));
    const u64 nb = sruns[r].num_blocks();
    const u64 first = rng.below(nb);
    const u64 count = 1 + rng.below(nb - first);
    std::vector<u64> got_s(static_cast<usize>(count) * rpb);
    std::vector<u64> got_a(got_s.size());
    sruns[r].read_blocks(first, count, got_s.data());
    aruns[r].read_blocks(first, count, got_a.data());
    EXPECT_EQ(got_s, got_a);
  }
  // Full readback must reproduce the input bytes on both.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(sruns[r].read_all(), datasets[static_cast<usize>(r)]);
    EXPECT_EQ(aruns[r].read_all(), datasets[static_cast<usize>(r)]);
  }
  async_ctx.aio().drain();
  expect_same_accounting(sync_ctx.stats(), async_ctx.stats());
  EXPECT_EQ(sync_ctx.stats().schedule_hash, async_ctx.stats().schedule_hash);
  // The point of the layer: far fewer backend calls than blocks.
  EXPECT_GT(sync_ctx.stats().coalesced_ratio(), 2.0);
}

TEST(ExtentIo, SyncAsyncEquivalenceMemoryBackend) {
  for (usize depth : {2u, 4u}) {
    auto sync_ctx = make_memory_context(4, 16 * sizeof(u64), 1);
    auto async_ctx = make_memory_context(4, 16 * sizeof(u64), 1);
    coalesced_roundtrip(*sync_ctx, *async_ctx, depth, 7);
  }
}

TEST(ExtentIo, SyncAsyncEquivalenceFileBackend) {
  const std::string dir = "/tmp/pdmsort_extent_test";
  auto sync_ctx = make_file_context(4, 16 * sizeof(u64), dir + "/sync");
  auto async_ctx = make_file_context(4, 16 * sizeof(u64), dir + "/async");
  coalesced_roundtrip(*sync_ctx, *async_ctx, 4, 11);
  std::filesystem::remove_all(dir);
}

// Extent WriteReqs (count > 1, strided) submitted through the context's
// write-behind path must be staged correctly: the slab copy flattens the
// strided payload, and the caller's buffer is reusable immediately.
TEST(ExtentIo, WriteBehindStagesExtentRequests) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  ctx->set_async_depth(4);
  const usize rpb = ctx->rpb<u64>();
  const Extent e = ctx->alloc().alloc_extent(0, 4, ctx->alloc_region());
  // Source: 4 blocks at a 2-block stride inside a scratch buffer.
  std::vector<u64> src(8 * rpb);
  for (usize i = 0; i < src.size(); ++i) src[i] = i * 3 + 1;
  std::vector<u64> expect;
  for (u64 b = 0; b < 4; ++b) {
    for (usize i = 0; i < rpb; ++i) {
      expect.push_back(src[static_cast<usize>(2 * b) * rpb + i]);
    }
  }
  WriteReq w{BlockRef{e.disk, e.index},
             reinterpret_cast<const std::byte*>(src.data()), 4,
             static_cast<i64>(2 * rpb * sizeof(u64))};
  ctx->write_batch(std::span<const WriteReq>(&w, 1));
  // Clobber the source: the ring must have copied the payload already.
  std::fill(src.begin(), src.end(), u64{0});
  std::vector<u64> got(4 * rpb);
  ReadReq r{BlockRef{e.disk, e.index}, reinterpret_cast<std::byte*>(got.data()),
            4};
  ctx->aio().read(std::span<const ReadReq>(&r, 1));
  EXPECT_EQ(got, expect);
  EXPECT_EQ(ctx->stats().blocks_written, 4u);
  EXPECT_EQ(ctx->stats().write_calls, 1u);
}

// One sort job through a default-config SortService (one worker): the
// whole extent path — region-scoped 32-block extents, coalesced batches,
// the pipeline depth the service grants — pinned to recorded IoStats. The
// ops and blocks are those of the block-at-a-time backend path this layer
// replaced (single-block allocation, no coalescing: 512 calls each way for
// the sort), so coalescing changed how many calls move the blocks, never
// how many parallel ops (hence passes) they cost.
TEST(ExtentIo, ServiceSortFingerprintIsPinned) {
  const u64 mem = 4096;
  const usize rpb = 64;
  Rng rng(5);
  auto data = make_keys(4 * mem, Dist::kPermutation, rng);
  ServiceConfig cfg;
  cfg.workers = 1;
  SortService svc(std::make_shared<MemoryDiskBackend>(4, rpb * sizeof(u64)),
                  cfg);
  SortJobSpec spec;
  spec.name = "pinned";
  spec.mem_records = mem;
  std::vector<u64> out;
  const JobId id = svc.submit<u64>(
      spec, data, {},
      [&](const SortResult<u64>& r) { out = r.output.read_all(); });
  const JobInfo info = svc.wait(id);
  ASSERT_EQ(info.state, JobState::kDone) << info.error;
  std::sort(data.begin(), data.end());
  EXPECT_EQ(out, data);
  const IoStats& io = info.report.io;
  EXPECT_EQ(info.algorithm, "ExpectedTwoPass");
  EXPECT_EQ(io.read_ops, 128u);
  EXPECT_EQ(io.write_ops, 128u);
  EXPECT_EQ(io.blocks_read, 512u);
  EXPECT_EQ(io.blocks_written, 512u);
  EXPECT_EQ(io.read_calls, 80u);
  EXPECT_EQ(io.write_calls, 32u);
  // The whole job: staging, sort and the callback's readback.
  EXPECT_EQ(info.io.read_ops, 192u);
  EXPECT_EQ(info.io.write_ops, 192u);
  EXPECT_EQ(info.io.blocks_read, 768u);
  EXPECT_EQ(info.io.blocks_written, 768u);
  EXPECT_EQ(info.io.read_calls, 88u);
  EXPECT_EQ(info.io.write_calls, 36u);
  EXPECT_GT(io.coalesced_ratio(), 2.0);
}

}  // namespace
}  // namespace pdm
