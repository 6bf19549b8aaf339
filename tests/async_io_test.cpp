// Stress tests for the asynchronous I/O pipeline (async_io.h,
// prefetch_buffer.h): the async scheduler must produce byte-identical disk
// contents and identical IoStats parallel-op accounting to the synchronous
// scheduler, across randomized batch shapes, both backends, and every core
// algorithm that threads the pipeline through its hot path.
#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/multiway_merge.h"
#include "core/expected_three_pass.h"
#include "core/expected_two_pass.h"
#include "core/integer_sort.h"
#include "core/radix_sort.h"
#include "pdm/file_backend.h"
#include "pdm/memory_backend.h"
#include "pdm/prefetch_buffer.h"
#include "test_support.h"

namespace pdm {
namespace {

using test::Geometry;

// Ops/blocks/per-disk accounting must match exactly on success paths (all
// runs below). Two intentional exclusions: the schedule hash (prefetch
// reorders batches relative to each other — never within a batch, never
// per disk — so the submission *interleave* differs even though every
// batch is charged identically), and verified-cleanup *fallback* paths,
// where the prefetcher may have charged up to one speculative chunk of
// reads a synchronous run would not have issued (see stream.h).
void expect_same_accounting(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.read_ops, b.read_ops);
  EXPECT_EQ(a.write_ops, b.write_ops);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s);
}

// Issues the same randomized write/read workload against a synchronous and
// an async-depth-`depth` context and checks bytes + accounting match.
void randomized_batches_roundtrip(PdmContext& sync_ctx, PdmContext& async_ctx,
                                  usize depth, u64 seed) {
  async_ctx.set_async_depth(depth);
  const usize bb = sync_ctx.block_bytes();
  const u32 d = sync_ctx.D();
  Rng rng(seed);

  // Random write batches: varying size, skewed disk choice, fresh blocks.
  std::vector<std::pair<BlockRef, std::vector<std::byte>>> blocks;
  for (int batch = 0; batch < 20; ++batch) {
    const usize nreq = 1 + static_cast<usize>(rng.next() % (3 * d));
    std::vector<std::vector<std::byte>> payloads(nreq);
    std::vector<WriteReq> sync_reqs;
    std::vector<WriteReq> async_reqs;
    for (usize i = 0; i < nreq; ++i) {
      // Skew: half the requests pile onto disk 0 so batches are uneven.
      const u32 disk = (rng.next() % 2 == 0)
                           ? 0
                           : static_cast<u32>(rng.next() % d);
      payloads[i].resize(bb);
      for (auto& byte : payloads[i]) {
        byte = static_cast<std::byte>(rng.next());
      }
      const BlockRef sref = sync_ctx.alloc().alloc(disk);
      const BlockRef aref = async_ctx.alloc().alloc(disk);
      ASSERT_EQ(sref, aref);  // same allocation sequence on both contexts
      sync_reqs.push_back(WriteReq{sref, payloads[i].data()});
      async_reqs.push_back(WriteReq{aref, payloads[i].data()});
      blocks.emplace_back(sref, payloads[i]);
    }
    sync_ctx.io().write(sync_reqs);
    // Route through the write-behind ring, like the algorithms do.
    async_ctx.write_batch(async_reqs);
  }

  // Random read batches over everything written, in shuffled order.
  std::vector<usize> order(blocks.size());
  for (usize i = 0; i < order.size(); ++i) order[i] = i;
  for (usize i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }
  std::vector<std::byte> got_sync(bb), got_async(bb);
  for (usize idx : order) {
    ReadReq rs{blocks[idx].first, got_sync.data()};
    ReadReq ra{blocks[idx].first, got_async.data()};
    sync_ctx.io().read(std::span<const ReadReq>(&rs, 1));
    async_ctx.aio().read(std::span<const ReadReq>(&ra, 1));
    EXPECT_EQ(got_sync, blocks[idx].second);
    EXPECT_EQ(got_async, blocks[idx].second);
  }
  async_ctx.aio().drain();
  expect_same_accounting(sync_ctx.stats(), async_ctx.stats());
}

TEST(AsyncIo, RandomizedBatchesMemoryBackend) {
  for (usize depth : {2u, 4u, 8u}) {
    for (u64 seed : {1u, 7u, 42u}) {
      auto sync_ctx = make_memory_context(8, 256, seed);
      auto async_ctx = make_memory_context(8, 256, seed);
      randomized_batches_roundtrip(*sync_ctx, *async_ctx, depth, seed);
    }
  }
}

TEST(AsyncIo, RandomizedBatchesFileBackend) {
  const std::string dir = "/tmp/pdmsort_async_test";
  for (usize depth : {2u, 4u}) {
    auto sync_ctx = make_file_context(4, 256, dir + "/sync");
    auto async_ctx = make_file_context(4, 256, dir + "/async");
    randomized_batches_roundtrip(*sync_ctx, *async_ctx, depth, 99);
  }
  std::filesystem::remove_all(dir);
}

TEST(AsyncIo, ReadAfterWriteBehindSameBlock) {
  // A read submitted after a write-behind of the same block must observe
  // the written data (per-disk FIFO ordering).
  auto ctx = make_memory_context(4, 128);
  ctx->set_async_depth(4);
  std::vector<std::byte> buf(128);
  for (int round = 0; round < 50; ++round) {
    for (auto& b : buf) b = static_cast<std::byte>(round);
    const BlockRef ref = ctx->alloc().alloc(static_cast<u32>(round % 4));
    WriteReq w{ref, buf.data()};
    ctx->write_batch(std::span<const WriteReq>(&w, 1));
    // Overwrite the staging buffer immediately: write_batch must have
    // copied the payload.
    for (auto& b : buf) b = std::byte{0xFF};
    std::vector<std::byte> got(128);
    ReadReq r{ref, got.data()};
    ctx->aio().read(std::span<const ReadReq>(&r, 1));
    EXPECT_EQ(got, std::vector<std::byte>(128, static_cast<std::byte>(round)));
  }
}

TEST(AsyncIo, WorkerErrorPropagatesAndSticks) {
  auto ctx = make_memory_context(2, 128);
  ctx->set_async_depth(2);
  std::vector<std::byte> buf(128);
  ReadReq r{{0, 999}, buf.data()};  // never written: backend throws
  EXPECT_THROW(
      {
        IoTicket t = ctx->aio().read_async(std::span<const ReadReq>(&r, 1));
        ctx->aio().wait(t);
      },
      Error);
  // The error is sticky: even if the first throw was swallowed during
  // unwinding (drain guards, ring destructors), later pipeline
  // interactions must still report it — no silent data loss.
  EXPECT_THROW(ctx->aio().drain(), Error);
  EXPECT_THROW(ctx->aio().wait(0), Error);
}

TEST(AsyncIo, DepthOneStaysSynchronous) {
  auto ctx = make_memory_context(2, 128);
  ctx->set_async_depth(1);
  EXPECT_FALSE(ctx->aio().enabled());
  std::vector<std::byte> buf(128, std::byte{0x5A});
  const BlockRef ref = ctx->alloc().alloc(0);
  WriteReq w{ref, buf.data()};
  EXPECT_EQ(ctx->aio().write_async(std::span<const WriteReq>(&w, 1)),
            IoTicket{0});
  std::vector<std::byte> got(128);
  ReadReq r{ref, got.data()};
  ctx->io().read(std::span<const ReadReq>(&r, 1));
  EXPECT_EQ(got, buf);
}

// ---- Algorithm-level equivalence: identical outputs and accounting ----

template <class RunFn>
void expect_async_matches_sync(u64 n, const RunFn& run, u64 seed = 3) {
  const auto g = Geometry::square(1024);
  Rng rng(seed);
  auto data = make_keys(static_cast<usize>(n), Dist::kUniform, rng);

  auto sync_ctx = test::make_ctx<u64>(g);
  auto in_sync = test::stage_input<u64>(*sync_ctx, data);
  auto out_sync = run(*sync_ctx, in_sync);
  const IoStats sync_stats = sync_ctx->stats();

  for (usize depth : {2u, 4u}) {
    auto async_ctx = test::make_ctx<u64>(g);
    auto in_async = test::stage_input<u64>(*async_ctx, data);
    async_ctx->set_async_depth(depth);  // the depth belongs to the context
    auto out_async = run(*async_ctx, in_async);
    async_ctx->aio().drain();
    expect_same_accounting(sync_stats, async_ctx->stats());
    ASSERT_EQ(out_async.size(), out_sync.size());
    EXPECT_EQ(out_async, out_sync) << "depth " << depth;
  }
}

TEST(AsyncAlgorithms, ExpectedTwoPass) {
  expect_async_matches_sync(4 * 1024, [](PdmContext& ctx,
                                         const StripedRun<u64>& in) {
    ExpectedTwoPassOptions opt;
    opt.mem_records = 1024;
    return expected_two_pass_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(AsyncAlgorithms, ExpectedThreePass) {
  expect_async_matches_sync(16 * 1024, [](PdmContext& ctx,
                                          const StripedRun<u64>& in) {
    ExpectedThreePassOptions opt;
    opt.mem_records = 1024;
    return expected_three_pass_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(AsyncAlgorithms, MultiwayMerge) {
  expect_async_matches_sync(8 * 1024, [](PdmContext& ctx,
                                         const StripedRun<u64>& in) {
    MultiwaySortOptions opt;
    opt.mem_records = 1024;
    opt.lookahead = 2;
    return multiway_merge_sort<u64>(ctx, in, opt).output.read_all();
  });
}

TEST(AsyncAlgorithms, IntegerSort) {
  expect_async_matches_sync(8 * 1024, [](PdmContext& ctx,
                                         const StripedRun<u64>& in) {
    // IntegerSort needs keys in [0, range): remap the staged input.
    IntegerSortOptions opt;
    opt.mem_records = 1024;
    opt.range = 16;
    auto data = in.read_all();
    for (auto& k : data) k %= opt.range;
    auto remapped = write_input_run<u64>(ctx, std::span<const u64>(data));
    ctx.io().reset_stats();
    return integer_sort<u64>(ctx, remapped, opt).output.read_all();
  });
}

TEST(AsyncAlgorithms, RadixSort) {
  expect_async_matches_sync(16 * 1024, [](PdmContext& ctx,
                                          const StripedRun<u64>& in) {
    RadixSortOptions opt;
    opt.mem_records = 1024;
    opt.key_bits = 20;
    auto data = in.read_all();
    for (auto& k : data) k &= (u64{1} << 20) - 1;
    auto remapped = write_input_run<u64>(ctx, std::span<const u64>(data));
    ctx.io().reset_stats();
    return radix_sort<u64>(ctx, remapped, opt).output.read_all();
  });
}

TEST(AsyncAlgorithms, FileBackendExpectedTwoPass) {
  const std::string dir = "/tmp/pdmsort_async_algo_test";
  const auto g = Geometry::square(1024);
  Rng rng(5);
  auto data = make_keys(4 * 1024, Dist::kPermutation, rng);

  std::vector<u64> outs[2];
  IoStats stats[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto ctx = make_file_context(g.disks, g.rpb * sizeof(u64),
                                 dir + "/" + std::to_string(pass));
    auto in = test::stage_input<u64>(*ctx, data);
    if (pass == 1) ctx->set_async_depth(4);
    ExpectedTwoPassOptions opt;
    opt.mem_records = 1024;
    outs[pass] = expected_two_pass_sort<u64>(*ctx, in, opt).output.read_all();
    ctx->aio().drain();
    stats[pass] = ctx->stats();
  }
  EXPECT_EQ(outs[0], outs[1]);
  expect_same_accounting(stats[0], stats[1]);
  std::filesystem::remove_all(dir);
}

// ---- Ring-buffer units ----

TEST(PrefetchBuffer, WriteBehindRingCopiesPayload) {
  auto ctx = make_memory_context(2, 64);
  ctx->set_async_depth(2);
  WriteBehindRing ring(ctx->aio(), &ctx->budget(), 2);
  std::vector<std::byte> buf(64, std::byte{0x11});
  std::vector<BlockRef> refs;
  for (int i = 0; i < 6; ++i) {
    std::fill(buf.begin(), buf.end(), static_cast<std::byte>(i));
    const BlockRef ref = ctx->alloc().alloc(static_cast<u32>(i % 2));
    refs.push_back(ref);
    WriteReq w{ref, buf.data()};
    ring.submit_copy(std::span<const WriteReq>(&w, 1));
  }
  ring.drain();
  for (int i = 0; i < 6; ++i) {
    std::vector<std::byte> got(64);
    ReadReq r{refs[static_cast<usize>(i)], got.data()};
    ctx->aio().read(std::span<const ReadReq>(&r, 1));
    EXPECT_EQ(got, std::vector<std::byte>(64, static_cast<std::byte>(i)));
  }
}

TEST(PrefetchBuffer, ReadAheadRingDeliversInOrder) {
  auto ctx = make_memory_context(4, 8 * sizeof(u64));
  const usize rpb = ctx->rpb<u64>();
  std::vector<u64> data(8 * rpb);
  for (usize i = 0; i < data.size(); ++i) data[i] = i;
  auto run = write_input_run<u64>(*ctx, std::span<const u64>(data));
  ctx->set_async_depth(3);

  ReadAheadRing<u64> ring(ctx->aio(), ctx->budget(), rpb, 2);
  u64 next_block = 0;
  auto push_one = [&] {
    if (next_block >= run.num_blocks() || ring.full()) return;
    ReadReq req = run.read_req(next_block, ring.stage());
    ring.push(std::span<const ReadReq>(&req, 1),
              {run.records_in_block(next_block)});
    ++next_block;
  };
  push_one();
  push_one();
  usize seen = 0;
  while (!ring.empty()) {
    auto view = ring.front();
    for (usize i = 0; i < (*view.valid)[0]; ++i) {
      EXPECT_EQ(view.data[i], seen++);
    }
    ring.pop();
    push_one();
  }
  EXPECT_EQ(seen, data.size());
}

}  // namespace
}  // namespace pdm
