#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "pdm/block_matrix.h"
#include "pdm/memory_backend.h"
#include "pdm/pdm_context.h"
#include "pdm/ragged_run.h"
#include "pdm/striped_run.h"
#include "test_support.h"

namespace pdm {
namespace {

TEST(MemoryBackend, RoundTrip) {
  MemoryDiskBackend be(4, 64);
  std::vector<std::byte> w(64), r(64);
  for (usize i = 0; i < 64; ++i) w[i] = static_cast<std::byte>(i);
  WriteReq wr{{2, 5}, w.data()};
  be.write_batch(std::span<const WriteReq>(&wr, 1));
  ReadReq rr{{2, 5}, r.data()};
  be.read_batch(std::span<const ReadReq>(&rr, 1));
  EXPECT_EQ(w, r);
  EXPECT_EQ(be.disk_blocks(2), 6u);
  EXPECT_EQ(be.disk_blocks(0), 0u);
}

TEST(MemoryBackend, ReadUnwrittenThrows) {
  MemoryDiskBackend be(2, 64);
  std::vector<std::byte> r(64);
  ReadReq rr{{0, 0}, r.data()};
  EXPECT_THROW(be.read_batch(std::span<const ReadReq>(&rr, 1)), Error);
}

TEST(FileBackend, RoundTripAndCleanup) {
  const std::string dir = "/tmp/pdmsort_test_disks";
  {
    auto ctx = make_file_context(4, 128, dir);
    std::vector<u64> data(16 * 4);  // 4 blocks of 16 u64
    std::iota(data.begin(), data.end(), u64{0});
    auto run = write_input_run<u64>(*ctx, std::span<const u64>(data));
    auto back = run.read_all();
    EXPECT_EQ(back, data);
    EXPECT_TRUE(std::filesystem::exists(dir + "/disk000.bin"));
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/disk000.bin"));
}

TEST(IoScheduler, BatchesRespectOnePerDisk) {
  // 8 blocks spread over 4 disks, 2 each => exactly 2 parallel ops.
  auto ctx = make_memory_context(4, 64);
  std::vector<std::byte> buf(8 * 64);
  std::vector<WriteReq> reqs;
  for (u32 i = 0; i < 8; ++i) {
    reqs.push_back(WriteReq{{i % 4, i / 4}, buf.data() + i * 64});
  }
  const u64 rounds = ctx->io().write(reqs);
  EXPECT_EQ(rounds, 2u);
  EXPECT_EQ(ctx->stats().write_ops, 2u);
  EXPECT_EQ(ctx->stats().blocks_written, 8u);
}

TEST(IoScheduler, SkewedBatchCostsMaxPerDisk) {
  // 5 blocks all on disk 0 => 5 parallel ops even with 4 disks.
  auto ctx = make_memory_context(4, 64);
  std::vector<std::byte> buf(5 * 64);
  std::vector<WriteReq> reqs;
  for (u32 i = 0; i < 5; ++i) {
    reqs.push_back(WriteReq{{0, i}, buf.data() + i * 64});
  }
  EXPECT_EQ(ctx->io().write(reqs), 5u);
  EXPECT_NEAR(ctx->stats().utilization(), 1.0, 1e-9);
}

TEST(IoScheduler, SimTimeAccumulates) {
  auto ctx = make_memory_context(2, 64);
  std::vector<std::byte> buf(64);
  WriteReq w{{0, 0}, buf.data()};
  ctx->io().write(std::span<const WriteReq>(&w, 1));
  const double expect = ctx->io().cost().round_cost(64);
  EXPECT_NEAR(ctx->stats().sim_time_s, expect, 1e-12);
}

TEST(IoScheduler, ScheduleHashChangesWithSchedule) {
  auto a = make_memory_context(2, 64);
  auto b = make_memory_context(2, 64);
  std::vector<std::byte> buf(64);
  WriteReq w0{{0, 0}, buf.data()};
  WriteReq w1{{1, 0}, buf.data()};
  a->io().write(std::span<const WriteReq>(&w0, 1));
  b->io().write(std::span<const WriteReq>(&w1, 1));
  EXPECT_NE(a->stats().schedule_hash, b->stats().schedule_hash);
}

TEST(DiskAllocator, BumpPerDisk) {
  DiskAllocator alloc(3);
  EXPECT_EQ(alloc.alloc(0).index, 0u);
  EXPECT_EQ(alloc.alloc(0).index, 1u);
  EXPECT_EQ(alloc.alloc(1).index, 0u);
  auto c = alloc.alloc_contiguous(2, 10);
  EXPECT_EQ(c.index, 0u);
  EXPECT_EQ(alloc.used(2), 10u);
  EXPECT_EQ(alloc.total_used(), 13u);
  alloc.reset();
  EXPECT_EQ(alloc.total_used(), 0u);
}

TEST(MemoryBudget, EnforcesLimit) {
  MemoryBudget b(100);
  b.acquire(60);
  EXPECT_EQ(b.current(), 60u);
  EXPECT_THROW(b.acquire(50), Error);
  b.release(60);
  b.acquire(100);
  EXPECT_EQ(b.peak(), 100u);
}

TEST(MemoryBudget, TrackedBufferRaii) {
  MemoryBudget b(1024);
  {
    TrackedBuffer<u64> buf(b, 64);
    EXPECT_EQ(b.current(), 512u);
    buf[0] = 7;
    EXPECT_EQ(buf[0], 7u);
    TrackedBuffer<u64> moved = std::move(buf);
    EXPECT_EQ(b.current(), 512u);
    EXPECT_EQ(moved[0], 7u);
  }
  EXPECT_EQ(b.current(), 0u);
  EXPECT_EQ(b.peak(), 512u);
}

TEST(StripedRun, RoundRobinStriping) {
  auto ctx = make_memory_context(4, 8 * sizeof(u64));
  std::vector<u64> data(8 * 10);
  std::iota(data.begin(), data.end(), u64{0});
  auto run = write_input_run<u64>(*ctx, std::span<const u64>(data), 2);
  EXPECT_EQ(run.num_blocks(), 10u);
  for (u64 b = 0; b < 10; ++b) {
    EXPECT_EQ(run.block_ref(b).disk, (2 + b) % 4);
  }
  EXPECT_EQ(run.read_all(), data);
}

TEST(StripedRun, PartialTailPaddedButSizeLogical) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  std::vector<u64> data(19, 5);
  auto run = write_input_run<u64>(*ctx, std::span<const u64>(data));
  EXPECT_EQ(run.size(), 19u);
  EXPECT_EQ(run.num_blocks(), 3u);
  EXPECT_EQ(run.records_in_block(2), 3u);
  EXPECT_EQ(run.read_all(), data);
}

TEST(StripedRun, IncrementalAppendsAccumulate) {
  auto ctx = make_memory_context(2, 4 * sizeof(u64));
  StripedRun<u64> run(*ctx);
  std::vector<u64> expect;
  for (u64 i = 0; i < 23; ++i) {
    u64 v = i * 3;
    run.append(std::span<const u64>(&v, 1));
    expect.push_back(v);
  }
  run.finish();
  EXPECT_EQ(run.read_all(), expect);
}

TEST(StripedRun, FullBlockAppendIsSingleBatch) {
  auto ctx = make_memory_context(4, 8 * sizeof(u64));
  StripedRun<u64> run(*ctx);
  std::vector<u64> data(8 * 8, 1);  // 8 blocks over 4 disks
  run.append(std::span<const u64>(data));
  EXPECT_EQ(ctx->stats().write_ops, 2u);  // 8 blocks / 4 disks
  EXPECT_NEAR(ctx->stats().utilization(), 4.0, 1e-9);
}

// Appends are written in whole stripes of D blocks and the rest is
// carried, so a run's writes cost ceil(blocks / D) ops however its appends
// are sliced: here 6-block appends (never a stripe multiple) of a
// 4-disk run, then finish() writes the carried blocks and the padded last
// block in one batch. Writing each append as its own batch would cost 2
// ops per append.
TEST(StripedRun, SlicedAppendsWriteWholeStripes) {
  auto ctx = make_memory_context(4, 8 * sizeof(u64));
  StripedRun<u64> run(*ctx, 1);
  std::vector<u64> data(8 * 6 * 5 + 3);  // 30 blocks + 3 records
  std::iota(data.begin(), data.end(), u64{0});
  for (usize at = 0; at < data.size(); at += 8 * 6) {
    const usize len = std::min<usize>(8 * 6, data.size() - at);
    run.append(std::span<const u64>(data.data() + at, len));
  }
  EXPECT_EQ(ctx->stats().write_ops, 7u);  // 28 blocks in whole stripes
  run.finish();
  EXPECT_EQ(run.num_blocks(), 31u);
  EXPECT_EQ(ctx->stats().write_ops, 8u);  // ceil(31 / 4)
  EXPECT_EQ(ctx->stats().blocks_written, 31u);
  EXPECT_EQ(run.read_all(), data);
}

TEST(StripedRun, ReadBlocksBatched) {
  auto ctx = make_memory_context(4, 4 * sizeof(u64));
  std::vector<u64> data(4 * 12);
  std::iota(data.begin(), data.end(), u64{0});
  auto run = write_input_run<u64>(*ctx, std::span<const u64>(data));
  ctx->io().reset_stats();
  std::vector<u64> buf(4 * 8);
  run.read_blocks(2, 8, buf.data());
  EXPECT_EQ(ctx->stats().read_ops, 2u);  // 8 blocks over 4 disks
  for (usize i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 8 + i);
}

TEST(RaggedRun, StagesAndCompacts) {
  auto ctx = make_memory_context(2, 4 * sizeof(u64));
  RaggedRun<u64> run(*ctx);
  std::vector<u64> b1{1, 2, 3, 0};  // 3 valid
  std::vector<u64> b2{4, 5, 6, 7};  // full
  std::vector<u64> b3{8, 0, 0, 0};  // 1 valid
  std::vector<WriteReq> reqs;
  reqs.push_back(run.stage_block(b1.data(), 3));
  reqs.push_back(run.stage_block(b2.data(), 4));
  reqs.push_back(run.stage_block(b3.data(), 1));
  ctx->io().write(reqs);
  EXPECT_EQ(run.size(), 8u);
  EXPECT_EQ(run.blocks_on_disk(), 3u);
  auto all = run.read_all();
  EXPECT_EQ(all, (std::vector<u64>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(BlockMatrix, DiagonalStripingFullParallel) {
  auto ctx = make_memory_context(4, 4 * sizeof(u64));
  BlockMatrix<u64> mat(*ctx, 4, 4);
  std::vector<u64> rowbuf(16);
  std::iota(rowbuf.begin(), rowbuf.end(), u64{0});
  ctx->io().reset_stats();
  mat.write_block_row(1, rowbuf.data());
  EXPECT_EQ(ctx->stats().write_ops, 1u);  // 4 blocks on 4 distinct disks
  std::vector<u64> colbuf(16);
  ctx->io().reset_stats();
  // Fill column 2 then read it back: also one op per batch.
  mat.write_block_col(2, colbuf.data());
  EXPECT_EQ(ctx->stats().write_ops, 1u);
  ctx->io().reset_stats();
  mat.read_block_col(2, colbuf.data());
  EXPECT_EQ(ctx->stats().read_ops, 1u);
}

TEST(BlockMatrix, RowColumnConsistency) {
  auto ctx = make_memory_context(4, 2 * sizeof(u64));
  BlockMatrix<u64> mat(*ctx, 3, 5);
  // Write rows with identifiable contents, then read columns.
  std::vector<u64> row(10);
  for (u64 r = 0; r < 3; ++r) {
    for (u64 c = 0; c < 5; ++c) {
      row[c * 2] = r * 100 + c * 10;
      row[c * 2 + 1] = r * 100 + c * 10 + 1;
    }
    mat.write_block_row(r, row.data());
  }
  std::vector<u64> col(6);
  mat.read_block_col(3, col.data());
  EXPECT_EQ(col, (std::vector<u64>{30, 31, 130, 131, 230, 231}));
}

TEST(PdmContext, RpbChecksDivisibility) {
  auto ctx = make_memory_context(2, 100);
  EXPECT_THROW(ctx->rpb<u64>(), Error);  // 100 % 8 != 0
  auto ok = make_memory_context(2, 96);
  EXPECT_EQ(ok->rpb<u64>(), 12u);
}

}  // namespace
}  // namespace pdm
