// Edge cases and error paths.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <set>

#include "core/adaptive.h"
#include "pdm/file_backend.h"
#include "pdm/ragged_run.h"
#include "primitives/stream.h"
#include "test_support.h"
#include "util/table.h"

namespace pdm {
namespace {

using test::Geometry;

TEST(ErrorPaths, AppendAfterFinishThrows) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  StripedRun<u64> run(*ctx);
  std::vector<u64> v(8, 1);
  run.append(std::span<const u64>(v));
  run.finish();
  EXPECT_THROW(run.append(std::span<const u64>(v)), Error);
}

TEST(ErrorPaths, ReadAllBeforeFinishWithTailThrows) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  StripedRun<u64> run(*ctx);
  std::vector<u64> v(3, 1);  // partial block stays buffered
  run.append(std::span<const u64>(v));
  EXPECT_THROW(run.read_all(), Error);
  run.finish();
  EXPECT_EQ(run.read_all().size(), 3u);
}

TEST(ErrorPaths, BlockMatrixOutOfRange) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  BlockMatrix<u64> mat(*ctx, 2, 3);
  u64 buf[8];
  EXPECT_THROW((void)mat.read_req(2, 0, buf), Error);
  EXPECT_THROW((void)mat.read_req(0, 3, buf), Error);
}

TEST(ErrorPaths, StripedRunReadBlocksOutOfRange) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  std::vector<u64> v(16, 1);
  auto run = write_input_run<u64>(*ctx, std::span<const u64>(v));
  std::vector<u64> buf(16);
  EXPECT_THROW(run.read_blocks(1, 2, buf.data()), Error);
}

TEST(ErrorPaths, RaggedRunBadCount) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  RaggedRun<u64> run(*ctx);
  std::vector<u64> v(8, 1);
  EXPECT_THROW((void)run.stage_block(v.data(), 0), Error);
  EXPECT_THROW((void)run.stage_block(v.data(), 9), Error);
}

TEST(ErrorPaths, InternalSortRaggedBlocksFitTheBuffer) {
  // M = 1000 is not a multiple of B = 512: the planner picks InternalSort
  // for N = 1000, whose read lands ceil(N/B) = 2 whole blocks (1024
  // records). The buffer must hold the whole blocks, not just M records.
  auto ctx = make_memory_context(4, 512 * sizeof(u64));
  Rng rng(3);
  auto data = make_keys(1000, Dist::kUniform, rng);
  auto in = write_input_run<u64>(*ctx, std::span<const u64>(data));
  AdaptiveOptions opt;
  opt.mem_records = 1000;
  auto res = pdm_sort<u64>(*ctx, in, opt);
  EXPECT_EQ(res.report.algorithm, "InternalSort");
  std::sort(data.begin(), data.end());
  EXPECT_EQ(res.output.read_all(), data);
}

TEST(ErrorPaths, ForcedInternalSortBeyondMThrows) {
  auto ctx = make_memory_context(4, 512 * sizeof(u64));
  Rng rng(4);
  auto data = make_keys(4096, Dist::kUniform, rng);
  auto in = write_input_run<u64>(*ctx, std::span<const u64>(data));
  AdaptiveOptions opt;
  opt.mem_records = 2048;
  opt.force = Algo::kInternal;
  EXPECT_THROW(pdm_sort<u64>(*ctx, in, opt), Error);
}

TEST(FileBackendExtra, KeepFilesLeavesDataOnDisk) {
  const std::string dir = "/tmp/pdmsort_keepfiles_test";
  {
    auto be = std::make_unique<FileDiskBackend>(2, 64, dir,
                                                /*keep_files=*/true);
    std::vector<std::byte> w(64, std::byte{7});
    WriteReq req{{0, 0}, w.data()};
    be->write_batch(std::span<const WriteReq>(&req, 1));
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/disk000.bin"));
  std::filesystem::remove_all(dir);
}

TEST(IoStatsExtra, DeltaSubtracts) {
  IoStats a;
  a.reset(2);
  a.read_ops = 10;
  a.blocks_read = 50;
  a.sim_time_s = 1.5;
  IoStats b = a;
  b.read_ops = 25;
  b.blocks_read = 110;
  b.sim_time_s = 4.0;
  IoStats d = delta(b, a);
  EXPECT_EQ(d.read_ops, 15u);
  EXPECT_EQ(d.blocks_read, 60u);
  EXPECT_NEAR(d.sim_time_s, 2.5, 1e-12);
}

TEST(IoStatsExtra, PassesArithmetic) {
  IoStats s;
  s.reset(4);
  s.read_ops = 64;   // N/(D*B) = 4096/(4*16) = 64 => 1 read pass
  s.write_ops = 128;  // 2 write passes
  EXPECT_NEAR(s.read_passes(4096, 16, 4), 1.0, 1e-12);
  EXPECT_NEAR(s.write_passes(4096, 16, 4), 2.0, 1e-12);
  EXPECT_NEAR(s.passes(4096, 16, 4), 1.5, 1e-12);
}

TEST(CountingSinkWorks, ForwardsAndCounts) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  StripedRun<u64> run(*ctx);
  RunSink<u64> inner(run);
  CountingSink<u64> sink(inner);
  std::vector<u64> v(20, 3);
  sink.push(std::span<const u64>(v.data(), 12));
  sink.push(std::span<const u64>(v.data(), 8));
  sink.close();
  EXPECT_EQ(sink.count(), 20u);
  EXPECT_EQ(run.size(), 20u);
}

TEST(UnshuffleSinkExtra, PartialCloseFlushesTails) {
  auto ctx = make_memory_context(2, 4 * sizeof(u64));
  std::vector<StripedRun<u64>> parts;
  for (u32 j = 0; j < 2; ++j) parts.emplace_back(*ctx, j);
  {
    UnshuffleSink<u64> sink(*ctx, std::span<StripedRun<u64>>(parts.data(), 2));
    std::vector<u64> stream(10);
    std::iota(stream.begin(), stream.end(), u64{0});
    sink.push(std::span<const u64>(stream));  // 10 records: uneven tails
    sink.close();
  }
  EXPECT_EQ(parts[0].read_all(), (std::vector<u64>{0, 2, 4, 6, 8}));
  EXPECT_EQ(parts[1].read_all(), (std::vector<u64>{1, 3, 5, 7, 9}));
}

TEST(TableExtra, FmtCountBoundaries) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(1000), "1.00K");
  EXPECT_EQ(fmt_count(999999), "1000K");
  EXPECT_EQ(fmt_count(1000000000000ull), "1.00T");
}

TEST(CapacityExtra, LowerBoundMonotoneInN) {
  const u64 m = 1u << 16;
  const u64 b = 1u << 8;
  double prev = 0;
  for (u64 n = m; n <= m * m; n *= 16) {
    const double lb = lower_bound_passes(n, m, b);
    EXPECT_GT(lb, prev);
    prev = lb;
  }
}

TEST(GeneratorsExtra, MergeAdversaryIsRunSorted) {
  const u64 runs = 4, run_len = 256;
  auto v = make_merge_adversary(runs, run_len, 16, 8);
  ASSERT_EQ(v.size(), runs * run_len);
  // Each run-length segment must be sorted (so run formation yields
  // exactly the designed runs), and all keys distinct.
  std::set<u64> seen;
  for (u64 r = 0; r < runs; ++r) {
    for (u64 t = 1; t < run_len; ++t) {
      EXPECT_LT(v[r * run_len + t - 1], v[r * run_len + t]);
    }
    for (u64 t = 0; t < run_len; ++t) seen.insert(v[r * run_len + t]);
  }
  EXPECT_EQ(seen.size(), v.size());
}

}  // namespace
}  // namespace pdm
