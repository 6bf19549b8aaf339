// Tests for the baselines: Chaudhry–Cormen 3-pass columnsort and the
// forecasting multiway mergesort.
#include <gtest/gtest.h>

#include "baselines/columnsort.h"
#include "baselines/multiway_merge.h"
#include "core/three_pass_lmm.h"
#include "test_support.h"

namespace pdm {
namespace {

using test::Geometry;

TEST(ColumnsortGeometry, RespectsLeightonConstraint) {
  for (u64 mem : {256ull, 1024ull, 4096ull}) {
    const u64 rpb = isqrt(mem);
    const u64 n = max_columnsort_n(mem, rpb);
    ASSERT_GT(n, 0u);
    auto g = columnsort_geometry(n, mem, rpb);
    ASSERT_TRUE(g.ok);
    EXPECT_EQ(g.rows * g.cols, n);
    EXPECT_LE(g.rows, mem);
    EXPECT_GE(g.rows, 2 * (g.cols - 1) * (g.cols - 1));
    EXPECT_EQ(g.rows % g.cols, 0u);
    EXPECT_EQ((g.rows / g.cols) % rpb, 0u);
    // Capacity is within a small constant of M*sqrt(M/2) (alignment loss).
    EXPECT_GT(n, cap_columnsort_cc(mem) / 3);
    EXPECT_LE(n, cap_columnsort_cc(mem));
  }
}

class ColumnsortDist : public ::testing::TestWithParam<Dist> {};

TEST_P(ColumnsortDist, SortsAtMaxCapacity) {
  const u64 mem = 1024;
  const auto g = Geometry::square(mem);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(static_cast<u64>(GetParam()) * 5 + 3);
  const u64 n = max_columnsort_n(mem, g.rpb);
  auto data = make_keys(static_cast<usize>(n), GetParam(), rng);
  auto in = test::stage_input<u64>(*ctx, data);
  ColumnsortOptions opt;
  opt.mem_records = mem;
  auto res = columnsort_cc_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
  test::expect_passes_near(res.report, 3.0, 0.2);
}

INSTANTIATE_TEST_SUITE_P(Dists, ColumnsortDist,
                         ::testing::Values(Dist::kUniform, Dist::kSorted,
                                           Dist::kReverse, Dist::kAllEqual,
                                           Dist::kZipf, Dist::kFewDistinct),
                         [](const auto& info) {
                           std::string s = dist_name(info.param);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

TEST(Columnsort, ExplicitGeometry) {
  const u64 mem = 1024;
  const auto g = Geometry::square(mem);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(7);
  // r = 512, c = 8: r >= 2*49 = 98, p = 64 = 2B.
  const u64 n = 512 * 8;
  auto data = make_keys(static_cast<usize>(n), Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  ColumnsortOptions opt;
  opt.mem_records = mem;
  opt.rows = 512;
  opt.cols = 8;
  auto res = columnsort_cc_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

TEST(Columnsort, ManySeeds) {
  const u64 mem = 256;
  const auto g = Geometry::square(mem);
  const u64 n = max_columnsort_n(mem, g.rpb);
  ASSERT_GT(n, 0u);
  for (u64 seed = 0; seed < 15; ++seed) {
    auto ctx = test::make_ctx<u64>(g, seed + 1);
    Rng rng(seed);
    auto data = make_keys(static_cast<usize>(n), Dist::kUniform, rng);
    auto in = test::stage_input<u64>(*ctx, data);
    ColumnsortOptions opt;
    opt.mem_records = mem;
    auto res = columnsort_cc_sort<u64>(*ctx, in, opt);
    test::expect_sorted_output<u64>(res.output, data);
  }
}

TEST(Columnsort, RejectsInfeasibleGeometry) {
  const u64 mem = 256;
  const auto g = Geometry::square(mem);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> data(1000, 1);  // no valid (r, c) factorization
  auto in = test::stage_input<u64>(*ctx, data);
  ColumnsortOptions opt;
  opt.mem_records = mem;
  EXPECT_THROW(columnsort_cc_sort<u64>(*ctx, in, opt), Error);
}

TEST(Columnsort, CapacityBelowLmmThreePass) {
  // Observation 4.1: LMM's 3-pass capacity is M^1.5 vs columnsort's
  // M*sqrt(M/2) — a factor sqrt(2).
  for (u64 mem : {1024ull, 4096ull, 16384ull}) {
    EXPECT_GT(cap_three_pass(mem, isqrt(mem)),
              static_cast<u64>(1.3 * static_cast<double>(
                                         cap_columnsort_cc(mem))));
  }
}

class MultiwaySortDist : public ::testing::TestWithParam<Dist> {};

TEST_P(MultiwaySortDist, Sorts) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(static_cast<u64>(GetParam()) + 41);
  auto data = make_keys(6400, GetParam(), rng);  // ragged run count
  auto in = test::stage_input<u64>(*ctx, data);
  MultiwaySortOptions opt;
  opt.mem_records = 256;
  auto res = multiway_merge_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

INSTANTIATE_TEST_SUITE_P(Dists, MultiwaySortDist,
                         ::testing::Values(Dist::kUniform, Dist::kSorted,
                                           Dist::kReverse, Dist::kZipf,
                                           Dist::kAllEqual),
                         [](const auto& info) {
                           std::string s = dist_name(info.param);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

TEST(MultiwaySort, TwoPassesWithBigFanIn) {
  // N = 8M with fan-in >= 8: run formation + one merge level = 2 passes
  // of data volume (parallel-op passes depend on forecasting).
  const auto g = Geometry::square(1024);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(5);
  auto data = make_keys(8 * 1024, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  MultiwaySortOptions opt;
  opt.mem_records = 1024;
  opt.lookahead = 2;
  auto res = multiway_merge_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
  const double vol_passes =
      static_cast<double>(res.report.io.blocks_read) /
      (static_cast<double>(data.size()) / g.rpb);
  EXPECT_NEAR(vol_passes, 2.0, 0.05);
}

TEST(MultiwaySort, MultipleLevelsWithSmallFanIn) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(6);
  auto data = make_keys(16 * 256, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  MultiwaySortOptions opt;
  opt.mem_records = 256;
  opt.fan_in = 4;  // 16 runs -> 4 -> 1: two merge levels
  auto res = multiway_merge_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
  const double vol_passes =
      static_cast<double>(res.report.io.blocks_read) /
      (static_cast<double>(data.size()) / g.rpb);
  EXPECT_NEAR(vol_passes, 3.0, 0.05);
  EXPECT_NEAR(multiway_predicted_passes(16 * 256, 256, 4), 3.0, 1e-9);
}

TEST(MultiwaySort, ForecastingBeatsNaiveOnParallelOps) {
  // Same fan-in for both configurations (auto fan-in shrinks with
  // lookahead, which would change the number of merge levels).
  const auto g = Geometry::square(1024);  // D = 8
  Rng rng(7);
  auto data = make_keys(16 * 1024, Dist::kUniform, rng);
  u64 ops_naive, ops_forecast;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    MultiwaySortOptions opt;
    opt.mem_records = 4096;
    opt.fan_in = 16;
    opt.lookahead = 0;
    auto res = multiway_merge_sort<u64>(*ctx, in, opt);
    ops_naive = res.report.io.read_ops;
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    MultiwaySortOptions opt;
    opt.mem_records = 4096;
    opt.fan_in = 16;
    opt.lookahead = 2;
    auto res = multiway_merge_sort<u64>(*ctx, in, opt);
    ops_forecast = res.report.io.read_ops;
  }
  EXPECT_LT(ops_forecast * 2, ops_naive);
}

TEST(MultiwaySort, AdversarialInputDefeatsAnyLookahead) {
  // make_merge_adversary arranges keys so every merge wave's blocks live
  // on one disk: utilization stays near 1 block/op regardless of
  // prefetch depth, while the oblivious ThreePass2 is unaffected.
  const auto g = Geometry::square(4096);  // B = 64, D = 16
  const u64 runs = 8;
  const u64 n = runs * 4096;
  auto data = make_merge_adversary(runs, 4096, 64, g.disks);
  double util_adv, util_rand;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    MultiwaySortOptions opt;
    opt.mem_records = 4096;
    opt.lookahead = 4;
    opt.fan_in = runs;
    auto res = multiway_merge_sort<u64>(*ctx, in, opt);
    test::expect_sorted_output<u64>(res.output, data);
    util_adv = static_cast<double>(res.report.io.blocks_read) /
               static_cast<double>(res.report.io.read_ops);
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    Rng rng(1);
    auto rnd = make_keys(static_cast<usize>(n), Dist::kUniform, rng);
    auto in = test::stage_input<u64>(*ctx, rnd);
    MultiwaySortOptions opt;
    opt.mem_records = 4096;
    opt.lookahead = 4;
    opt.fan_in = runs;
    auto res = multiway_merge_sort<u64>(*ctx, in, opt);
    util_rand = static_cast<double>(res.report.io.blocks_read) /
                static_cast<double>(res.report.io.read_ops);
  }
  EXPECT_LT(util_adv, 3.5);
  EXPECT_GT(util_rand, util_adv + 1.0);
  // The oblivious sort's schedule (and cost) is identical on the
  // adversarial input.
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    ThreePassLmmOptions opt;
    opt.mem_records = 4096;
    auto res = three_pass_lmm_sort<u64>(*ctx, in, opt);
    test::expect_sorted_output<u64>(res.output, data);
    test::expect_passes_near(res.report, 3.0);
  }
}

TEST(MultiwaySort, NotOblivious) {
  // The I/O schedule depends on the data: two different inputs of the
  // same size produce different schedule hashes (almost surely).
  const auto g = Geometry::square(256);
  Rng rng(8);
  auto a = make_keys(2048, Dist::kUniform, rng);
  auto b = make_keys(2048, Dist::kUniform, rng);
  u64 ha, hb;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, a);
    MultiwaySortOptions opt;
    opt.mem_records = 256;
    (void)multiway_merge_sort<u64>(*ctx, in, opt);
    ha = ctx->stats().schedule_hash;
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, b);
    MultiwaySortOptions opt;
    opt.mem_records = 256;
    (void)multiway_merge_sort<u64>(*ctx, in, opt);
    hb = ctx->stats().schedule_hash;
  }
  EXPECT_NE(ha, hb);
}

}  // namespace
}  // namespace pdm
