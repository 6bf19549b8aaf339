// Tests for §7: IntegerSort (Theorem 7.1) and RadixSort (Theorem 7.2),
// including the pass bounds, the staged-mode ablation, skewed keys and
// the bucket/reader plumbing.
#include <gtest/gtest.h>

#include "core/integer_sort.h"
#include "core/radix_sort.h"
#include "test_support.h"

namespace pdm {
namespace {

using test::Geometry;

TEST(Readers, StripedRunReaderStreamsEverything) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(1);
  auto data = make_keys(1000, Dist::kUniform, rng);  // ragged tail
  auto in = test::stage_input<u64>(*ctx, data);
  StripedRunReader<u64> r(in);
  std::vector<u64> got;
  std::vector<u64> buf(256);
  while (!r.exhausted()) {
    const usize n = r.read_up_to(buf.data(), buf.size());
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got, data);
}

TEST(IntegerSort, SortsUniformKeys) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(2);
  auto data = make_int_keys(4096, 16, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 16;
  auto res = integer_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

TEST(IntegerSort, BucketsHoldExactlyTheirValue) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(3);
  auto data = make_int_keys(2048, 16, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 16;
  opt.placement_pass = false;
  auto res = integer_sort<u64>(*ctx, in, opt);
  ASSERT_EQ(res.buckets.size(), 16u);
  u64 total = 0;
  for (usize v = 0; v < 16; ++v) {
    auto recs = res.buckets[v].read_all();
    total += recs.size();
    for (u64 r : recs) EXPECT_EQ(r, v);
  }
  EXPECT_EQ(total, data.size());
}

TEST(IntegerSort, WithoutPlacementIsAboutOnePassPlusMu) {
  const auto g = Geometry::square(1024);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(4);
  auto data = make_int_keys(32768, 32, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 1024;
  opt.range = 32;
  opt.placement_pass = false;
  auto res = integer_sort<u64>(*ctx, in, opt);
  // Theorem 7.1: (1+mu) passes, mu < 1.
  EXPECT_GE(res.report.passes, 1.0);
  EXPECT_LT(res.report.passes, 2.0);
}

TEST(IntegerSort, StagedModeCutsPadding) {
  const auto g = Geometry::square(1024);
  Rng rng(5);
  auto data = make_int_keys(32768, 32, rng);
  u64 pad_paper, pad_staged;
  double passes_paper, passes_staged;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    IntegerSortOptions opt;
    opt.mem_records = 1024;
    opt.range = 32;
    auto res = integer_sort<u64>(*ctx, in, opt);
    test::expect_sorted_output<u64>(res.output, data);
    pad_paper = res.pad_records;
    passes_paper = res.report.passes;
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    IntegerSortOptions opt;
    opt.mem_records = 1024;
    opt.range = 32;
    opt.staged = true;
    auto res = integer_sort<u64>(*ctx, in, opt);
    test::expect_sorted_output<u64>(res.output, data);
    pad_staged = res.pad_records;
    passes_staged = res.report.passes;
  }
  EXPECT_LT(pad_staged, pad_paper / 4);
  EXPECT_LE(passes_staged, passes_paper + 0.01);
}

TEST(IntegerSort, SkewedKeysStillSortWithBoundedOverhead) {
  // Theorem 7.1's bucket-balance analysis assumes uniform keys. With
  // striped ragged buckets the scheduler still interleaves buckets across
  // disks, so zipf skew does not blow up the pass count — it stays within
  // the same (1 + mu), mu < 1 envelope. (Skew can even *reduce* padding:
  // fat buckets emit more full blocks.)
  const auto g = Geometry::square(1024);
  Rng rng(6);
  auto skewed = make_skewed_int_keys(16384, 32, rng);
  auto ctx = test::make_ctx<u64>(g);
  auto in = test::stage_input<u64>(*ctx, skewed);
  IntegerSortOptions opt;
  opt.mem_records = 1024;
  opt.range = 32;
  auto res = integer_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, skewed);
  EXPECT_GE(res.report.write_passes, 2.0);  // distribute + placement
  EXPECT_LT(res.report.write_passes, 4.0);  // 2(1 + mu), mu < 1
}

TEST(IntegerSort, RejectsRangeOverMOverB) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> data(256, 0);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 17;  // > M/B = 16
  EXPECT_THROW(integer_sort<u64>(*ctx, in, opt), Error);
}

TEST(IntegerSort, RejectsOutOfRangeKey) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> data(256, 0);
  data[100] = 99;  // >= range
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 16;
  EXPECT_THROW(integer_sort<u64>(*ctx, in, opt), Error);
}

class RadixSortRange : public ::testing::TestWithParam<u32> {};

TEST_P(RadixSortRange, SortsKeysOfAnyWidth) {
  const u32 key_bits = GetParam();
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(key_bits);
  const u64 range = key_bits >= 64 ? ~u64{0} : (u64{1} << key_bits);
  std::vector<u64> data(8192);
  for (auto& x : data) x = key_bits >= 64 ? rng.next() : rng.below(range);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = key_bits;
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

INSTANTIATE_TEST_SUITE_P(Widths, RadixSortRange,
                         ::testing::Values(1, 4, 8, 16, 32, 48, 64));

TEST(RadixSort, SmallInputSingleLoad) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(9);
  auto data = make_int_keys(200, 1000, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = 10;
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
  EXPECT_LE(res.report.passes, 2.2);  // read + write
}

TEST(RadixSort, Observation72PassBudget) {
  // N = M^2, B = sqrt(M), keys in [0, M^2): Observation 7.2 promises
  // <= 3.6 passes for C = 4. The paper's write-step analysis counts one
  // phase's padding but not its compounding: every MSD round rereads the
  // previous round's padded blocks (~1.5x volume per level), so the
  // honestly-measured figure is ~5.9 passes in paper mode and ~5.3 with
  // the staged extension (docs/ALGORITHMS.md, RadixSort, tabulates the
  // gap). Constant number of passes for any N — the theorem's substance —
  // holds.
  const u64 mem = 1024;
  const auto g = Geometry::square(mem);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(10);
  const u64 n = mem * mem;  // 1M records
  std::vector<u64> data(static_cast<usize>(n));
  for (auto& x : data) x = rng.below(n);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = mem;
  opt.key_bits = 20;  // keys < M^2 = 2^20
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
  EXPECT_LE(res.report.passes, 6.5);
  EXPECT_GE(res.report.passes, 3.0);
}

TEST(RadixSort, StagedModeNotWorse) {
  const u64 mem = 1024;
  const auto g = Geometry::square(mem);
  Rng rng(11);
  std::vector<u64> data(65536);
  for (auto& x : data) x = rng.below(1u << 20);
  double p_paper, p_staged;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    RadixSortOptions opt;
    opt.mem_records = mem;
    opt.key_bits = 20;
    p_paper = radix_sort<u64>(*ctx, in, opt).report.passes;
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    RadixSortOptions opt;
    opt.mem_records = mem;
    opt.key_bits = 20;
    opt.staged = true;
    p_staged = radix_sort<u64>(*ctx, in, opt).report.passes;
  }
  EXPECT_LE(p_staged, p_paper + 0.05);
}

TEST(RadixSort, AllEqualKeys) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> data(4096, 7);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = 8;
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

TEST(RadixSort, KvPayloadsSurvive) {
  const auto g = Geometry::square(256);
  auto ctx = make_memory_context(g.disks, g.rpb * sizeof(KV64));
  Rng rng(12);
  std::vector<KV64> data(4096);
  for (usize i = 0; i < data.size(); ++i) {
    data[i] = KV64{rng.below(1u << 16), static_cast<u64>(i)};
  }
  auto in = test::stage_input<KV64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = 16;
  auto res = radix_sort<KV64>(*ctx, in, opt);
  test::expect_key_sorted_permutation<KV64>(res.output, data);
}

}  // namespace
}  // namespace pdm
