#include <gtest/gtest.h>

#include <numeric>

#include "core/expected_two_pass.h"
#include "primitives/cleanup.h"
#include "primitives/lmm_merge.h"
#include "primitives/multiway.h"
#include "primitives/run_formation.h"
#include "test_support.h"

namespace pdm {
namespace {

using test::Geometry;

// --------------------------------------------------------- run formation

TEST(RunFormation, RunsAreSortedAndCoverInput) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(1);
  auto data = make_keys(1024, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions opt;
  opt.run_len = 256;
  auto runs = form_runs_flat<u64>(*ctx, in, opt);
  ASSERT_EQ(runs.size(), 4u);
  std::vector<u64> all;
  for (auto& r : runs) {
    auto v = r.read_all();
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    EXPECT_EQ(v.size(), 256u);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  std::sort(data.begin(), data.end());
  EXPECT_EQ(all, data);
}

TEST(RunFormation, ExactlyOnePass) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(2);
  auto data = make_keys(4096, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions opt;
  opt.run_len = 256;
  (void)form_runs_flat<u64>(*ctx, in, opt);
  const auto& s = ctx->stats();
  const double per_pass = 4096.0 / (g.rpb * g.disks);
  EXPECT_EQ(s.read_ops, static_cast<u64>(per_pass));
  EXPECT_EQ(s.write_ops, static_cast<u64>(per_pass));
  EXPECT_NEAR(s.utilization(), g.disks, 0.01);
}

TEST(RunFormation, UnshuffledPartsAreSortedDecimations) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(3);
  auto data = make_keys(512, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions opt;
  opt.run_len = 256;
  opt.unshuffle_parts = 16;  // M/B
  auto parts = form_sorted_runs<u64>(*ctx, in, opt);
  ASSERT_EQ(parts.size(), 2u);
  for (usize i = 0; i < 2; ++i) {
    ASSERT_EQ(parts[i].size(), 16u);
    // Reconstruct the sorted run from its decimations.
    std::vector<u64> sorted_run(256);
    for (usize j = 0; j < 16; ++j) {
      auto pj = parts[i][j].read_all();
      ASSERT_EQ(pj.size(), 16u);
      EXPECT_TRUE(std::is_sorted(pj.begin(), pj.end()));
      for (usize t = 0; t < 16; ++t) sorted_run[t * 16 + j] = pj[t];
    }
    EXPECT_TRUE(std::is_sorted(sorted_run.begin(), sorted_run.end()));
    std::vector<u64> expect(data.begin() + static_cast<std::ptrdiff_t>(i * 256),
                            data.begin() +
                                static_cast<std::ptrdiff_t>((i + 1) * 256));
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(sorted_run, expect);
  }
}

TEST(RunFormation, RangeRestriction) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(4);
  auto data = make_keys(1024, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions opt;
  opt.run_len = 256;
  opt.first_record = 256;
  opt.num_records = 512;
  auto runs = form_runs_flat<u64>(*ctx, in, opt);
  ASSERT_EQ(runs.size(), 2u);
  std::vector<u64> all;
  for (auto& r : runs) {
    auto v = r.read_all();
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<u64> expect(data.begin() + 256, data.begin() + 768);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(all, expect);
}

// Regression for flat_run_start_stride(): D/2+1 is even for D = 6 or 10
// (start-disk collisions) and gcd(9, 15) = 3 spoils D = 15 even after
// forcing odd. The stride must make i -> (i * stride) mod D a bijection
// for every D, and must keep the historical value for power-of-two D
// (byte-identical layouts on the standard geometry).
TEST(RunFormation, StartStrideIsBijectionForAllDiskCounts) {
  for (u32 d = 2; d <= 16; ++d) {
    const u32 stride = flat_run_start_stride(d);
    std::vector<bool> hit(d, false);
    for (u32 i = 0; i < d; ++i) {
      const u32 disk = (i * stride) % d;
      EXPECT_FALSE(hit[disk]) << "D=" << d << " stride=" << stride
                              << ": start disk " << disk << " repeats";
      hit[disk] = true;
    }
  }
  EXPECT_EQ(flat_run_start_stride(8), 5u);    // unchanged power-of-two values
  EXPECT_EQ(flat_run_start_stride(16), 9u);
  EXPECT_EQ(flat_run_start_stride(6), 5u);    // was 4 (even) before the fix
  EXPECT_EQ(flat_run_start_stride(15), 11u);  // odd 9 shares a factor with 15
}

// Regression: a ragged final run with unshuffle_parts > 1 used to abort
// via PDM_CHECK. The tail now falls back to append()/finish() per part;
// parts stay sorted decimations of the sorted tail with the true lengths.
TEST(RunFormation, RaggedFinalRunWithUnshuffledParts) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(17);
  // Ragged tail of 96 records: 6 per part — below one block (B = 16), so
  // every part run exercises the padded partial-block append path.
  const usize n = 256 + 96;
  auto data = make_keys(n, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions opt;
  opt.run_len = 256;
  opt.unshuffle_parts = 16;
  auto parts = form_sorted_runs<u64>(*ctx, in, opt);
  ASSERT_EQ(parts.size(), 2u);
  ASSERT_EQ(parts[1].size(), 16u);
  std::vector<u64> tail_sorted(data.begin() + 256, data.end());
  std::sort(tail_sorted.begin(), tail_sorted.end());
  std::vector<u64> rebuilt(tail_sorted.size());
  for (usize j = 0; j < 16; ++j) {
    auto pj = parts[1][j].read_all();
    const usize expect_len = (96 - j + 15) / 16;  // ceil((nrec - j) / m)
    ASSERT_EQ(pj.size(), expect_len) << "part " << j;
    EXPECT_TRUE(std::is_sorted(pj.begin(), pj.end()));
    for (usize t = 0; t < pj.size(); ++t) rebuilt[t * 16 + j] = pj[t];
  }
  EXPECT_EQ(rebuilt, tail_sorted);
}

TEST(RunFormation, RaggedFinalRun) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(5);
  auto data = make_keys(256 + 64, Dist::kUniform, rng);  // 1.25 runs
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions opt;
  opt.run_len = 256;
  auto runs = form_runs_flat<u64>(*ctx, in, opt);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].size(), 64u);
  const auto tail = runs[1].read_all();
  EXPECT_TRUE(std::is_sorted(tail.begin(), tail.end()));
}

// --------------------------------------------------------------- cleanup

// A synthetic chunk source serving a fixed vector in fixed-size chunks.
class VectorChunkSource final : public ChunkSource<u64> {
 public:
  VectorChunkSource(std::vector<u64> data, usize chunk)
      : data_(std::move(data)), chunk_(chunk) {}

  usize next_chunk(u64* dst, usize cap) override {
    PDM_CHECK(cap >= chunk_, "cap");
    const usize n = std::min(chunk_, data_.size() - pos_);
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n), dst);
    pos_ += n;
    return n;
  }
  usize chunk_records() const override { return chunk_; }
  bool exhausted() const override { return pos_ >= data_.size(); }
  u64 total_records() const override { return data_.size(); }

 private:
  std::vector<u64> data_;
  usize chunk_;
  usize pos_ = 0;
};

class VectorSink final : public Sink<u64> {
 public:
  void push(std::span<const u64> recs) override {
    out.insert(out.end(), recs.begin(), recs.end());
  }
  void close() override { closed = true; }
  std::vector<u64> out;
  bool closed = false;
};

// Any sequence where every element is within `chunk` of its sorted
// position must be fully sorted by the streamed cleanup.
TEST(Cleanup, SortsBoundedDisplacementInputs) {
  Rng rng(6);
  auto ctx = make_memory_context(4, 16 * sizeof(u64));
  for (int trial = 0; trial < 20; ++trial) {
    const usize n = 1024;
    const usize chunk = 64;
    // Build a displaced sequence: sorted + local shuffles within blocks of
    // `chunk` records (displacement < chunk).
    std::vector<u64> v(n);
    std::iota(v.begin(), v.end(), u64{0});
    for (usize b = 0; b < n; b += chunk) {
      std::span<u64> blockspan(v.data() + b, chunk);
      for (usize i = chunk; i > 1; --i) {
        std::swap(blockspan[i - 1],
                  blockspan[static_cast<usize>(rng.below(i))]);
      }
    }
    VectorChunkSource src(v, chunk);
    VectorSink sink;
    CleanupOptions opt;
    opt.chunk_records = chunk;
    auto oc = streamed_cleanup<u64>(*ctx, src, sink, opt);
    EXPECT_TRUE(oc.ok);
    EXPECT_TRUE(sink.closed);
    EXPECT_TRUE(std::is_sorted(sink.out.begin(), sink.out.end()));
    EXPECT_EQ(sink.out.size(), n);
  }
}

TEST(Cleanup, CrossChunkDisplacementWithinBoundSorts) {
  // An element displaced by exactly chunk-1 across a boundary.
  const usize chunk = 32;
  std::vector<u64> v(256);
  std::iota(v.begin(), v.end(), u64{0});
  std::swap(v[40], v[40 + chunk - 1]);
  auto ctx = make_memory_context(2, 16 * sizeof(u64));
  VectorChunkSource src(v, chunk);
  VectorSink sink;
  CleanupOptions opt;
  opt.chunk_records = chunk;
  auto oc = streamed_cleanup<u64>(*ctx, src, sink, opt);
  EXPECT_TRUE(oc.ok);
  EXPECT_TRUE(std::is_sorted(sink.out.begin(), sink.out.end()));
}

TEST(Cleanup, DetectsViolationAndAborts) {
  // Move the global minimum to the end: displacement ~n >> chunk.
  const usize chunk = 32;
  std::vector<u64> v(256);
  std::iota(v.begin(), v.end(), u64{1});
  v.back() = 0;
  auto ctx = make_memory_context(2, 16 * sizeof(u64));
  VectorChunkSource src(v, chunk);
  VectorSink sink;
  CleanupOptions opt;
  opt.chunk_records = chunk;
  opt.abort_on_violation = true;
  auto oc = streamed_cleanup<u64>(*ctx, src, sink, opt);
  EXPECT_FALSE(oc.ok);
  EXPECT_LT(sink.out.size(), v.size());  // aborted early
}

TEST(Cleanup, ViolationWithoutAbortStillReportsNotOk) {
  const usize chunk = 32;
  std::vector<u64> v(256);
  std::iota(v.begin(), v.end(), u64{1});
  v.back() = 0;
  auto ctx = make_memory_context(2, 16 * sizeof(u64));
  VectorChunkSource src(v, chunk);
  VectorSink sink;
  CleanupOptions opt;
  opt.chunk_records = chunk;
  opt.abort_on_violation = false;
  auto oc = streamed_cleanup<u64>(*ctx, src, sink, opt);
  EXPECT_FALSE(oc.ok);
  EXPECT_EQ(sink.out.size(), v.size());  // completed anyway
}

TEST(Cleanup, SingleChunkInputJustSorts) {
  std::vector<u64> v{5, 3, 1, 4, 2};
  auto ctx = make_memory_context(2, 16 * sizeof(u64));
  VectorChunkSource src(v, 8);
  VectorSink sink;
  CleanupOptions opt;
  opt.chunk_records = 8;
  auto oc = streamed_cleanup<u64>(*ctx, src, sink, opt);
  EXPECT_TRUE(oc.ok);
  EXPECT_EQ(sink.out, (std::vector<u64>{1, 2, 3, 4, 5}));
}

// With kernel scratch (budget >= 2) the cleanup sorts each new chunk and
// merges it with the chunk it retained; at budget 1 it sorts the whole
// window. Both emit the same records in the same windows: for source
// chunks of a full cleanup chunk, for short ones (the window fills over
// several steps, some of which emit nothing), and for an input that
// breaks the displacement bound.
TEST(Cleanup, MergePathMatchesWholeWindowSort) {
  Rng rng(8);
  const usize chunk = 64;
  std::vector<u64> displaced(1000);
  std::iota(displaced.begin(), displaced.end(), u64{0});
  for (usize b = 0; b + chunk <= displaced.size(); b += chunk) {
    for (usize i = chunk; i > 1; --i) {
      std::swap(displaced[b + i - 1],
                displaced[b + static_cast<usize>(rng.below(i))]);
    }
  }
  std::vector<u64> violating = displaced;
  std::swap(violating.front(), violating.back());
  for (const auto* input : {&displaced, &violating}) {
    for (usize source_chunk : {chunk, usize{16}, usize{48}}) {
      std::vector<u64> outs[2];
      CleanupOutcome outcomes[2];
      for (usize budget : {1, 4}) {
        auto ctx = make_memory_context(4, 16 * sizeof(u64));
        ctx->set_cpu_budget(budget);
        VectorChunkSource src(*input, source_chunk);
        VectorSink sink;
        CleanupOptions opt;
        opt.chunk_records = chunk;
        opt.abort_on_violation = false;
        const usize k = budget == 1 ? 0 : 1;
        outcomes[k] = streamed_cleanup<u64>(*ctx, src, sink, opt);
        outs[k] = std::move(sink.out);
      }
      EXPECT_EQ(outs[0], outs[1]) << "source chunk " << source_chunk;
      EXPECT_EQ(outcomes[0].ok, outcomes[1].ok);
      EXPECT_EQ(outcomes[0].emitted, outcomes[1].emitted);
      EXPECT_EQ(outcomes[0].windows, outcomes[1].windows);
      EXPECT_EQ(outcomes[0].ok, input == &displaced);
    }
  }
}

// ---------------------------------------------------- shuffle chunk source

TEST(ShuffleChunkSource, DeliversAllRecordsOnce) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(7);
  auto data = make_keys(1024, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions opt;
  opt.run_len = 256;
  auto runs = form_runs_flat<u64>(*ctx, in, opt);
  ShuffleChunkSource<u64> src(
      *ctx, std::span<const StripedRun<u64>>(runs.data(), runs.size()), 256);
  std::vector<u64> got;
  std::vector<u64> buf(256);
  while (!src.exhausted()) {
    const usize n = src.next_chunk(buf.data(), buf.size());
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got.size(), data.size());
  std::sort(got.begin(), got.end());
  std::sort(data.begin(), data.end());
  EXPECT_EQ(got, data);
}

TEST(ShuffleChunkSource, HandlesRaggedTails) {
  auto ctx = make_memory_context(2, 8 * sizeof(u64));
  std::vector<u64> a(20, 1), b(20, 2);  // 2.5 blocks each
  auto ra = write_input_run<u64>(*ctx, std::span<const u64>(a), 0);
  auto rb = write_input_run<u64>(*ctx, std::span<const u64>(b), 1);
  std::vector<StripedRun<u64>> runs;
  runs.push_back(std::move(ra));
  runs.push_back(std::move(rb));
  ShuffleChunkSource<u64> src(
      *ctx, std::span<const StripedRun<u64>>(runs.data(), 2), 16);
  std::vector<u64> got;
  std::vector<u64> buf(16);
  while (!src.exhausted()) {
    const usize n = src.next_chunk(buf.data(), 16);
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got.size(), 40u);
  EXPECT_EQ(std::count(got.begin(), got.end(), 1u), 20);
  EXPECT_EQ(std::count(got.begin(), got.end(), 2u), 20);
}

// ------------------------------------------------------------- unshuffle

TEST(UnshuffleSink, SplitsStrideM) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<StripedRun<u64>> parts;
  for (u32 j = 0; j < 4; ++j) parts.emplace_back(*ctx, j);
  {
    UnshuffleSink<u64> sink(*ctx, std::span<StripedRun<u64>>(parts.data(), 4));
    std::vector<u64> stream(256);
    std::iota(stream.begin(), stream.end(), u64{0});
    sink.push(std::span<const u64>(stream.data(), 100));
    sink.push(std::span<const u64>(stream.data() + 100, 156));
    sink.close();
  }
  for (u32 j = 0; j < 4; ++j) {
    auto v = parts[j].read_all();
    ASSERT_EQ(v.size(), 64u);
    for (usize t = 0; t < v.size(); ++t) EXPECT_EQ(v[t], t * 4 + j);
  }
}

// -------------------------------------------------------------- lmm merge

class LmmMergeParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LmmMergeParam, MergesSortedRuns) {
  const int l = std::get<0>(GetParam());
  const int run_blocks = std::get<1>(GetParam());
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(static_cast<u64>(l * 100 + run_blocks));
  const u64 run_len = static_cast<u64>(run_blocks) * g.rpb;
  std::vector<StripedRun<u64>> runs;
  std::vector<u64> all;
  for (int i = 0; i < l; ++i) {
    auto v = make_keys(static_cast<usize>(run_len), Dist::kUniform, rng);
    std::sort(v.begin(), v.end());
    runs.push_back(
        write_input_run<u64>(*ctx, std::span<const u64>(v), static_cast<u32>(i)));
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  StripedRun<u64> out(*ctx, 0);
  RunSink<u64> sink(out);
  LmmOptions opt;
  opt.mem_records = 256;
  auto oc = lmm_merge<u64>(
      *ctx, std::span<const StripedRun<u64>>(runs.data(), runs.size()), sink,
      opt);
  EXPECT_TRUE(oc.ok);
  EXPECT_EQ(out.read_all(), all);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LmmMergeParam,
    ::testing::Values(std::make_tuple(2, 16), std::make_tuple(4, 16),
                      std::make_tuple(8, 16), std::make_tuple(16, 16),
                      std::make_tuple(2, 8), std::make_tuple(4, 4),
                      std::make_tuple(3, 12), std::make_tuple(1, 16)));

TEST(LmmMerge, ThreePassesAtFullShape) {
  // l = B = 16 runs of length M: the Lemma 4.1 shape; pass count must be 3
  // excluding the run formation (which the full sorter counts).
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(11);
  std::vector<StripedRun<u64>> runs;
  const u64 n = 16 * 256;
  for (int i = 0; i < 16; ++i) {
    auto v = make_keys(256, Dist::kUniform, rng);
    std::sort(v.begin(), v.end());
    runs.push_back(
        write_input_run<u64>(*ctx, std::span<const u64>(v), static_cast<u32>(i)));
  }
  ctx->io().reset_stats();
  StripedRun<u64> out(*ctx, 0);
  RunSink<u64> sink(out);
  LmmOptions opt;
  opt.mem_records = 256;
  auto oc = lmm_merge<u64>(
      *ctx, std::span<const StripedRun<u64>>(runs.data(), runs.size()), sink,
      opt);
  EXPECT_TRUE(oc.ok);
  const double passes = ctx->stats().passes(n, g.rpb, g.disks);
  EXPECT_NEAR(passes, 3.0, 0.1);
}

TEST(LmmMerge, RejectsUnequalRuns) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> a(256, 1), b(128, 2);
  std::vector<StripedRun<u64>> runs;
  runs.push_back(write_input_run<u64>(*ctx, std::span<const u64>(a)));
  runs.push_back(write_input_run<u64>(*ctx, std::span<const u64>(b)));
  StripedRun<u64> out(*ctx, 0);
  RunSink<u64> sink(out);
  LmmOptions opt;
  opt.mem_records = 256;
  EXPECT_THROW(lmm_merge<u64>(*ctx,
                              std::span<const StripedRun<u64>>(runs.data(), 2),
                              sink, opt),
               Error);
}

// --------------------------------------------------------------- multiway

class MultiwayParam : public ::testing::TestWithParam<usize> {};

TEST_P(MultiwayParam, MergePassCorrectAtAnyLookahead) {
  const usize lookahead = GetParam();
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(lookahead + 77);
  std::vector<StripedRun<u64>> runs;
  std::vector<u64> all;
  for (int i = 0; i < 6; ++i) {
    auto v = make_keys(320, Dist::kUniform, rng);
    std::sort(v.begin(), v.end());
    runs.push_back(
        write_input_run<u64>(*ctx, std::span<const u64>(v), static_cast<u32>(i)));
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  StripedRun<u64> out(*ctx, 0);
  RunSink<u64> sink(out);
  MergePassOptions opt;
  opt.mem_records = 1024;  // room for the larger lookahead pools
  opt.lookahead = lookahead;
  multiway_merge_pass<u64>(
      *ctx, std::span<const StripedRun<u64>>(runs.data(), runs.size()), sink,
      opt);
  EXPECT_EQ(out.read_all(), all);
}

INSTANTIATE_TEST_SUITE_P(Lookaheads, MultiwayParam,
                         ::testing::Values(0, 1, 2, 4));

TEST(Multiway, NaiveLookaheadHasLowUtilization) {
  const auto g = Geometry::square(1024);  // D = 8
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(5);
  std::vector<StripedRun<u64>> runs;
  for (int i = 0; i < 8; ++i) {
    auto v = make_keys(2048, Dist::kUniform, rng);
    std::sort(v.begin(), v.end());
    runs.push_back(
        write_input_run<u64>(*ctx, std::span<const u64>(v), static_cast<u32>(i)));
  }
  ctx->io().reset_stats();
  StripedRun<u64> out(*ctx, 0);
  RunSink<u64> sink(out);
  MergePassOptions opt;
  opt.mem_records = 1024;
  opt.lookahead = 0;
  multiway_merge_pass<u64>(
      *ctx, std::span<const StripedRun<u64>>(runs.data(), runs.size()), sink,
      opt);
  // Demand paging: most reads are synchronous single-block fetches.
  const auto& s = ctx->stats();
  const double read_util =
      static_cast<double>(s.blocks_read) / static_cast<double>(s.read_ops);
  EXPECT_LT(read_util, 2.5) << "naive merge should not parallelize reads";
}

// ------------------------------------------------------------ pass layout

// spread_start_disk is the one layout rule for runs a later pass reads
// together. Block t of run i sits on disk (start_i + t) mod D, so a pass
// that reads c consecutive blocks of each of k runs loads every disk with
// the runs whose c-block window covers it. The fullest disk must get
// exactly ceil(k * c / D) blocks, the minimum, for every k and c.
TEST(PassLayout, SpreadStartsFillTheFullestDiskMinimally) {
  for (u32 d : {4u, 6u, 15u, 32u, 128u}) {
    for (u64 k = 1; k <= 300; ++k) {
      // Runs whose window starts on each disk.
      std::vector<u64> starts(d, 0);
      for (u64 i = 0; i < k; ++i) ++starts[spread_start_disk(i, k, d)];
      for (u64 c = 1; c <= 2 * u64{d}; ++c) {
        // Load of disk x: every run wraps c / D times, plus the runs whose
        // start lies in the c mod D disks ending at x (cyclically).
        const u64 rem = c % d;
        u64 window = 0;
        for (u64 x = 0; x < rem; ++x) window += starts[d - 1 - x];
        u64 fullest = 0;
        for (u32 x = 0; x < d; ++x) {
          if (rem > 0) {
            window += starts[x];
            window -= starts[(x + d - rem) % d];
          }
          fullest = std::max(fullest, k * (c / d) + window);
        }
        ASSERT_EQ(fullest, ceil_div(k * c, d))
            << "D=" << d << " k=" << k << " c=" << c;
      }
    }
  }
}

struct PhaseOps {
  u64 formation_reads, formation_writes, cleanup_reads, cleanup_writes;
  friend bool operator==(const PhaseOps&, const PhaseOps&) = default;
};

std::ostream& operator<<(std::ostream& os, const PhaseOps& p) {
  return os << "{formation " << p.formation_reads << "/" << p.formation_writes
            << ", cleanup " << p.cleanup_reads << "/" << p.cleanup_writes
            << "}";
}

// ExpectedTwoPass's two passes, phase by phase, on l runs of M records at
// the paper's geometry B = sqrt(M), D = sqrt(M)/4 (M = 2^14: B = 128,
// D = 32, so one pass is 4 * l ops).
PhaseOps expected_two_pass_phase_ops(u64 l) {
  const auto g = Geometry::square(u64{1} << 14);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(7);
  auto data = make_keys(static_cast<usize>(l * g.mem), Dist::kPermutation,
                        rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions fopt;
  fopt.run_len = g.mem;
  auto runs = form_runs_flat<u64>(*ctx, in, fopt);
  const IoStats formed = ctx->stats();
  StripedRun<u64> out(*ctx, 0);
  RunSink<u64> sink(out);
  const u64 chunk = round_down(g.mem, l * g.rpb);
  ShuffleChunkSource<u64> source(*ctx, std::span<const StripedRun<u64>>(runs),
                                 chunk);
  CleanupOptions copt;
  copt.chunk_records = chunk;
  EXPECT_TRUE(streamed_cleanup<u64>(*ctx, source, sink, copt).ok);
  const IoStats cleaned = ctx->stats();
  test::expect_sorted_output<u64>(out, data);
  return {formed.read_ops, formed.write_ops,
          cleaned.read_ops - formed.read_ops,
          cleaned.write_ops - formed.write_ops};
}

// paper_square's shape: 16 runs, and a cleanup chunk of 8 blocks per run
// = 128 blocks, 4 per disk. A stride layout (run i on disk (17 i) mod 32,
// flat_run_start_stride's) puts 5 on some disks: cleanup reads of 80.
TEST(PassLayout, PaperSquareShapeOpsPerPhase) {
  EXPECT_EQ(expected_two_pass_phase_ops(16), (PhaseOps{64, 64, 64, 64}));
}

// e13's default N at this M: 22 runs, a chunk of 5 blocks per run = 110
// blocks, ceil(110 / 32) = 4 ops for each of 25 chunks plus 3 for the
// last. The stride layout reads 128, and writing each 110-block window
// as its own batch costs 102; whole-stripe writes take the minimum 88.
TEST(PassLayout, E13ShapeOpsPerPhase) {
  EXPECT_EQ(expected_two_pass_phase_ops(22), (PhaseOps{88, 88, 103, 88}));
}

// The mesh front door on sorted input takes the LMM fallback over sqrt(M)
// = 128 runs of 8 blocks, which pass A loads 16 runs at a time. Evenly
// spread starts put consecutive runs on neighbouring disks, so pass A
// loads runs r, r+8, r+16, ... Pass A's ops are lmm_merge's minus passes
// B and C, which cost the same over the parts form_sorted_runs writes
// directly (part (i, j) on disk (i + j) mod D either way).
TEST(PassLayout, MeshDoorFallbackOps) {
  const auto g = Geometry::square(u64{1} << 14);
  const u64 l = isqrt(g.mem);
  const u64 run_len = 8 * g.rpb;
  std::vector<u64> data(static_cast<usize>(l * run_len));
  std::iota(data.begin(), data.end(), u64{0});
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    ExpectedTwoPassOptions opt;
    opt.mem_records = g.mem;
    auto res = expected_two_pass_mesh_sort<u64>(*ctx, in, opt);
    EXPECT_TRUE(res.report.fallback_taken);
    EXPECT_EQ(res.output.read_all(), data);
    // With stride starts, consecutive loads and Q_j on disk j mod D:
    // 276 / 260.
    EXPECT_EQ(res.report.io.read_ops, 236u);
    EXPECT_EQ(res.report.io.write_ops, 228u);
  }
  RunFormationOptions fopt;
  fopt.run_len = run_len;
  const u64 m = detail::choose_lmm_m(l, run_len, g.mem, g.rpb);
  LmmOptions lopt;
  lopt.mem_records = g.mem;
  lopt.m = m;
  IoStats abc, bc;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    auto runs = form_runs_flat<u64>(*ctx, in, fopt);
    ctx->io().reset_stats();
    StripedRun<u64> out(*ctx, 0);
    RunSink<u64> sink(out);
    EXPECT_TRUE(lmm_merge<u64>(*ctx, std::span<const StripedRun<u64>>(runs),
                               sink, lopt)
                    .ok);
    abc = ctx->stats();
    EXPECT_EQ(out.read_all(), data);
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    fopt.unshuffle_parts = static_cast<u32>(m);
    auto parts = form_sorted_runs<u64>(*ctx, in, fopt);
    ctx->io().reset_stats();
    StripedRun<u64> out(*ctx, 0);
    RunSink<u64> sink(out);
    EXPECT_TRUE(lmm_merge_from_parts<u64>(*ctx, parts, sink, lopt).ok);
    bc = ctx->stats();
  }
  // One pass over l * 8 blocks is 32 ops. With Q_j on disk j mod D,
  // passes B and C read 96 and write 64; with stride starts and
  // consecutive runs per load, pass A reads 40 and writes 64.
  EXPECT_EQ(bc.read_ops, 64u);
  EXPECT_EQ(bc.write_ops, 64u);
  EXPECT_EQ(abc.read_ops - bc.read_ops, 32u);
  EXPECT_EQ(abc.write_ops - bc.write_ops, 32u);
}

}  // namespace
}  // namespace pdm
