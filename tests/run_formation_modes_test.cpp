// Property harness for order-adaptive run formation (ISSUE 10): the
// replacement-selection and up/down modes, the presortedness probe, the
// planner integration, and the kFixed determinism bar.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/adaptive.h"
#include "pdm/memory_backend.h"
#include "service/sort_service.h"
#include "test_support.h"

namespace pdm {
namespace {

using test::Geometry;

constexpr Dist kOrderWorkloads[] = {
    Dist::kUniform,    Dist::kSorted,       Dist::kReverse,
    Dist::kClustered,  Dist::kNearSortedDisplaced,
    Dist::kFewDistinct};

std::vector<u64> run_lengths(const std::vector<StripedRun<u64>>& runs) {
  std::vector<u64> lens;
  lens.reserve(runs.size());
  for (const auto& r : runs) lens.push_back(r.size());
  return lens;
}

struct ModeCase {
  RunFormationMode mode;
  Dist dist;
};

class AdaptiveRunFormation : public ::testing::TestWithParam<ModeCase> {};

// Core properties of the adaptive modes on every workload: each emitted
// run is sorted, together they cover the input, run lengths respect the
// replacement-selection lower bound, and the whole pass is deterministic
// per seed (byte-identical runs on a re-run).
TEST_P(AdaptiveRunFormation, RunsSortedCoverInputWithLengthBounds) {
  const auto [mode, dist] = GetParam();
  const auto g = Geometry::square(256);
  const usize n = 2048;  // 8 memory loads
  Rng rng(99);
  const auto data = make_keys(n, dist, rng);

  auto form = [&](PdmContext& ctx, const StripedRun<u64>& in) {
    RunFormationOptions opt;
    opt.run_len = g.mem;
    opt.mode = mode;
    return form_runs_flat<u64>(ctx, in, opt);
  };

  auto ctx = test::make_ctx<u64>(g);
  auto in = test::stage_input<u64>(*ctx, data);
  auto runs = form(*ctx, in);
  ASSERT_FALSE(runs.empty());

  std::vector<u64> all;
  for (auto& r : runs) {
    auto v = r.read_all();
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()))
        << dist_name(dist) << "/" << run_formation_mode_name(mode);
    all.insert(all.end(), v.begin(), v.end());
  }
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, expect);

  // Length bounds. Replacement selection: when a run opens, all M heap
  // slots carry its tag, so every run but the last holds >= M records.
  // Up/down: a descending run's sub-block tail is split off as a mini-run
  // (< B records), leaving the main part >= M - B + 1.
  const auto lens = run_lengths(runs);
  for (usize i = 0; i + 1 < lens.size(); ++i) {
    if (mode == RunFormationMode::kReplacementSelection) {
      EXPECT_GE(lens[i], g.mem) << "run " << i;
    } else {
      EXPECT_TRUE(lens[i] >= g.mem - g.rpb + 1 || lens[i] < g.rpb)
          << "run " << i << " length " << lens[i];
    }
  }
  if (dist == Dist::kSorted) {
    EXPECT_EQ(runs.size(), 1u);
  }
  if (dist == Dist::kNearSortedDisplaced) {
    // Window n/32 = 64 <= M/2: the heap absorbs all displacement.
    EXPECT_EQ(runs.size(), 1u);
  }
  if (dist == Dist::kReverse && mode == RunFormationMode::kUpDown) {
    // Run 0 (ascending) drains the initial heap; run 1 (descending)
    // swallows the entire remainder, plus at most one mini-run.
    EXPECT_LE(runs.size(), 3u);
  }

  // Per-seed determinism: a second pass over identical input in a fresh
  // context yields the same run boundaries and records.
  auto ctx2 = test::make_ctx<u64>(g);
  auto in2 = test::stage_input<u64>(*ctx2, data);
  auto runs2 = form(*ctx2, in2);
  ASSERT_EQ(run_lengths(runs2), lens);
  for (usize i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs2[i].read_all(), runs[i].read_all()) << "run " << i;
  }
}

// End to end: the order-adaptive sorter's output is byte-equal to
// std::sort on every workload, in both modes.
TEST_P(AdaptiveRunFormation, SortMatchesStdSort) {
  const auto [mode, dist] = GetParam();
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(7);
  auto data = make_keys(2048, dist, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  MultiwaySortOptions o;
  o.mem_records = g.mem;
  o.mode = mode;
  auto res = multiway_merge_sort<u64>(*ctx, in, o);
  test::expect_sorted_output<u64>(res.output, data);
  EXPECT_EQ(res.report.algorithm, "OrderAdaptive");
  if (dist == Dist::kSorted || dist == Dist::kNearSortedDisplaced) {
    test::expect_passes_near(res.report, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesTimesWorkloads, AdaptiveRunFormation,
    [] {
      std::vector<ModeCase> cases;
      for (auto mode : {RunFormationMode::kReplacementSelection,
                        RunFormationMode::kUpDown}) {
        for (auto dist : kOrderWorkloads) cases.push_back({mode, dist});
      }
      return ::testing::ValuesIn(cases);
    }(),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      std::string name = run_formation_mode_name(info.param.mode);
      name += "_";
      name += dist_name(info.param.dist);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The determinism bar: a default-constructed RunFormationOptions is
// kFixed, and two identical kFixed passes produce identical records, op
// and block counts, and the same I/O schedule hash.
TEST(AdaptiveRunFormationBar, FixedDefaultIsDeterministic) {
  EXPECT_EQ(RunFormationOptions{}.mode, RunFormationMode::kFixed);
  const auto g = Geometry::square(256);
  Rng rng(5);
  const auto data = make_keys(2048, Dist::kUniform, rng);
  IoStats first;
  std::vector<std::vector<u64>> first_runs;
  for (int rep = 0; rep < 2; ++rep) {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    RunFormationOptions opt;
    opt.run_len = g.mem;
    if (rep == 1) opt.mode = RunFormationMode::kFixed;  // explicit == default
    auto runs = form_runs_flat<u64>(*ctx, in, opt);
    std::vector<std::vector<u64>> rec;
    for (auto& r : runs) rec.push_back(r.read_all());
    // read_all above counts reads; compare stats taken right after the pass.
    if (rep == 0) {
      first = ctx->stats();
      first_runs = std::move(rec);
    } else {
      EXPECT_EQ(rec, first_runs);
      EXPECT_EQ(ctx->stats().schedule_hash, first.schedule_hash);
      EXPECT_EQ(ctx->stats().total_ops(), first.total_ops());
      EXPECT_EQ(ctx->stats().total_blocks(), first.total_blocks());
    }
  }
}

// ------------------------------------------------- selection order, exactly

// Differential check of replacement_select_runs against a reference
// tournament: an ordered set of (tag, key, slot) entries with the same
// eligibility rule. Records compare on .first only and carry their input
// position in .second, so the order in which equal keys leave the
// tournament shows in the output; run boundaries, records and every tie
// must match the reference.
using PosRec = KeyPair<u64, u64>;

struct FirstLess {
  bool operator()(const PosRec& a, const PosRec& b) const {
    return a.first < b.first;
  }
};

/// The runs replacement selection stores for `in`, as input positions.
/// Ties leave in slot order; a descending run is stored with its whole
/// blocks reversed, and its sub-block tail reversed as a run of its own.
std::vector<std::vector<u64>> reference_runs(const std::vector<PosRec>& in,
                                             usize heap, usize rpb,
                                             bool updown) {
  struct Entry {
    u64 tag;
    PosRec rec;
    usize slot;
  };
  auto descends = [updown](u64 tag) { return updown && (tag & 1) != 0; };
  auto less = [&](const Entry& a, const Entry& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.rec.first != b.rec.first) {
      return descends(a.tag) ? a.rec.first > b.rec.first
                             : a.rec.first < b.rec.first;
    }
    return a.slot < b.slot;
  };
  std::set<Entry, decltype(less)> tournament(less);
  usize next = 0;
  for (; next < std::min(heap, in.size()); ++next) {
    tournament.insert({0, in[next], next});
  }
  std::vector<std::pair<u64, std::vector<u64>>> emitted;  // (tag, positions)
  while (!tournament.empty()) {
    const Entry top = *tournament.begin();
    tournament.erase(tournament.begin());
    if (emitted.empty() || emitted.back().first != top.tag) {
      emitted.push_back({top.tag, {}});
    }
    emitted.back().second.push_back(top.rec.second);
    if (next < in.size()) {
      const PosRec x = in[next++];
      const bool eligible = descends(top.tag) ? x.first <= top.rec.first
                                              : x.first >= top.rec.first;
      tournament.insert({eligible ? top.tag : top.tag + 1, x, top.slot});
    }
  }
  std::vector<std::vector<u64>> runs;
  for (auto& [tag, seq] : emitted) {
    if (!descends(tag)) {
      runs.push_back(std::move(seq));
      continue;
    }
    const usize tail = seq.size() % rpb;
    if (seq.size() > tail) runs.emplace_back(seq.rbegin() + tail, seq.rend());
    if (tail > 0) runs.emplace_back(seq.rbegin(), seq.rbegin() + tail);
  }
  return runs;
}

struct SelectionCase {
  bool updown;
  Dist dist;
};

class ReplacementSelectionOrder
    : public ::testing::TestWithParam<SelectionCase> {};

TEST_P(ReplacementSelectionOrder, MatchesReferenceTournament) {
  const auto [updown, dist] = GetParam();
  constexpr usize kRpb = 8;
  // A power-of-two heap, a heap that leaves padding leaves in the tree,
  // and an input smaller than the heap; every input ends mid-block.
  for (const auto& [heap, n] : {std::pair<usize, usize>{64, 1000},
                                {40, 777},
                                {64, 50}}) {
    Rng rng(heap * 1000 + n);
    const auto keys = make_keys(n, dist, rng);
    std::vector<PosRec> data(n);
    for (usize i = 0; i < n; ++i) data[i] = PosRec{keys[i], i};
    auto ctx = make_memory_context(4, kRpb * sizeof(PosRec), 1);
    auto in = test::stage_input<PosRec>(*ctx, data);
    const auto runs = replacement_select_runs<PosRec>(
        *ctx, in, heap, 0, 0, updown, flat_run_start_stride(ctx->D()),
        FirstLess{});
    const auto expect = reference_runs(data, heap, kRpb, updown);
    ASSERT_EQ(runs.size(), expect.size()) << "heap " << heap << " n " << n;
    for (usize r = 0; r < runs.size(); ++r) {
      std::vector<u64> got;
      for (const auto& rec : runs[r].read_all()) got.push_back(rec.second);
      ASSERT_EQ(got, expect[r]) << "heap " << heap << " n " << n << " run "
                                << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesTimesInputs, ReplacementSelectionOrder,
    [] {
      std::vector<SelectionCase> cases;
      for (bool updown : {false, true}) {
        for (auto dist : {Dist::kUniform, Dist::kPermutation, Dist::kReverse,
                          Dist::kFewDistinct, Dist::kAllEqual,
                          Dist::kNearSortedDisplaced}) {
          cases.push_back({updown, dist});
        }
      }
      return ::testing::ValuesIn(cases);
    }(),
    [](const ::testing::TestParamInfo<SelectionCase>& info) {
      std::string name = info.param.updown ? "updown_" : "replacement_";
      name += dist_name(info.param.dist);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ------------------------------------------ sorted batches against the tree

// Under std::less, radix-keyed records take run 0 in sorted batches until
// a batch fails its check; any other comparator runs the loser tree. A
// lambda with std::less's order therefore replays the same selection on
// the tree, and the two must store the same runs through the same I/O.
// M = 4096 makes each batch of M/2 records large enough for the radix
// kernel.
constexpr usize kBatchMem = 4096;
constexpr usize kBatchRpb = 64;

/// Sorted keys 0..n-1, shuffled within consecutive windows of w.
std::vector<u64> windowed_keys(usize n, usize w, Rng& rng) {
  std::vector<u64> v(n);
  std::iota(v.begin(), v.end(), u64{0});
  for (usize lo = 0; lo < n; lo += w) {
    const usize hi = std::min(n, lo + w);
    for (usize i = hi - 1; i > lo; --i) {
      std::swap(v[i], v[lo + static_cast<usize>(rng.below(i - lo + 1))]);
    }
  }
  return v;
}

struct BatchInput {
  const char* name;
  std::vector<u64> (*make)(usize n, Rng& rng);
  usize runs;  // runs replacement selection makes at n >= 3M; 0: any
};

const BatchInput kBatchInputs[] = {
    // Windows of at most M/2 line up with the batches: every check passes.
    {"window_quarter",
     [](usize n, Rng& r) { return windowed_keys(n, kBatchMem / 4, r); },
     1},
    {"window_half",
     [](usize n, Rng& r) { return windowed_keys(n, kBatchMem / 2, r); },
     1},
    // Windows that straddle batches: checks pass or fail mid-stream.
    {"window_half_plus_3",
     [](usize n, Rng& r) { return windowed_keys(n, kBatchMem / 2 + 3, r); },
     0},
    {"window_three_quarters",
     [](usize n, Rng& r) { return windowed_keys(n, 3 * kBatchMem / 4, r); },
     0},
    // Sorted, with the record at p moved 2M places later. Its batch is the
    // first to fail the check (at n = 4M: the fourth batch, and the record
    // is not the batch's first); it lands alone in run 1.
    {"moved_2m",
     [](usize n, Rng&) {
       std::vector<u64> v(n);
       std::iota(v.begin(), v.end(), u64{0});
       const usize p = n / 8 + 5;
       const usize to = std::min(n - 1, p + 2 * kBatchMem);
       std::rotate(v.begin() + static_cast<std::ptrdiff_t>(p),
                   v.begin() + static_cast<std::ptrdiff_t>(p + 1),
                   v.begin() + static_cast<std::ptrdiff_t>(to + 1));
       return v;
     },
     2},
    // Sorted, with every 1021st record moved 3M/4 places later: no record
    // is late, but those that land in a batch's first half leave with it,
    // ahead of h[c-1], so the batch must be merged into what it emits.
    {"delayed_3m4",
     [](usize n, Rng&) {
       std::vector<u64> v(n);
       std::iota(v.begin(), v.end(), u64{0});
       for (usize p = 11; p + 3 * kBatchMem / 4 < n; p += 1021) {
         std::rotate(v.begin() + static_cast<std::ptrdiff_t>(p),
                     v.begin() + static_cast<std::ptrdiff_t>(p + 1),
                     v.begin() + static_cast<std::ptrdiff_t>(
                                     p + 3 * kBatchMem / 4 + 1));
       }
       return v;
     },
     1},
    // Fails the first check.
    {"permutation",
     [](usize n, Rng& r) { return make_keys(n, Dist::kPermutation, r); },
     0},
    {"sorted", [](usize n, Rng& r) { return make_keys(n, Dist::kSorted, r); },
     1},
    {"reverse",
     [](usize n, Rng& r) { return make_keys(n, Dist::kReverse, r); }, 0},
    {"few_distinct",
     [](usize n, Rng& r) { return make_keys(n, Dist::kFewDistinct, r); },
     0},
    {"all_equal",
     [](usize n, Rng& r) { return make_keys(n, Dist::kAllEqual, r); }, 1},
};

template <Record R>
struct SelectionOutcome {
  std::vector<std::vector<R>> runs;
  IoStats io;
};

template <Record R, class Cmp>
SelectionOutcome<R> select_runs(const std::vector<R>& data, bool updown,
                                usize depth, usize budget, Cmp cmp) {
  auto ctx = make_memory_context(4, kBatchRpb * sizeof(R), 1);
  auto in = test::stage_input<R>(*ctx, data);
  if (depth >= 2) ctx->set_async_depth(depth);
  ctx->set_cpu_budget(budget);
  auto runs = replacement_select_runs<R>(*ctx, in, kBatchMem, 0, 0, updown,
                                         flat_run_start_stride(ctx->D()), cmp);
  ctx->aio().drain();
  SelectionOutcome<R> got{{}, ctx->stats()};  // before read_all counts reads
  for (const auto& r : runs) got.runs.push_back(r.read_all());
  return got;
}

/// Runs every input, size, mode, async depth and kernel budget through
/// both paths; `to_record` maps a u64 key to R, preserving its order.
template <Record R, class ToRecord>
void expect_batches_match_tree(ToRecord to_record) {
  static_assert(kRadixSortable<R, std::less<R>>);
  auto tree_less = [](const R& a, const R& b) { return a < b; };
  // Below the heap, equal to it, not a multiple of B, a multiple of M.
  for (const usize n : {kBatchMem - 3 * kBatchRpb - 11, kBatchMem,
                        3 * kBatchMem + 37, 4 * kBatchMem}) {
    for (const BatchInput& input : kBatchInputs) {
      Rng rng(n);
      const auto keys = input.make(n, rng);
      std::vector<R> data(n);
      std::transform(keys.begin(), keys.end(), data.begin(), to_record);
      for (const bool updown : {false, true}) {
        for (const auto& [depth, budget] :
             {std::pair<usize, usize>{0, 1}, {0, 4}, {4, 1}, {4, 4}}) {
          SCOPED_TRACE(::testing::Message()
                       << input.name << " n " << n << " updown " << updown
                       << " depth " << depth << " budget " << budget);
          const auto batched =
              select_runs<R>(data, updown, depth, budget, std::less<R>{});
          const auto tree =
              select_runs<R>(data, updown, depth, budget, tree_less);
          ASSERT_EQ(batched.runs.size(), tree.runs.size());
          for (usize r = 0; r < tree.runs.size(); ++r) {
            ASSERT_EQ(batched.runs[r], tree.runs[r]) << "run " << r;
          }
          EXPECT_EQ(batched.io.read_ops, tree.io.read_ops);
          EXPECT_EQ(batched.io.write_ops, tree.io.write_ops);
          EXPECT_EQ(batched.io.blocks_read, tree.io.blocks_read);
          EXPECT_EQ(batched.io.blocks_written, tree.io.blocks_written);
          EXPECT_EQ(batched.io.read_calls, tree.io.read_calls);
          EXPECT_EQ(batched.io.write_calls, tree.io.write_calls);
          EXPECT_EQ(batched.io.schedule_hash, tree.io.schedule_hash);
          if (n >= 3 * kBatchMem && input.runs != 0) {
            EXPECT_EQ(tree.runs.size(), input.runs);
          }
        }
      }
    }
  }
}

TEST(SortedBatches, MatchTreeOnU64) {
  expect_batches_match_tree<u64>([](u64 k) { return k; });
}

TEST(SortedBatches, MatchTreeOnNegativeI64) {
  expect_batches_match_tree<i64>([](u64 k) {
    return static_cast<i64>(k) - static_cast<i64>(2 * kBatchMem);
  });
}

TEST(SortedBatches, MatchTreeOnKeyPair) {
  using Pair = KeyPair<u32, u32>;
  expect_batches_match_tree<Pair>([](u64 k) {
    return Pair{static_cast<u32>(k >> 3), static_cast<u32>(k & 7)};
  });
}

// ------------------------------------------------------ presortedness probe

TEST(PresortednessProbe, InMemoryEstimates) {
  const u64 mem = 256;
  const usize n = 2048;  // 8 chunks
  Rng rng(11);
  const auto sorted = make_keys(n, Dist::kSorted, rng);
  const auto displaced = make_keys(n, Dist::kNearSortedDisplaced, rng);
  const auto random = make_keys(n, Dist::kUniform, rng);
  EXPECT_EQ(probe_presortedness<u64>(std::span<const u64>(sorted), mem)
                .est_runs,
            1u);
  EXPECT_EQ(probe_presortedness<u64>(std::span<const u64>(displaced), mem)
                .est_runs,
            1u);
  // Random: lag-M pairs invert with probability 1/2, so est ~ N/2M = 4.
  const auto p = probe_presortedness<u64>(std::span<const u64>(random), mem);
  EXPECT_GE(p.est_runs, 2u);
  EXPECT_LE(p.est_runs, 6u);
  // Inputs that fit the heap are one run by definition.
  EXPECT_EQ(probe_presortedness<u64>(std::span<const u64>(random), n * 2)
                .est_runs,
            1u);
}

TEST(PresortednessProbe, OnDiskMatchesInMemoryShape) {
  const auto g = Geometry::square(256);
  Rng rng(13);
  for (Dist d : {Dist::kSorted, Dist::kNearSortedDisplaced, Dist::kUniform}) {
    auto ctx = test::make_ctx<u64>(g);
    const auto data = make_keys(2048, d, rng);
    auto in = test::stage_input<u64>(*ctx, data);
    const auto p = probe_presortedness<u64>(*ctx, in, g.mem);
    if (d == Dist::kUniform) {
      EXPECT_GE(p.est_runs, 2u) << dist_name(d);
    } else {
      EXPECT_EQ(p.est_runs, 1u) << dist_name(d);
    }
    // The probe reads at most M records.
    EXPECT_LE(ctx->stats().blocks_read, g.mem / g.rpb);
  }
}

// ---------------------------------------------------------------- planning

TEST(OrderAdaptivePlanning, NearSortedPlansStrictlyFewerPasses) {
  const u64 mem = 1024, rpb = 32;
  const u64 n = 8 * mem;
  const auto legacy = choose_plan(n, mem, rpb, 1.0);
  const auto probed = choose_plan(n, mem, rpb, 1.0, /*est_runs=*/1);
  EXPECT_EQ(probed.algo, Algo::kOrderAdaptive);
  EXPECT_LT(probed.expected_passes, legacy.expected_passes);
  EXPECT_DOUBLE_EQ(probed.expected_passes, 1.0);
}

TEST(OrderAdaptivePlanning, RandomEstimateTiesKeepLegacyPlan) {
  // Shape where the legacy plan is the two-pass algorithm (N = 8M is
  // within cap_expected_two_pass at M = 4096), so a random probe ties it.
  const u64 mem = 4096, rpb = 64;
  const u64 n = 8 * mem;
  const auto legacy = choose_plan(n, mem, rpb, 1.0);
  ASSERT_EQ(legacy.algo, Algo::kExpectedTwoPass);
  // A random input probes to ~N/2M runs; the adaptive pass count then ties
  // the legacy plan and the tie must keep the legacy choice.
  const auto probed = choose_plan(n, mem, rpb, 1.0, /*est_runs=*/n / (2 * mem));
  EXPECT_EQ(probed.algo, legacy.algo);
  // And an unprobed call (est_runs = 0) never considers the adaptive plan.
  const auto unprobed = choose_plan(n, mem, rpb, 1.0);
  EXPECT_EQ(unprobed.algo, legacy.algo);
}

TEST(OrderAdaptivePlanning, PdmSortProbePath) {
  const auto g = Geometry::square(1024);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(23);
  auto data = make_keys(static_cast<usize>(8 * g.mem),
                        Dist::kNearSortedDisplaced, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  AdaptiveOptions o;
  o.mem_records = g.mem;
  o.probe = true;
  auto res = pdm_sort<u64>(*ctx, in, o);
  test::expect_sorted_output<u64>(res.output, data);
  EXPECT_EQ(res.report.algorithm, "OrderAdaptive");
  // One formation pass plus the O(M) probe read — still well under the
  // legacy two passes.
  EXPECT_LT(res.report.passes, 1.5);
}

// ------------------------------------------------------------------ service

TEST(OrderAdaptiveService, OptInProbePlansOnePassForNearSorted) {
  ServiceConfig cfg;
  cfg.workers = 2;
  SortService svc(std::make_shared<MemoryDiskBackend>(8, 256), cfg);
  Rng rng(31);
  // M = 4096 (B = 32 on the 256-byte-block backend) keeps N = 8M inside
  // the two-pass capacity, so the legacy plan is 2 passes and a random
  // probe (est ~ N/2M = 4 runs, also 2 passes) ties rather than wins.
  const u64 mem = 4096;
  const usize n = static_cast<usize>(8 * mem);

  std::string near_algo, random_algo, plain_algo;
  double near_passes = 0;
  {
    SortJobSpec spec;
    spec.name = "near-sorted-opt-in";
    spec.mem_records = mem;
    spec.order_adaptive = true;
    auto data = make_keys(n, Dist::kNearSortedDisplaced, rng);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    svc.submit<u64>(std::move(spec), std::move(data), std::less<u64>{},
                    [&, expect = std::move(expect)](const SortResult<u64>& r) {
                      near_algo = r.report.algorithm;
                      near_passes = r.report.passes;
                      EXPECT_EQ(r.output.read_all(), expect);
                    });
  }
  {
    // Random payload under the same opt-in: the probe estimate ties the
    // legacy plan, so the plan (and thus the I/O schedule) is unchanged.
    SortJobSpec spec;
    spec.name = "random-opt-in";
    spec.mem_records = mem;
    spec.order_adaptive = true;
    auto data = make_keys(n, Dist::kUniform, rng);
    svc.submit<u64>(std::move(spec), std::move(data), std::less<u64>{},
                    [&](const SortResult<u64>& r) {
                      random_algo = r.report.algorithm;
                    });
  }
  {
    SortJobSpec spec;
    spec.name = "random-default";
    spec.mem_records = mem;
    auto data = make_keys(n, Dist::kUniform, rng);
    svc.submit<u64>(std::move(spec), std::move(data), std::less<u64>{},
                    [&](const SortResult<u64>& r) {
                      plain_algo = r.report.algorithm;
                    });
  }
  svc.drain();
  EXPECT_EQ(near_algo, "OrderAdaptive");
  EXPECT_NEAR(near_passes, 1.0, 0.25);
  EXPECT_EQ(random_algo, plain_algo);
  EXPECT_NE(random_algo, "OrderAdaptive");
}

}  // namespace
}  // namespace pdm
