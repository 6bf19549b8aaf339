// Distributed sample-sort across shards (Cluster::submit_distributed),
// locked down by a determinism/property harness:
//
//  - splitter quality as a property over input distributions (random /
//    sorted / reverse / duplicate-heavy / adversarial-skew): the largest
//    range stays within (1+eps) * N/P for the configured oversampling,
//    partitions are deterministic per seed, multiset-exact, ordered, and
//    feasibility-rounded so every per-range plan stays within the
//    paper's pass bounds;
//  - end-to-end correctness against a single-shard baseline sort with an
//    exact permutation check (key histogram + sorted-order scan);
//  - the two-level exact-sum IoStats invariant extended across a
//    distributed job's per-range sub-jobs;
//  - elasticity fencing: drain_shard on a shard owning an in-flight
//    range is vetoed (graceful-shrink guard regression), add_shard
//    mid-sort is safe;
//  - a TSan scenario: distributed sort concurrent with small-job
//    traffic, one add_shard mid-sort and one cancel of a distributed
//    job. The whole file must be TSan-clean (CI runs it under
//    -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/adaptive.h"
#include "pdm/backend_factory.h"
#include "test_support.h"
#include "util/generators.h"

namespace pdm {
namespace {

constexpr u64 kMem = 1024;          // per-job M in records
constexpr usize kBlockBytes = 256;  // rpb: u64=32, KV64=16
constexpr u32 kDisksPerShard = 4;

SortJobSpec spec_of(std::string name, u32 target = SortJobSpec::kAnyShard) {
  SortJobSpec s;
  s.name = std::move(name);
  s.mem_records = kMem;
  s.target_shard = target;
  return s;
}

ClusterConfig cluster_cfg(usize shards, usize workers = 2) {
  ClusterConfig cfg;
  cfg.shards = shards;
  cfg.shard.workers = workers;
  cfg.shard.io_depth_total = 4;
  return cfg;
}

/// Occupies one worker of `shard` until the returned future's gate opens
/// (the completion callback blocks on it). Lets tests pin the cluster in
/// a known mid-flight state deterministically.
JobId submit_blocker(Cluster& cluster, u32 shard,
                     std::shared_future<void> gate, int idx) {
  Rng rng(100 + static_cast<u64>(idx));
  return cluster.submit<u64>(
      spec_of("blocker" + std::to_string(idx), shard),
      make_keys(kMem, Dist::kUniform, rng), std::less<u64>{},
      [gate](const SortResult<u64>&) { gate.wait(); });
}

// --- splitter quality properties ---------------------------------------

TEST(DistributedSort, SplitterQualityProperty)
{
  const u32 ranges = 4;
  const u32 oversample = 64;
  const u64 n = 32 * kMem;
  const double eps = 0.5;  // max range <= (1+eps) * n/P, w.h.p.
  const Dist dists[] = {Dist::kUniform,     Dist::kPermutation,
                        Dist::kSorted,      Dist::kReverse,
                        Dist::kFewDistinct, Dist::kZipf,
                        Dist::kAllEqual};
  Rng rng(7);
  for (Dist d : dists) {
    auto data = make_keys(n, d, rng);
    RangePartitionStats st;
    auto parts = partition_ranges<u64>(std::span<const u64>(data), ranges,
                                       oversample, kMem, /*seed=*/11,
                                       std::less<u64>{}, &st);
    ASSERT_EQ(parts.size(), ranges) << dist_name(d);
    // Balance: the sampling bound applies to the raw splitter partition
    // for ANY input (position tie-breaking makes all records distinct).
    u64 raw_max = 0;
    u64 total = 0;
    for (u64 s : st.raw_sizes) {
      raw_max = std::max(raw_max, s);
      total += s;
    }
    EXPECT_EQ(total, n) << dist_name(d);
    EXPECT_LE(static_cast<double>(raw_max),
              (1.0 + eps) * static_cast<double>(n) / ranges)
        << dist_name(d);
    EXPECT_GE(st.skew, 1.0) << dist_name(d);
    EXPECT_LE(st.skew, 1.0 + eps) << dist_name(d);
    // Feasibility rounding: every range a multiple of M, total exact.
    u64 sum = 0;
    for (u32 r = 0; r < ranges; ++r) {
      EXPECT_EQ(parts[r].size() % kMem, 0u)
          << dist_name(d) << " range " << r;
      EXPECT_EQ(parts[r].size(), st.sizes[r]);
      sum += parts[r].size();
    }
    EXPECT_EQ(sum, n) << dist_name(d);
    // Ordered ranges: nothing in range r exceeds anything in range r+1.
    for (u32 r = 0; r + 1 < ranges; ++r) {
      if (parts[r].empty() || parts[r + 1].empty()) continue;
      const u64 hi = *std::max_element(parts[r].begin(), parts[r].end());
      const u64 lo =
          *std::min_element(parts[r + 1].begin(), parts[r + 1].end());
      EXPECT_LE(hi, lo) << dist_name(d) << " boundary " << r;
    }
    // Exact multiset: concatenation is a permutation of the input.
    std::vector<u64> cat;
    cat.reserve(n);
    for (const auto& p : parts) cat.insert(cat.end(), p.begin(), p.end());
    std::sort(cat.begin(), cat.end());
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(cat, expected) << dist_name(d);
    // Determinism: same seed, same partition — byte for byte.
    auto again = partition_ranges<u64>(std::span<const u64>(data), ranges,
                                       oversample, kMem, /*seed=*/11);
    EXPECT_EQ(parts, again) << dist_name(d);
  }
}

TEST(DistributedSort, AdversarialRotationStaysBalanced)
{
  // make_rotated defeats the expected-pass algorithms' displacement
  // bound; the sampler must not care.
  const u64 n = 32 * kMem;
  auto data = make_rotated(n, n / 2);
  RangePartitionStats st;
  auto parts = partition_ranges<u64>(std::span<const u64>(data), 4, 64,
                                     kMem, 5, std::less<u64>{}, &st);
  EXPECT_LE(st.skew, 1.5);
  u64 sum = 0;
  for (const auto& p : parts) sum += p.size();
  EXPECT_EQ(sum, n);
}

TEST(DistributedSort, FirstCutRankRoundingToZeroStaysSound)
{
  // Regression: a first splitter whose rank rounds to 0 (fewer than M/2
  // records below it) must yield an EMPTY range 0 bounded by the true
  // rank-0 minimum — not whatever record sits at original position 0,
  // which made range sizes non-multiples of M and could leave the
  // boundary array unsorted.
  const u32 ranges = 4;
  const u64 n = 8 * kMem;
  Rng rng(43);
  const auto data = make_keys(n, Dist::kUniform, rng);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  int zero_cut_seeds = 0;
  for (u64 seed = 0; seed < 600; ++seed) {
    RangePartitionStats st;
    auto parts = partition_ranges<u64>(std::span<const u64>(data), ranges,
                                       /*oversample=*/1, kMem, seed,
                                       std::less<u64>{}, &st);
    if (st.raw_sizes[0] < kMem / 2) {  // this seed's first cut rounds to 0
      ++zero_cut_seeds;
      EXPECT_EQ(st.sizes[0], 0u) << "seed " << seed;
    }
    u64 sum = 0;
    for (u32 r = 0; r < ranges; ++r) {
      EXPECT_EQ(parts[r].size() % kMem, 0u)
          << "seed " << seed << " range " << r;
      sum += parts[r].size();
    }
    EXPECT_EQ(sum, n) << "seed " << seed;
    for (u32 r = 0; r + 1 < ranges; ++r) {
      if (parts[r].empty() || parts[r + 1].empty()) continue;
      EXPECT_LE(*std::max_element(parts[r].begin(), parts[r].end()),
                *std::min_element(parts[r + 1].begin(), parts[r + 1].end()))
          << "seed " << seed << " boundary " << r;
    }
    std::vector<u64> cat;
    cat.reserve(n);
    for (const auto& p : parts) cat.insert(cat.end(), p.begin(), p.end());
    std::sort(cat.begin(), cat.end());
    EXPECT_EQ(cat, expected) << "seed " << seed;
  }
  // With oversample=1 the first splitter's rank rounds to 0 for ~2% of
  // seeds on uniform data; 600 draws make missing them all vanishingly
  // unlikely — a zero here means the scenario went untested.
  EXPECT_GT(zero_cut_seeds, 0);
}

TEST(DistributedSort, RoundedRangesKeepPaperPlans)
{
  // Every rounded range size must admit a plan, and a range no bigger
  // than a shard-sized job must never need more passes than the paper
  // grants that size (plan expected_passes is the paper bound).
  const u64 n = 64 * kMem;
  const u64 rpb = kBlockBytes / sizeof(u64);
  Rng rng(3);
  auto data = make_keys(n, Dist::kZipf, rng);
  RangePartitionStats st;
  partition_ranges<u64>(std::span<const u64>(data), 4, 64, kMem, 9,
                        std::less<u64>{}, &st);
  for (u64 s : st.sizes) {
    if (s == 0) continue;
    const PlanEntry e = choose_plan(s, kMem, rpb, 1.0);
    EXPECT_TRUE(e.feasible);
    // A quarter-sized range needs at most the whole dataset's passes.
    const PlanEntry whole = choose_plan(n, kMem, rpb, 1.0);
    EXPECT_LE(e.expected_passes, whole.expected_passes);
  }
}

// --- end-to-end --------------------------------------------------------

TEST(DistributedSort, EndToEndMatchesSingleShardBaseline)
{
  const u64 n = 16 * kMem;
  Rng rng(21);
  auto data = make_keys(n, Dist::kPermutation, rng);

  // Single-shard baseline: the same dataset through a one-shard cluster.
  std::vector<u64> baseline;
  {
    Cluster one(memory_backend_factory(kDisksPerShard, kBlockBytes),
                cluster_cfg(1));
    const JobId id = one.submit<u64>(
        spec_of("baseline"), data, std::less<u64>{},
        [&baseline](const SortResult<u64>& res) {
          baseline = res.output.read_all();
        });
    EXPECT_EQ(one.wait(id).state, JobState::kDone);
  }
  ASSERT_EQ(baseline.size(), n);

  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes),
                  cluster_cfg(4));
  std::vector<u64> out;
  std::atomic<int> called{0};
  const JobId id = cluster.submit_distributed<u64>(
      spec_of("giant"), data, DistributedOptions{}, std::less<u64>{},
      [&out, &called](const DistributedSortResult<u64>& res) {
        out = res.output;
        ++called;
      });
  const DistributedInfo info = cluster.distributed_wait(id);
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_EQ(info.n, n);
  EXPECT_EQ(called.load(), 1);

  // Exact match with the single-shard baseline (u64: sorted output is
  // unique, so this is the full permutation check).
  ASSERT_EQ(out.size(), baseline.size());
  EXPECT_EQ(out, baseline);

  // Per-range pass counts match the paper's bounds for each range size:
  // the planner's expected_passes IS the paper bound for the shape.
  const u64 rpb = kBlockBytes / sizeof(u64);
  ASSERT_EQ(info.range_records.size(), info.range_reports.size());
  u64 accounted = 0;
  for (usize r = 0; r < info.range_records.size(); ++r) {
    const u64 nr = info.range_records[r];
    accounted += nr;
    if (nr == 0) continue;
    const PlanEntry e = choose_plan(nr, kMem, rpb, 1.0);
    EXPECT_EQ(info.range_reports[r].algorithm, algo_name(e.algo))
        << "range " << r;
    test::expect_passes_near(info.range_reports[r], e.expected_passes, 0.2);
  }
  EXPECT_EQ(accounted, n);
  EXPECT_GE(info.skew, 1.0);

  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.distributed_jobs, 1u);
  EXPECT_EQ(st.distributed_completed, 1u);
  EXPECT_EQ(st.distributed_active, 0u);
  EXPECT_EQ(st.dist_range_records, info.range_records);
  EXPECT_DOUBLE_EQ(st.dist_skew, info.skew);
  EXPECT_GE(st.dist_skew_max, st.dist_skew);
}

TEST(DistributedSort, DuplicateHeavyKvIsExactPermutation)
{
  // Duplicate-heavy KV: equal keys carry distinct payloads, so a lost or
  // duplicated record shows in the histogram even when key order looks
  // right.
  const u64 n = 16 * kMem;
  Rng rng(22);
  auto data = make_kv(n, Dist::kFewDistinct, rng);
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes),
                  cluster_cfg(4));
  std::vector<KV64> out;
  const JobId id = cluster.submit_distributed<KV64>(
      spec_of("kv-giant"), data, DistributedOptions{}, std::less<KV64>{},
      [&out](const DistributedSortResult<KV64>& res) { out = res.output; });
  EXPECT_EQ(cluster.distributed_wait(id).state, JobState::kDone);
  ASSERT_EQ(out.size(), n);
  // Sorted-order scan over keys...
  for (usize i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].key, out[i].key) << "disorder at " << i;
  }
  // ...plus an exact record histogram: same multiset, payloads included.
  std::map<std::pair<u64, u64>, i64> hist;
  for (const KV64& r : data) ++hist[{r.key, r.value}];
  for (const KV64& r : out) --hist[{r.key, r.value}];
  for (const auto& [rec, count] : hist) {
    EXPECT_EQ(count, 0) << "record {" << rec.first << "," << rec.second
                        << "} lost or duplicated";
  }
}

TEST(DistributedSort, IoStatsInvariantAcrossRangeSubJobs)
{
  // The two-level exact-sum invariant, with a distributed job's range
  // sub-jobs in the mix: every sub-job is an ordinary shard job whose
  // IoStats delta sums into its shard's totals, and shard totals sum
  // into the cluster totals.
  const usize kShards = 2;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 10),
                  cluster_cfg(kShards));
  Rng rng(23);
  std::vector<JobId> regular;
  for (int i = 0; i < 4; ++i) {
    regular.push_back(cluster.submit<u64>(
        spec_of("small" + std::to_string(i)),
        make_keys(2 * kMem, Dist::kUniform, rng)));
  }
  const JobId dist = cluster.submit_distributed<u64>(
      spec_of("dist"), make_keys(8 * kMem, Dist::kPermutation, rng));
  const DistributedInfo info = cluster.distributed_wait(dist);
  EXPECT_EQ(info.state, JobState::kDone);
  cluster.drain();

  // Every range sub-job is visible through the cluster handles and did
  // real I/O (staging + sorting + the extent-layer export).
  for (usize r = 0; r < info.sub_jobs.size(); ++r) {
    if (info.sub_jobs[r] == 0) continue;
    const JobInfo ji = cluster.info(info.sub_jobs[r]);
    EXPECT_EQ(ji.state, JobState::kDone);
    EXPECT_EQ(ji.n, info.range_records[r]);
    EXPECT_GT(ji.io.read_ops, 0u);
    EXPECT_GT(ji.io.write_ops, 0u);
    EXPECT_EQ(ji.shard, info.range_shards[r]);
  }

  const ClusterStats st = cluster.stats();
  // Level 1: per-job deltas (sub-jobs included) sum exactly to each
  // shard's totals.
  for (usize s = 0; s < cluster.num_shards(); ++s) {
    const ServiceStats& ss = st.per_shard[s];
    IoStats sum;
    sum.reset(kDisksPerShard);
    for (const JobInfo& j : cluster.shard(s).jobs()) {
      sum.read_ops += j.io.read_ops;
      sum.write_ops += j.io.write_ops;
      sum.blocks_read += j.io.blocks_read;
      sum.blocks_written += j.io.blocks_written;
    }
    EXPECT_EQ(sum.read_ops, ss.io.read_ops) << "shard " << s;
    EXPECT_EQ(sum.write_ops, ss.io.write_ops) << "shard " << s;
    EXPECT_EQ(sum.blocks_read, ss.io.blocks_read) << "shard " << s;
    EXPECT_EQ(sum.blocks_written, ss.io.blocks_written) << "shard " << s;
  }
  // Level 2: shard totals sum exactly to cluster totals.
  IoStats shard_sum;
  shard_sum.reset(0);
  for (const ServiceStats& ss : st.per_shard) {
    shard_sum.read_ops += ss.io.read_ops;
    shard_sum.write_ops += ss.io.write_ops;
    shard_sum.blocks_read += ss.io.blocks_read;
    shard_sum.blocks_written += ss.io.blocks_written;
  }
  EXPECT_EQ(shard_sum.read_ops, st.io.read_ops);
  EXPECT_EQ(shard_sum.write_ops, st.io.write_ops);
  EXPECT_EQ(shard_sum.blocks_read, st.io.blocks_read);
  EXPECT_EQ(shard_sum.blocks_written, st.io.blocks_written);
}

TEST(DistributedSort, ThrowingCompletionCallbackFailsJobSafely)
{
  // A user callback that throws must not std::terminate the coordinator
  // thread or leave the job's fence held: the job goes kFailed with the
  // exception message, and the cluster keeps serving.
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes),
                  cluster_cfg(2));
  Rng rng(41);
  const JobId id = cluster.submit_distributed<u64>(
      spec_of("thrower"), make_keys(8 * kMem, Dist::kPermutation, rng),
      DistributedOptions{}, std::less<u64>{},
      [](const DistributedSortResult<u64>&) {
        throw std::runtime_error("user callback boom");
      });
  const DistributedInfo info = cluster.distributed_wait(id);
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_NE(info.error.find("user callback boom"), std::string::npos)
      << info.error;
  cluster.drain();  // fence lifted: drain() returns
  EXPECT_EQ(cluster.stats().distributed_failed, 1u);

  std::vector<u64> out;
  const JobId ok = cluster.submit_distributed<u64>(
      spec_of("after"), make_keys(8 * kMem, Dist::kPermutation, rng),
      DistributedOptions{}, std::less<u64>{},
      [&out](const DistributedSortResult<u64>& res) { out = res.output; });
  EXPECT_EQ(cluster.distributed_wait(ok).state, JobState::kDone);
  EXPECT_EQ(out.size(), 8 * kMem);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(DistributedSort, ForgetDropsTerminalDistributedRecord)
{
  // forget() covers distributed records: refused while the coordinator
  // is live, drops the terminal record exactly once, and lookups of the
  // forgotten id throw instead of growing dist_records_ forever.
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes),
                  cluster_cfg(2, /*workers=*/1));
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  submit_blocker(cluster, 0, opened, 0);
  submit_blocker(cluster, 1, opened, 1);
  Rng rng(42);
  const JobId id = cluster.submit_distributed<u64>(
      spec_of("ephemeral"), make_keys(8 * kMem, Dist::kPermutation, rng));
  EXPECT_FALSE(cluster.forget(id));  // ranges parked: coordinator live
  gate.set_value();
  EXPECT_EQ(cluster.distributed_wait(id).state, JobState::kDone);
  EXPECT_TRUE(cluster.forget(id));
  EXPECT_FALSE(cluster.forget(id));
  EXPECT_THROW(cluster.distributed_info(id), Error);
  EXPECT_THROW(cluster.distributed_wait(id), Error);
}

// --- elasticity fencing ------------------------------------------------

TEST(DistributedSort, DrainShardVetoWhileRangeInFlight)
{
  // Graceful-shrink guard regression: while a distributed job is live,
  // draining a shard that owns one of its ranges throws — before any
  // topology change — and succeeds again once the job is done.
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes),
                  cluster_cfg(2, /*workers=*/1));
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  const JobId b0 = submit_blocker(cluster, 0, opened, 0);
  const JobId b1 = submit_blocker(cluster, 1, opened, 1);

  Rng rng(31);
  auto data = make_keys(8 * kMem, Dist::kPermutation, rng);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<u64> out;
  const JobId dist = cluster.submit_distributed<u64>(
      spec_of("fenced"), std::move(data), DistributedOptions{},
      std::less<u64>{},
      [&out](const DistributedSortResult<u64>& res) { out = res.output; });

  // Both shards own an in-flight range (parked behind the blockers).
  EXPECT_THROW(cluster.drain_shard(0), Error);
  EXPECT_THROW(cluster.drain_shard(1), Error);
  EXPECT_TRUE(cluster.shard_active(0));
  EXPECT_TRUE(cluster.shard_active(1));
  EXPECT_EQ(cluster.stats().shards_drained, 0u);

  gate.set_value();
  EXPECT_EQ(cluster.distributed_wait(dist).state, JobState::kDone);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(cluster.wait(b0).state, JobState::kDone);
  EXPECT_EQ(cluster.wait(b1).state, JobState::kDone);

  // Fence lifted: the same drain now goes through.
  cluster.drain_shard(1);
  EXPECT_FALSE(cluster.shard_active(1));
  EXPECT_EQ(cluster.stats().shards_drained, 1u);
}

TEST(DistributedSort, AddShardMidSortIsSafe)
{
  // add_shard during a distributed sort must not disturb the pinned
  // ranges: the job completes exactly, and the newcomer serves traffic.
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes),
                  cluster_cfg(2, /*workers=*/1));
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  submit_blocker(cluster, 0, opened, 0);
  submit_blocker(cluster, 1, opened, 1);

  Rng rng(32);
  auto data = make_keys(8 * kMem, Dist::kPermutation, rng);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<u64> out;
  const JobId dist = cluster.submit_distributed<u64>(
      spec_of("elastic"), std::move(data), DistributedOptions{},
      std::less<u64>{},
      [&out](const DistributedSortResult<u64>& res) { out = res.output; });

  const u32 newcomer = cluster.add_shard();  // mid-sort: ranges are parked
  gate.set_value();
  const DistributedInfo info = cluster.distributed_wait(dist);
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_EQ(out, expected);
  // Ranges stayed on their originally pinned shards.
  for (u32 owner : info.range_shards) EXPECT_NE(owner, newcomer);
  // The new shard is live for ordinary traffic.
  const JobId extra = cluster.submit<u64>(
      spec_of("after", newcomer), make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.wait(extra).state, JobState::kDone);
  EXPECT_EQ(cluster.shard_of(extra), newcomer);
}

// --- TSan scenario -----------------------------------------------------

TEST(DistributedSort, ConcurrentTrafficElasticityAndCancel)
{
  // Distributed sort + independent small-job traffic + one add_shard
  // mid-sort + one cancel of a distributed job, all concurrent: no lost
  // or duplicated records, every range sub-job reaches a terminal state,
  // hold-queue accounting balances.
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 10),
                  cluster_cfg(3, /*workers=*/1));
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  for (u32 s = 0; s < 3; ++s) submit_blocker(cluster, s, opened, s);

  Rng rng(33);
  // The victim: parked behind the blockers, cancelled before release.
  const JobId victim = cluster.submit_distributed<u64>(
      spec_of("victim"), make_keys(8 * kMem, Dist::kPermutation, rng));
  EXPECT_TRUE(cluster.cancel(victim));

  // The survivor, plus concurrent small traffic and an add_shard.
  auto data = make_keys(16 * kMem, Dist::kPermutation, rng);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<u64> out;
  const JobId survivor = cluster.submit_distributed<u64>(
      spec_of("survivor"), std::move(data), DistributedOptions{},
      std::less<u64>{},
      [&out](const DistributedSortResult<u64>& res) { out = res.output; });

  std::atomic<int> ok{0}, bad{0};
  std::thread traffic([&] {
    Rng trng(34);
    for (int i = 0; i < 10; ++i) {
      auto small = make_keys(kMem, Dist::kUniform, trng);
      auto want = small;
      std::sort(want.begin(), want.end());
      cluster.submit<u64>(
          spec_of("t" + std::to_string(i)), std::move(small),
          std::less<u64>{},
          [want = std::move(want), &ok, &bad](const SortResult<u64>& res) {
            if (res.output.read_all() == want) {
              ++ok;
            } else {
              ++bad;
            }
          });
    }
  });
  std::thread elastic([&] { cluster.add_shard(); });
  gate.set_value();
  traffic.join();
  elastic.join();

  const DistributedInfo vinfo = cluster.distributed_wait(victim);
  EXPECT_EQ(vinfo.state, JobState::kCancelled);
  const DistributedInfo sinfo = cluster.distributed_wait(survivor);
  EXPECT_EQ(sinfo.state, JobState::kDone);
  EXPECT_EQ(out, expected);  // no lost or duplicated records
  cluster.drain();

  // Every range sub-job of both distributed jobs is terminal.
  for (const DistributedInfo* info : {&vinfo, &sinfo}) {
    for (JobId sub : info->sub_jobs) {
      if (sub == 0) continue;
      EXPECT_TRUE(job_state_terminal(cluster.info(sub).state));
    }
  }

  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.distributed_jobs, 2u);
  EXPECT_EQ(st.distributed_completed, 1u);
  EXPECT_EQ(st.distributed_cancelled, 1u);
  EXPECT_EQ(st.distributed_active, 0u);
  EXPECT_EQ(ok.load(), 10);
  EXPECT_EQ(bad.load(), 0);
  // Hold-queue accounting balances: nothing parked, nothing live, and
  // the terminal states sum back to every submission.
  EXPECT_EQ(st.held_now, 0u);
  EXPECT_EQ(st.submitted,
            st.completed + st.failed + st.cancelled + st.rejected);
  EXPECT_EQ(st.shards_added, 1u);
}

}  // namespace
}  // namespace pdm
