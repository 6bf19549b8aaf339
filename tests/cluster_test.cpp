// pdm::Cluster: sharded multi-context serving behind a load/locality-
// aware router. Covers the three placement policies, overflow spill to a
// shard with room, cluster-global job handles, and — under a concurrent
// mixed workload — the two-level exact-sum accounting invariant: per-job
// IoStats deltas sum to their shard's totals, and per-shard totals sum to
// the ClusterStats totals. The whole file must be TSan-clean (CI runs it
// under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "pdm/backend_factory.h"
#include "test_support.h"
#include "util/generators.h"

namespace pdm {
namespace {

constexpr u64 kMem = 1024;          // per-job M in records
constexpr usize kBlockBytes = 256;  // rpb: u64=32, KV64=16, i32=64
constexpr u32 kDisksPerShard = 4;

SortJobSpec spec_of(std::string name, std::string locality_key = "",
                    int priority = 0) {
  SortJobSpec s;
  s.name = std::move(name);
  s.mem_records = kMem;
  s.priority = priority;
  s.locality_key = std::move(locality_key);
  return s;
}

/// A locality key routing to `shard` on the cluster's consistent-hash
/// ring (placement is ring-based since the elastic cluster, not modulo).
std::string key_for_shard(const Cluster& cluster, u32 shard,
                          std::string seed) {
  std::string key = seed;
  while (cluster.router().ring().route(locality_hash(key)) != shard) {
    key += seed;
  }
  return key;
}

JobId submit_verified(Cluster& cluster, SortJobSpec spec,
                      std::vector<u64> data, std::atomic<int>& ok,
                      std::atomic<int>& bad) {
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  return cluster.submit<u64>(
      std::move(spec), std::move(data), std::less<u64>{},
      [expected = std::move(expected), &ok, &bad](const SortResult<u64>& res) {
        auto got = res.output.read_all();
        if (got == expected) {
          ++ok;
        } else {
          ++bad;
        }
      });
}

TEST(Cluster, RoundRobinSpreadsEvenly)
{
  ClusterConfig cfg;
  cfg.shards = 4;
  cfg.policy = RoutePolicy::kRoundRobin;
  cfg.shard.workers = 1;
  // Policy behavior in isolation: no hold-queue stealing, so every job
  // stays on its round-robin shard however busy it is (with 1 worker a
  // shard's later jobs park, and an idle neighbour finishing out of
  // order would otherwise steal them and skew the spread).
  cfg.hold_queue = false;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(1);
  std::atomic<int> ok{0}, bad{0};
  std::vector<JobId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(submit_verified(
        cluster, spec_of("rr" + std::to_string(i)),
        make_keys(2 * kMem, Dist::kPermutation, rng), ok, bad));
  }
  cluster.drain();
  for (JobId id : ids) EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
  EXPECT_EQ(ok.load(), 12);
  EXPECT_EQ(bad.load(), 0);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.completed, 12u);
  ASSERT_EQ(st.jobs_per_shard.size(), 4u);
  for (u64 per : st.jobs_per_shard) EXPECT_EQ(per, 3u);
  EXPECT_DOUBLE_EQ(st.job_imbalance, 1.0);
  EXPECT_EQ(st.spilled, 0u);
}

TEST(Cluster, LocalityHashIsStable)
{
  ClusterConfig cfg;
  cfg.shards = 4;
  cfg.policy = RoutePolicy::kLocalityHash;
  cfg.shard.workers = 1;
  // Policy behavior in isolation: no hold-queue stealing, so every job
  // stays on its hash-placed shard however busy it is.
  cfg.hold_queue = false;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(2);
  std::vector<JobId> tenant_a;
  std::vector<JobId> tenant_b;
  for (int i = 0; i < 5; ++i) {
    tenant_a.push_back(cluster.submit<u64>(
        spec_of("a" + std::to_string(i), "tenant-a"),
        make_keys(2 * kMem, Dist::kUniform, rng)));
    tenant_b.push_back(cluster.submit<u64>(
        spec_of("b" + std::to_string(i), "tenant-b"),
        make_keys(2 * kMem, Dist::kUniform, rng)));
  }
  cluster.drain();
  // Every job of a tenant landed on that tenant's (ring-stable) shard.
  const u32 shard_a =
      cluster.router().ring().route(locality_hash("tenant-a"));
  const u32 shard_b =
      cluster.router().ring().route(locality_hash("tenant-b"));
  for (JobId id : tenant_a) {
    EXPECT_EQ(cluster.shard_of(id), shard_a);
    EXPECT_EQ(cluster.info(id).shard, shard_a);
    EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
  }
  for (JobId id : tenant_b) EXPECT_EQ(cluster.shard_of(id), shard_b);
  // Repeat tenants share plan-cache state: one miss per distinct shape on
  // the tenant's shard, the rest hits.
  const ServiceStats sa = cluster.shard(shard_a).stats();
  EXPECT_GE(sa.plan_cache_hits + sa.plan_cache_misses, 5u);
  EXPECT_LE(sa.plan_cache_misses, 2u);
}

TEST(Cluster, LeastLoadedAvoidsBusyShard)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.policy = RoutePolicy::kLeastLoaded;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 50),
                  cfg);
  Rng rng(3);
  // Pin shard 0 with a long, memory-heavy job submitted directly to it
  // (bypassing the router and its placement counters): its queue depth
  // plus reserved-memory fraction keeps shard 0's load score high.
  SortJobSpec pin_spec = spec_of("pin");
  pin_spec.carve_bytes = cluster.shard(0).budget().limit() / 2;
  const JobId pin = cluster.shard(0).submit<u64>(
      pin_spec, make_keys(64 * kMem, Dist::kPermutation, rng));
  while (cluster.shard(0).info(pin).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // Power-of-two-choices over 2 shards compares both every time: while
  // shard 0 is busy, traffic routes to shard 1. Spaced submissions let
  // shard 1 drain between placements so its own queue does not (rightly)
  // tip the balance back.
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(cluster.submit<u64>(
        spec_of("ll" + std::to_string(i)),
        make_keys(kMem, Dist::kUniform, rng)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (JobId id : ids) EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
  EXPECT_EQ(cluster.shard(0).wait(pin).state, JobState::kDone);
  const ClusterStats st = cluster.stats();
  ASSERT_EQ(st.jobs_per_shard.size(), 2u);
  EXPECT_LE(st.jobs_per_shard[0], 1u);
  EXPECT_GE(st.jobs_per_shard[1], 5u);
}

TEST(Cluster, SpillsToShardWithRoomBeforeRejecting)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.policy = RoutePolicy::kLocalityHash;
  // Heterogeneous shards: shard 0 is memory-starved, shard 1 roomy.
  cfg.shard_configs.resize(2, cfg.shard);
  cfg.shard_configs[0].workers = 1;
  cfg.shard_configs[0].total_memory_bytes = usize{1} << 20;
  cfg.shard_configs[1].workers = 1;
  cfg.shard_configs[1].total_memory_bytes = usize{64} << 20;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  // A locality key that prefers the starved shard.
  const std::string key = key_for_shard(cluster, 0, "k");
  Rng rng(4);
  // Carve = 6 * 32Ki * 8B = 1.5 MiB: over shard 0's budget, fine on 1.
  SortJobSpec big = spec_of("big", key);
  big.mem_records = u64{32} << 10;
  const JobId spilled =
      cluster.submit<u64>(big, make_keys(kMem, Dist::kUniform, rng));
  // Small jobs with the same key still land on their preferred shard.
  const JobId small =
      cluster.submit<u64>(spec_of("small", key),
                          make_keys(kMem, Dist::kUniform, rng));
  // A job no shard can admit is rejected cluster-wide, with the record on
  // the preferred shard.
  SortJobSpec huge = spec_of("huge", key);
  huge.mem_records = u64{1} << 26;  // carve ~3 GiB
  const JobId rejected =
      cluster.submit<u64>(huge, make_keys(kMem, Dist::kUniform, rng));
  cluster.drain();

  EXPECT_EQ(cluster.shard_of(spilled), 1u);
  EXPECT_EQ(cluster.wait(spilled).state, JobState::kDone);
  EXPECT_EQ(cluster.shard_of(small), 0u);
  EXPECT_EQ(cluster.wait(small).state, JobState::kDone);
  EXPECT_EQ(cluster.shard_of(rejected), 0u);
  const JobInfo rj = cluster.wait(rejected);
  EXPECT_EQ(rj.state, JobState::kRejected);
  EXPECT_NE(rj.error.find("admission control"), std::string::npos);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.spilled, 1u);
  EXPECT_EQ(st.rejected_cluster_wide, 1u);
  EXPECT_EQ(st.rejected, 1u);
}

TEST(Cluster, PassCountsUnchangedByShardCount)
{
  // The paper's pass bounds are per-array properties: the same job placed
  // on a 1-shard or a 4-shard cluster (same per-shard geometry) does
  // exactly the same I/O.
  Rng rng(5);
  const auto data = make_keys(4 * kMem, Dist::kPermutation, rng);
  double solo_passes = 0;
  std::string solo_algo;
  {
    ClusterConfig cfg;
    cfg.shards = 1;
    cfg.shard.workers = 1;
    Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes),
                    cfg);
    const JobInfo info =
        cluster.wait(cluster.submit<u64>(spec_of("solo"), data));
    ASSERT_EQ(info.state, JobState::kDone);
    solo_passes = info.report.passes;
    solo_algo = info.algorithm;
  }
  ClusterConfig cfg;
  cfg.shards = 4;
  cfg.policy = RoutePolicy::kRoundRobin;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  std::vector<JobId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(cluster.submit<u64>(spec_of("p" + std::to_string(i)),
                                      data));
  }
  for (JobId id : ids) {
    const JobInfo info = cluster.wait(id);
    ASSERT_EQ(info.state, JobState::kDone);
    EXPECT_EQ(info.algorithm, solo_algo);
    EXPECT_DOUBLE_EQ(info.report.passes, solo_passes)
        << "placement must not change a job's I/O complexity";
  }
}

// Cluster admission rejects a NaN alpha before placement reads the shard
// plan caches: one tenant's NaN job must not change another tenant's plan
// (see SortService.NonFiniteAlphaIsRejectedAndLeavesPlansAlone for the
// shape: alpha = 1 plans ThreePass2(LMM) there).
TEST(Cluster, NonFiniteAlphaIsRejectedBeforePlacement)
{
  constexpr u64 kM = 4096;
  ClusterConfig cfg;
  cfg.shards = 1;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(4, 64 * sizeof(u64)), cfg);
  Rng rng(33);
  SortJobSpec spec = spec_of("alpha", "tenant-a");
  spec.mem_records = kM;
  spec.alpha = std::nan("");
  EXPECT_THROW(
      cluster.submit<u64>(spec, make_keys(16 * kM, Dist::kUniform, rng)),
      Error);
  spec.locality_key = "tenant-b";
  spec.alpha = 1.0;
  const JobInfo info = cluster.wait(
      cluster.submit<u64>(spec, make_keys(16 * kM, Dist::kPermutation, rng)));
  ASSERT_EQ(info.state, JobState::kDone) << info.error;
  EXPECT_EQ(info.algorithm, "ThreePass2(LMM)");
  spec.alpha = -1.0;
  EXPECT_THROW(cluster.submit_distributed<u64>(
                   spec, make_keys(2 * kM, Dist::kUniform, rng)),
               Error);
}

TEST(Cluster, StickySpillBackPinsRepeatedlySpillingTenant)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.policy = RoutePolicy::kLocalityHash;
  cfg.shard_configs.resize(2, cfg.shard);
  cfg.shard_configs[0].workers = 1;
  cfg.shard_configs[0].total_memory_bytes = usize{1} << 20;  // starved
  cfg.shard_configs[1].workers = 1;
  cfg.shard_configs[1].total_memory_bytes = usize{64} << 20;  // roomy
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  const std::string key = key_for_shard(cluster, 0, "k");
  Rng rng(9);
  // Every job of this tenant carves ~1.5 MiB: over shard 0's whole
  // budget, so its hash-preferred placement always spills.
  auto big_spec = [&](int i) {
    SortJobSpec s = spec_of("sticky" + std::to_string(i), key);
    s.mem_records = u64{32} << 10;
    return s;
  };
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(
        cluster.submit<u64>(big_spec(i), make_keys(kMem, Dist::kUniform,
                                                   rng)));
  }
  cluster.drain();
  for (JobId id : ids) {
    EXPECT_EQ(cluster.shard_of(id), 1u);
    EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
  }
  // The first kSpillPromoteAfter = 3 submissions spill (full rescans);
  // after promotion the key is pinned to shard 1 and placements stop
  // counting as spills.
  const ClusterStats st = cluster.stats();
  static_assert(ShardRouter::kSpillPromoteAfter == 3);
  EXPECT_EQ(st.spilled, 3u);
  ASSERT_TRUE(cluster.router().pinned_shard(key).has_value());
  EXPECT_EQ(*cluster.router().pinned_shard(key), 1u);
  // An unrelated tenant whose (small) jobs fit its preferred shard 0 is
  // unaffected by the pin and never spills.
  const std::string key0 = key_for_shard(cluster, 0, "a");
  const JobId other = cluster.submit<u64>(
      spec_of("other", key0), make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(other), 0u);
  EXPECT_EQ(cluster.wait(other).state, JobState::kDone);
  EXPECT_FALSE(cluster.router().pinned_shard(key0).has_value());
}

TEST(Cluster, ForgetCleansEvictedMappings)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.policy = RoutePolicy::kRoundRobin;
  cfg.shard.workers = 1;
  cfg.shard.retain_terminal_max = 2;  // shards evict aggressively
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(7);
  std::vector<JobId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(cluster.submit<u64>(
        spec_of("f" + std::to_string(i)),
        make_keys(2 * kMem, Dist::kPermutation, rng)));
  }
  cluster.drain();
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_LE(st.retained, 4u);  // 2 per shard
  // forget() succeeds for retained AND already-evicted records alike —
  // either way the cluster mapping is released and the id goes unknown.
  for (JobId id : ids) EXPECT_TRUE(cluster.forget(id));
  for (JobId id : ids) EXPECT_FALSE(cluster.forget(id));
  EXPECT_EQ(cluster.stats().retained, 0u);
}

TEST(Cluster, StressAccountingInvariantAcrossShards)
{
  ClusterConfig cfg;
  cfg.shards = 4;
  cfg.policy = RoutePolicy::kLeastLoaded;
  cfg.shard.workers = 2;
  cfg.shard.io_depth_total = 4;
  cfg.shard.small_job_records = 512;
  cfg.shard.total_memory_bytes = usize{32} << 20;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 20),
                  cfg);
  Rng rng(6);
  std::atomic<int> ok{0}, bad{0};
  std::vector<JobId> all;
  const char* tenants[] = {"alpha", "beta", "gamma"};
  for (int round = 0; round < 8; ++round) {
    all.push_back(submit_verified(
        cluster,
        spec_of("big" + std::to_string(round), tenants[round % 3],
                round % 2),
        make_keys(8 * kMem, Dist::kPermutation, rng), ok, bad));
    all.push_back(submit_verified(
        cluster, spec_of("mid" + std::to_string(round)),
        make_keys(2 * kMem, Dist::kZipf, rng), ok, bad));
    all.push_back(submit_verified(
        cluster, spec_of("small" + std::to_string(round)),
        make_keys(256, Dist::kUniform, rng), ok, bad));
    all.push_back(cluster.submit<KV64>(
        spec_of("kv" + std::to_string(round), tenants[(round + 1) % 3]),
        make_kv(2 * kMem, Dist::kFewDistinct, rng)));
  }
  // A failure and a cluster-wide rejection mixed into live traffic.
  all.push_back(cluster.submit<u64>(spec_of("infeasible"),
                                    make_keys(1234, Dist::kUniform, rng)));
  SortJobSpec hog = spec_of("hog");
  hog.mem_records = u64{1} << 26;
  all.push_back(
      cluster.submit<u64>(hog, make_keys(64, Dist::kUniform, rng)));
  usize cancelled = 0;
  for (usize i = 0; i < all.size(); i += 9) {
    cancelled += cluster.cancel(all[i]) ? 1 : 0;
  }
  cluster.drain();

  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.submitted, all.size());
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.rejected,
            st.submitted);
  EXPECT_EQ(st.cancelled, cancelled);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.rejected_cluster_wide, 1u);
  EXPECT_GE(st.failed, 1u);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(st.shards, 4u);
  EXPECT_GT(st.jobs_per_sec, 0.0);
  EXPECT_GE(st.job_imbalance, 1.0);

  // Level 1: within every shard, per-job deltas sum exactly to the
  // shard's live totals.
  for (usize s = 0; s < cluster.num_shards(); ++s) {
    const ServiceStats ss = st.per_shard[s];
    IoStats sum;
    sum.reset(kDisksPerShard);
    for (const JobInfo& j : cluster.shard(s).jobs()) {
      sum.read_ops += j.io.read_ops;
      sum.write_ops += j.io.write_ops;
      sum.blocks_read += j.io.blocks_read;
      sum.blocks_written += j.io.blocks_written;
      for (usize d = 0; d < j.io.disk_reads.size(); ++d) {
        sum.disk_reads[d] += j.io.disk_reads[d];
        sum.disk_writes[d] += j.io.disk_writes[d];
      }
    }
    EXPECT_EQ(sum.read_ops, ss.io.read_ops) << "shard " << s;
    EXPECT_EQ(sum.write_ops, ss.io.write_ops) << "shard " << s;
    EXPECT_EQ(sum.blocks_read, ss.io.blocks_read) << "shard " << s;
    EXPECT_EQ(sum.blocks_written, ss.io.blocks_written) << "shard " << s;
    ASSERT_EQ(ss.io.disk_reads.size(), kDisksPerShard);
    for (usize d = 0; d < kDisksPerShard; ++d) {
      EXPECT_EQ(sum.disk_reads[d], ss.io.disk_reads[d])
          << "shard " << s << " disk " << d;
      EXPECT_EQ(sum.disk_writes[d], ss.io.disk_writes[d])
          << "shard " << s << " disk " << d;
    }
  }
  // Level 2: shard totals sum exactly to the cluster totals.
  IoStats shard_sum;
  shard_sum.reset(0);
  u64 blocks = 0;
  for (const ServiceStats& ss : st.per_shard) {
    shard_sum.read_ops += ss.io.read_ops;
    shard_sum.write_ops += ss.io.write_ops;
    shard_sum.blocks_read += ss.io.blocks_read;
    shard_sum.blocks_written += ss.io.blocks_written;
    blocks += ss.io.total_blocks();
  }
  EXPECT_EQ(shard_sum.read_ops, st.io.read_ops);
  EXPECT_EQ(shard_sum.write_ops, st.io.write_ops);
  EXPECT_EQ(shard_sum.blocks_read, st.io.blocks_read);
  EXPECT_EQ(shard_sum.blocks_written, st.io.blocks_written);
  EXPECT_EQ(st.io.disk_reads.size(),
            static_cast<usize>(kDisksPerShard) * 4);
  EXPECT_EQ(blocks, st.io.total_blocks());
}

}  // namespace
}  // namespace pdm
