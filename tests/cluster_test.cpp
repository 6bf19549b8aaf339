// pdm::Cluster: sharded multi-context serving under one dispatch path and
// one placement rule. Covers where a job lands (its home if the home can
// start it now, else the lowest-score shard that can), a job only a big
// shard can hold, the no-local-backlog invariant under concurrent
// submitters, deadline ordering in the hold queue, cluster-global job
// handles, and — under a concurrent mixed workload — the two-level
// exact-sum accounting invariant: per-job IoStats deltas sum to their
// shard's totals, and per-shard totals sum to the ClusterStats totals.
// The whole file must be TSan-clean (CI runs it under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <mutex>
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

/// Submits a job pinned to `shard` with the given memory carve (0 = the
/// default) that holds its worker (in the completion callback) until
/// `release` is set, and blocks until it is running: held jobs make shard
/// loads exact and stable while a test places other jobs against them.
JobId hold_shard(Cluster& cluster, u32 shard, usize carve_bytes,
                 std::shared_future<void> release, Rng& rng) {
  SortJobSpec s = spec_of("held-" + std::to_string(shard));
  s.target_shard = shard;
  s.carve_bytes = carve_bytes;
  auto started = std::make_shared<std::promise<void>>();
  auto f = started->get_future();
  const JobId id = cluster.submit<u64>(
      s, make_keys(kMem, Dist::kUniform, rng), std::less<u64>{},
      [started, release](const SortResult<u64>&) {
        started->set_value();
        release.wait();
      });
  f.wait();
  return id;
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

TEST(Cluster, LandsOnLowestScoreShardThatCanStartIt)
{
  // Heterogeneous worker pools make "lowest score" and "can start it now"
  // disagree: shard 0 (1 worker) reads least loaded but is full.
  ClusterConfig cfg;
  cfg.shards = 3;
  cfg.shard_configs.resize(3, cfg.shard);
  cfg.shard_configs[0].workers = 1;
  cfg.shard_configs[1].workers = 3;
  cfg.shard_configs[2].workers = 3;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(1);
  // Idle cluster: every score is 0, ties go to the lowest shard id.
  const JobId first = cluster.submit<u64>(
      spec_of("first"), make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(first), 0u);
  EXPECT_EQ(cluster.wait(first).state, JobState::kDone);

  // Scores: shard 0 = 1 task, shard 1 = 2 tasks, shard 2 = 2 tasks plus
  // half its budget reserved.
  const usize half = cluster.shard(2).budget().limit() / 2;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  hold_shard(cluster, 0, 0, released, rng);
  hold_shard(cluster, 1, 0, released, rng);
  hold_shard(cluster, 1, 0, released, rng);
  hold_shard(cluster, 2, 0, released, rng);
  hold_shard(cluster, 2, half, released, rng);
  const ClusterStats before = cluster.stats();
  // Home is shard 0 (lowest score) but it has no free worker: the job
  // goes to the lowest-score shard that can start it — shard 1.
  const JobId a = cluster.submit<u64>(spec_of("a"),
                                      make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(a), 1u);
  // Shard 1 is now full too: the next one goes to shard 2.
  const JobId b = cluster.submit<u64>(spec_of("b"),
                                      make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(b), 2u);
  // Nobody can start a third: it parks instead of queueing on a shard.
  const JobId c = cluster.submit<u64>(spec_of("c"),
                                      make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(c), Cluster::kHeldShard);
  ClusterStats st = cluster.stats();
  EXPECT_EQ(st.stolen - before.stolen, 2u);  // a and b ran off their home
  EXPECT_EQ(st.held_now, 1u);
  EXPECT_EQ(st.held_total - before.held_total, 1u);
  for (usize s = 0; s < 3; ++s) {
    const ShardLoad l = cluster.shard(s).load();
    EXPECT_LE(l.queued + l.running, l.workers) << "shard " << s;
  }
  release.set_value();
  cluster.drain();
  for (JobId id : {a, b, c}) {
    EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
  }
  st = cluster.stats();
  EXPECT_EQ(st.completed, 9u);
  EXPECT_EQ(st.held_now, 0u);
}

TEST(Cluster, BigShardTakesJobOnlyItCanHold)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  // Heterogeneous shards: shard 0 is memory-starved, shard 1 roomy.
  cfg.shard_configs.resize(2, cfg.shard);
  cfg.shard_configs[0].workers = 1;
  cfg.shard_configs[0].total_memory_bytes = usize{1} << 20;
  cfg.shard_configs[1].workers = 1;
  cfg.shard_configs[1].total_memory_bytes = usize{64} << 20;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(4);
  // Carve = 6 * 32Ki * 8B = 1.5 MiB: over shard 0's whole budget, fine
  // on shard 1. Shard 0 is idle and lowest-id, yet only shard 1 can ever
  // hold the job, so that is its home.
  SortJobSpec big = spec_of("big");
  big.mem_records = u64{32} << 10;
  const JobId big_id =
      cluster.submit<u64>(big, make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(big_id), 1u);
  // A small job fits both; shard 0 is idle, so it lands there.
  const JobId small = cluster.submit<u64>(
      spec_of("small"), make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(small), 0u);
  // A job no shard can hold is rejected cluster-side, never placed.
  SortJobSpec huge = spec_of("huge");
  huge.mem_records = u64{1} << 26;  // carve ~3 GiB
  const JobId rejected =
      cluster.submit<u64>(huge, make_keys(kMem, Dist::kUniform, rng));
  cluster.drain();

  EXPECT_EQ(cluster.wait(big_id).state, JobState::kDone);
  EXPECT_EQ(cluster.wait(small).state, JobState::kDone);
  EXPECT_EQ(cluster.shard_of(rejected), Cluster::kHeldShard);
  const JobInfo rj = cluster.wait(rejected);
  EXPECT_EQ(rj.state, JobState::kRejected);
  EXPECT_NE(rj.error.find("admission control"), std::string::npos);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.held_rejected, 1u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.stolen, 0u);
}

TEST(Cluster, ShardsNeverQueueJobsTheyCannotStart)
{
  // The pump only hands a shard a job it can start at once, and a
  // shard's load counts the carves of jobs it accepted but has not yet
  // started: under concurrent submitters, no shard ever holds more
  // accepted jobs than free workers, or more reservations than budget.
  ClusterConfig cfg;
  cfg.shards = 3;
  cfg.shard.workers = 2;
  cfg.shard.total_memory_bytes = usize{2} << 20;  // ~5 default carves
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 20),
                  cfg);
  std::atomic<bool> done{false};
  std::atomic<u64> samples{0};
  std::atomic<int> violations{0};
  std::thread monitor([&] {
    while (!done.load()) {
      for (usize s = 0; s < 3; ++s) {
        const ShardLoad l = cluster.shard(s).load();
        if (l.queued + l.running > l.workers ||
            l.reserved_bytes > l.budget_limit) {
          ++violations;
        }
      }
      ++samples;
    }
  });
  std::atomic<int> ok{0}, bad{0};
  std::vector<std::thread> submitters;
  std::mutex ids_mu;
  std::vector<JobId> ids;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(50 + static_cast<u64>(t));
      for (int j = 0; j < 12; ++j) {
        SortJobSpec s = spec_of("t" + std::to_string(t) + "-" +
                                std::to_string(j));
        // Mixed carves: some jobs take a third of a shard's budget.
        if (j % 4 == 0) s.carve_bytes = cfg.shard.total_memory_bytes / 3;
        const JobId id = submit_verified(
            cluster, s,
            make_keys((1 + static_cast<usize>(j) % 3) * kMem,
                      Dist::kPermutation, rng),
            ok, bad);
        std::lock_guard g(ids_mu);
        ids.push_back(id);
      }
    });
  }
  for (auto& th : submitters) th.join();
  cluster.drain();
  done = true;
  monitor.join();
  EXPECT_GT(samples.load(), 0u);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(ok.load(), 36);
  EXPECT_EQ(bad.load(), 0);
  for (JobId id : ids) EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.completed, 36u);
  EXPECT_GT(st.held_total, 0u);  // 6 workers for 36 jobs: some waited
}

// The hold queue orders by the same deadline conversion as the shards: a
// deadline too far out for steady_clock (+inf, 1e12 s) orders like none,
// behind the 10 s job; NaN is refused at submission.
TEST(Cluster, DeadlineBeyondClockRangeOrdersLikeNone)
{
  ClusterConfig cfg;
  cfg.shards = 1;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(12);
  std::promise<void> release;
  hold_shard(cluster, 0, 0, release.get_future().share(), rng);
  std::mutex order_mu;
  std::vector<std::string> order;
  const std::vector<std::pair<std::string, double>> jobs = {
      {"inf", std::numeric_limits<double>::infinity()},
      {"1e12s", 1e12},
      {"10s", 10.0}};
  for (const auto& [name, deadline_s] : jobs) {
    SortJobSpec s = spec_of(name);
    s.deadline_s = deadline_s;
    cluster.submit<u64>(std::move(s), make_keys(kMem, Dist::kUniform, rng),
                        std::less<u64>{},
                        [&order, &order_mu, name](const SortResult<u64>&) {
                          std::lock_guard g(order_mu);
                          order.push_back(name);
                        });
  }
  SortJobSpec nan_spec = spec_of("nan");
  nan_spec.deadline_s = std::nan("");
  EXPECT_THROW(
      cluster.submit<u64>(nan_spec, make_keys(kMem, Dist::kUniform, rng)),
      Error);
  EXPECT_EQ(cluster.stats().held_now, 3u);
  release.set_value();
  cluster.drain();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "10s");
  EXPECT_EQ(order[1], "inf");
  EXPECT_EQ(order[2], "1e12s");
  EXPECT_EQ(cluster.stats().deadline_missed, 0u);
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

TEST(Cluster, ForgetCleansEvictedMappings)
{
  ClusterConfig cfg;
  cfg.shards = 2;
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
  cfg.shard.workers = 2;
  cfg.shard.io_depth_total = 4;
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
  EXPECT_EQ(st.held_rejected, 1u);
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
