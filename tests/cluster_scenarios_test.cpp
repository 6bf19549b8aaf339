// Elastic-cluster scenario suite: scripted topology changes against
// seeded workloads:
//
//  - live 2→4 scale-out and a drain of a loaded shard complete with zero
//    lost or duplicated jobs and per-job pass counts equal to the
//    static-topology baseline; a drained shard runs the jobs it had
//    already accepted;
//  - the two-level exact-sum IoStats invariant holds across retirements
//    (per-job deltas sum to shard totals — live or retired — and shard
//    totals sum to the cluster total);
//  - the hold queue lets an idle shard steal a saturated shard's backlog
//    in EDF-within-priority order (starvation regression);
//  - concurrent submits and cancels while add_shard/drain_shard run
//    mid-flight stay coherent. The whole file must be TSan-clean (CI
//    runs it under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
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
constexpr usize kBlockBytes = 256;  // rpb: u64 = 32
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

/// Submits a job pinned to `shard` with the given memory carve that holds
/// its worker (in the completion callback) until `release` is set, and
/// blocks until it is running.
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

/// Submits a u64 job whose callback verifies sortedness and counts its
/// own invocations — the "zero lost or duplicated jobs" probe: exactly
/// one callback per kDone job, zero per anything else.
JobId submit_counted(Cluster& cluster, SortJobSpec spec,
                     std::vector<u64> data,
                     std::shared_ptr<std::atomic<int>> runs,
                     std::atomic<int>& bad) {
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  return cluster.submit<u64>(
      std::move(spec), std::move(data), std::less<u64>{},
      [expected = std::move(expected), runs,
       &bad](const SortResult<u64>& res) {
        ++*runs;
        if (res.output.read_all() != expected) ++bad;
      });
}

/// Asserts the two-level exact-sum I/O invariant over a drained cluster:
/// per-job deltas sum to each shard's totals (live shards via jobs(),
/// retired shards via the cluster-held records of `ids`), and per-shard
/// totals sum to the cluster totals.
void expect_two_level_invariant(Cluster& cluster,
                                const std::vector<JobId>& ids) {
  const ClusterStats st = cluster.stats();
  std::vector<IoStats> sums(st.shards);
  for (auto& s : sums) s.reset(kDisksPerShard);
  std::set<u32> retired;
  for (usize s = 0; s < st.shards; ++s) {
    if (cluster.shard_active(static_cast<u32>(s))) {
      for (const JobInfo& j : cluster.shard(s).jobs()) {
        sums[s].read_ops += j.io.read_ops;
        sums[s].write_ops += j.io.write_ops;
        sums[s].blocks_read += j.io.blocks_read;
        sums[s].blocks_written += j.io.blocks_written;
      }
    } else {
      retired.insert(static_cast<u32>(s));
    }
  }
  // Retired shards' records live at cluster level now; their JobInfo
  // still names the serving shard.
  for (JobId id : ids) {
    const JobInfo j = cluster.info(id);
    if (retired.count(j.shard) == 0) continue;
    sums[j.shard].read_ops += j.io.read_ops;
    sums[j.shard].write_ops += j.io.write_ops;
    sums[j.shard].blocks_read += j.io.blocks_read;
    sums[j.shard].blocks_written += j.io.blocks_written;
  }
  IoStats shard_sum;
  shard_sum.reset(0);
  for (usize s = 0; s < st.shards; ++s) {
    EXPECT_EQ(sums[s].read_ops, st.per_shard[s].io.read_ops) << "shard " << s;
    EXPECT_EQ(sums[s].write_ops, st.per_shard[s].io.write_ops)
        << "shard " << s;
    EXPECT_EQ(sums[s].blocks_read, st.per_shard[s].io.blocks_read)
        << "shard " << s;
    EXPECT_EQ(sums[s].blocks_written, st.per_shard[s].io.blocks_written)
        << "shard " << s;
    shard_sum.read_ops += st.per_shard[s].io.read_ops;
    shard_sum.write_ops += st.per_shard[s].io.write_ops;
    shard_sum.blocks_read += st.per_shard[s].io.blocks_read;
    shard_sum.blocks_written += st.per_shard[s].io.blocks_written;
  }
  EXPECT_EQ(shard_sum.read_ops, st.io.read_ops);
  EXPECT_EQ(shard_sum.write_ops, st.io.write_ops);
  EXPECT_EQ(shard_sum.blocks_read, st.io.blocks_read);
  EXPECT_EQ(shard_sum.blocks_written, st.io.blocks_written);
}

// ---------------------------------------------------------------------
// Scripted scale-out and drain under load (tentpole acceptance).
// ---------------------------------------------------------------------

/// Runs every dataset once on a static 1-shard cluster (same per-shard
/// geometry) and returns the per-dataset pass counts: the
/// static-topology baseline elastic runs are pinned to.
std::vector<double> baseline_passes(
    const std::vector<std::vector<u64>>& datasets) {
  ClusterConfig cfg;
  cfg.shards = 1;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  std::vector<double> passes;
  for (const auto& d : datasets) {
    const JobInfo info =
        cluster.wait(cluster.submit<u64>(spec_of("base"), d));
    EXPECT_EQ(info.state, JobState::kDone);
    passes.push_back(info.report.passes);
  }
  return passes;
}

TEST(ClusterScenarios, ScaleOutTwoToFourUnderLoad)
{
  Rng rng(31);
  std::vector<std::vector<u64>> datasets;
  for (int j = 0; j < 20; ++j) {
    datasets.push_back(
        make_keys((static_cast<usize>(j) % 3 + 1) * 2 * kMem,
                  Dist::kPermutation, rng));
  }
  const std::vector<double> base = baseline_passes(datasets);

  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 50),
                  cfg);
  std::vector<JobId> ids;
  std::vector<std::shared_ptr<std::atomic<int>>> runs;
  std::atomic<int> bad{0};
  auto feed = [&](int from, int to) {
    for (int j = from; j < to; ++j) {
      runs.push_back(std::make_shared<std::atomic<int>>(0));
      ids.push_back(submit_counted(
          cluster,
          spec_of("job" + std::to_string(j),
                  "tenant-" + std::to_string(j % 5)),
          datasets[static_cast<usize>(j)], runs.back(), bad));
    }
  };
  // First half lands on the 2-shard topology and backs up...
  feed(0, 10);
  // ...then the cluster scales out live: the new shards join the active
  // set and immediately take parked backlog.
  const u32 s2 = cluster.add_shard();
  const u32 s3 = cluster.add_shard();
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(s3, 3u);
  feed(10, 20);
  cluster.drain();

  for (usize j = 0; j < ids.size(); ++j) {
    const JobInfo info = cluster.wait(ids[j]);
    ASSERT_EQ(info.state, JobState::kDone) << info.error;
    // Placement (elastic or not) must not change a job's I/O complexity.
    EXPECT_DOUBLE_EQ(info.report.passes, base[j]) << "job " << j;
    EXPECT_EQ(runs[j]->load(), 1) << "job " << j << " ran != once";
  }
  EXPECT_EQ(bad.load(), 0);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.shards, 4u);
  EXPECT_EQ(st.active, 4u);
  EXPECT_EQ(st.shards_added, 2u);
  EXPECT_EQ(st.completed, 20u);
  EXPECT_EQ(st.submitted, 20u);
  ASSERT_EQ(st.jobs_per_shard.size(), 4u);
  // The scale-out actually absorbed load.
  EXPECT_GT(st.jobs_per_shard[2] + st.jobs_per_shard[3], 0u);
  u64 placed = 0;
  for (u64 per : st.jobs_per_shard) placed += per;
  EXPECT_EQ(placed, 20u);
  expect_two_level_invariant(cluster, ids);
}

TEST(ClusterScenarios, DrainLoadedShardRunsItsAcceptedJobsThere)
{
  Rng rng(32);
  std::vector<std::vector<u64>> datasets;
  for (int j = 0; j < 16; ++j) {
    datasets.push_back(make_keys(2 * kMem, Dist::kPermutation, rng));
  }
  const std::vector<double> base = baseline_passes(datasets);

  ClusterConfig cfg;
  cfg.shards = 4;
  cfg.shard.workers = 2;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 100),
                  cfg);
  std::vector<JobId> ids;
  std::vector<std::shared_ptr<std::atomic<int>>> runs;
  std::atomic<int> bad{0};
  // 16 jobs for 8 workers: every shard is busy and half the jobs park.
  for (int j = 0; j < 16; ++j) {
    runs.push_back(std::make_shared<std::atomic<int>>(0));
    ids.push_back(submit_counted(cluster, spec_of("job" + std::to_string(j)),
                                 datasets[static_cast<usize>(j)],
                                 runs.back(), bad));
  }
  // The jobs shard 1 has accepted so far (running or about to start).
  std::set<JobId> accepted;
  for (JobId id : ids) {
    if (cluster.shard_of(id) == 1) accepted.insert(id);
  }
  EXPECT_FALSE(accepted.empty());
  // A waiter blocked on the last job (parked) follows it to whichever
  // shard it is dispatched to.
  std::thread waiter([&] {
    const JobInfo info = cluster.wait(ids.back());
    EXPECT_EQ(info.state, JobState::kDone);
  });
  // Retire shard 1 under load: it leaves the active set, finishes what it
  // accepted, and its records move to cluster storage.
  cluster.drain_shard(1);
  EXPECT_FALSE(cluster.shard_active(1));
  EXPECT_EQ(cluster.active_shards().size(), 3u);
  waiter.join();
  // New submissions keep flowing without touching the retired slot.
  runs.push_back(std::make_shared<std::atomic<int>>(0));
  ids.push_back(submit_counted(cluster, spec_of("after"), datasets[0],
                               runs.back(), bad));
  EXPECT_NE(cluster.shard_of(ids.back()), 1u);
  cluster.drain();

  usize on_retired = 0;
  for (usize j = 0; j < ids.size(); ++j) {
    const JobInfo info = cluster.wait(ids[j]);
    ASSERT_EQ(info.state, JobState::kDone) << info.error;
    EXPECT_EQ(runs[j]->load(), 1) << "job " << j << " ran != once";
    EXPECT_DOUBLE_EQ(info.report.passes, base[j % base.size()])
        << "job " << j;
    if (info.shard == 1) ++on_retired;
    // Every job shard 1 had accepted ran there.
    if (accepted.count(ids[j]) != 0) {
      EXPECT_EQ(info.shard, 1u) << "job " << j;
    }
  }
  EXPECT_GE(on_retired, accepted.size());
  EXPECT_EQ(bad.load(), 0);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.shards, 4u);
  EXPECT_EQ(st.active, 3u);
  EXPECT_EQ(st.shards_drained, 1u);
  EXPECT_EQ(st.completed, 17u);
  EXPECT_EQ(st.submitted, 17u);
  EXPECT_EQ(st.jobs_per_shard[1], on_retired);
  expect_two_level_invariant(cluster, ids);
  // The retired slot is inert: placement never picks it and its handle
  // throws.
  EXPECT_THROW(cluster.shard(1), Error);
}

TEST(ClusterScenarios, ClusterRecordRetentionBoundsDrainHistory)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.shard.workers = 1;
  cfg.retain_cluster_records_max = 2;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(34);
  // Pinned to shard 1: all five jobs run (and leave records) there, so
  // the drain moves five records into cluster storage.
  std::vector<JobId> ids;
  for (int j = 0; j < 5; ++j) {
    SortJobSpec s = spec_of("r" + std::to_string(j));
    s.target_shard = 1;
    ids.push_back(cluster.submit<u64>(
        s, make_keys(2 * kMem, Dist::kPermutation, rng)));
  }
  cluster.drain();
  for (JobId id : ids) {
    EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
    EXPECT_EQ(cluster.shard_of(id), 1u);
  }
  // Retirement moves the 5 records into cluster-held storage, where the
  // FIFO cap keeps only the newest 2; evicted ids throw like shard-side
  // retention eviction always has.
  cluster.drain_shard(1);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.cluster_records, 2u);
  EXPECT_EQ(cluster.info(ids[4]).state, JobState::kDone);
  EXPECT_THROW(cluster.info(ids[0]), Error);
  EXPECT_FALSE(cluster.forget(ids[0]));
  EXPECT_TRUE(cluster.forget(ids[4]));
}

// ---------------------------------------------------------------------
// Hold queue + work stealing (satellite: starvation regression).
// ---------------------------------------------------------------------

TEST(ClusterScenarios, IdleShardsStealHeldBacklogInEdfOrder)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 200),
                  cfg);
  Rng rng(33);
  // Saturate shard 0: a large carve holds half its budget while the job
  // occupies its only worker until the end of the test — the ROADMAP
  // admission-aging hazard at cluster scope. Shard 1 is busy too, with
  // a larger carve, so shard 0 reads as the lighter shard and is the
  // home of everything submitted next.
  std::promise<void> release_big;
  std::promise<void> release_blocker;
  const usize limit = cluster.shard(0).budget().limit();
  const JobId big_id = hold_shard(cluster, 0, limit / 2,
                                  release_big.get_future().share(), rng);
  const JobId blocker = hold_shard(cluster, 1, limit / 10 * 6,
                                   release_blocker.get_future().share(), rng);
  // A small-job stream, submitted in an order that inverts the
  // EDF-within-priority order.
  std::mutex order_mu;
  std::vector<std::string> order;
  auto tracked = [&](std::string name, int priority, double deadline_s) {
    SortJobSpec s = spec_of(name, "", priority);
    s.deadline_s = deadline_s;
    return cluster.submit<u64>(
        std::move(s), make_keys(kMem, Dist::kUniform, rng),
        std::less<u64>{},
        [&order, &order_mu, name](const SortResult<u64>&) {
          std::lock_guard g(order_mu);
          order.push_back(name);
        });
  };
  std::vector<JobId> smalls;
  smalls.push_back(tracked("p0-late", 0, 0));
  smalls.push_back(tracked("p0-loose", 0, 60.0));
  smalls.push_back(tracked("p0-tight", 0, 30.0));
  smalls.push_back(tracked("p1-loose", 1, 60.0));
  smalls.push_back(tracked("p1-tight", 1, 30.0));
  // All five parked: no shard has a free worker.
  EXPECT_EQ(cluster.stats().held_now, 5u);
  // Shard 1 frees up; shard 0 stays saturated. The backlog does not wait
  // for its home: shard 1 steals it, one job at a time, in queue order.
  release_blocker.set_value();
  for (JobId id : smalls) {
    EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
    EXPECT_EQ(cluster.shard_of(id), 1u);
  }
  release_big.set_value();
  cluster.drain();
  EXPECT_EQ(cluster.wait(big_id).state, JobState::kDone);
  EXPECT_EQ(cluster.wait(blocker).state, JobState::kDone);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.stolen, 5u);
  EXPECT_EQ(st.held_total, 5u);
  // EDF within priority bands, priority first — the hold queue's
  // dispatch order, serialized by shard 1's single worker.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "p1-tight");
  EXPECT_EQ(order[1], "p1-loose");
  EXPECT_EQ(order[2], "p0-tight");
  EXPECT_EQ(order[3], "p0-loose");
  EXPECT_EQ(order[4], "p0-late");
}

// ---------------------------------------------------------------------
// Concurrent elasticity stress (satellite: TSan).
// ---------------------------------------------------------------------

TEST(ClusterScenarios, StressSubmitsAndCancelsDuringTopologyChanges)
{
  ClusterConfig cfg;
  cfg.shards = 3;
  cfg.shard.workers = 2;
  cfg.shard.total_memory_bytes = usize{32} << 20;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 20),
                  cfg);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 24;
  std::atomic<int> bad{0};
  std::atomic<u64> cancelled_true{0};
  std::mutex ids_mu;
  std::vector<JobId> ids;
  std::vector<std::shared_ptr<std::atomic<int>>> runs;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(100 + static_cast<u64>(t));
      for (int j = 0; j < kPerThread; ++j) {
        auto r = std::make_shared<std::atomic<int>>(0);
        const u64 n = (1 + static_cast<u64>(j % 3)) * kMem;
        // std::string first: GCC 12 reports a false -Wrestrict for a
        // literal + std::string&& here once the sorters inline around it.
        JobId id = submit_counted(
            cluster,
            spec_of(std::string("s") + std::to_string(t) + "-" +
                        std::to_string(j),
                    "tenant-" + std::to_string((t + j) % 7), j % 2),
            make_keys(static_cast<usize>(n), Dist::kUniform, rng), r, bad);
        std::lock_guard g(ids_mu);
        ids.push_back(id);
        runs.push_back(std::move(r));
      }
    });
  }
  std::thread canceller([&] {
    // Distinct victims only: cancelling a running job twice truthfully
    // returns true both times (both calls promise kCancelled), which
    // would double-count against the stats below.
    std::set<JobId> tried;
    for (int k = 0; k < 30; ++k) {
      JobId victim = 0;
      {
        std::lock_guard g(ids_mu);
        if (!ids.empty()) {
          victim = ids[static_cast<usize>(k * 7) % ids.size()];
        }
      }
      if (victim != 0 && tried.insert(victim).second &&
          cluster.cancel(victim)) {
        ++cancelled_true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // Topology churn mid-flight: grow to 4, retire shard 1, grow again.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const u32 added1 = cluster.add_shard();
  cluster.drain_shard(1);
  const u32 added2 = cluster.add_shard();
  for (auto& th : submitters) th.join();
  canceller.join();
  cluster.drain();

  EXPECT_EQ(added1, 3u);
  EXPECT_EQ(added2, 4u);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.shards, 5u);
  EXPECT_EQ(st.active, 4u);
  EXPECT_EQ(st.submitted, static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.rejected,
            st.submitted);
  EXPECT_EQ(st.cancelled, cancelled_true.load());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(bad.load(), 0);
  // No job lost, none run twice: exactly one callback per completed
  // job; a cancelled job may have 0 or 1 (cancel() may land between the
  // sort's last checkpoint and its commit — the work is discarded and
  // the job still reports kCancelled, as the service documents); never
  // more than one anywhere.
  u64 total_runs = 0;
  u64 cancelled_after_callback = 0;
  for (usize j = 0; j < ids.size(); ++j) {
    const int r = runs[j]->load();
    ASSERT_LE(r, 1) << "job " << ids[j] << " ran twice";
    total_runs += static_cast<u64>(r);
    const JobInfo info = cluster.info(ids[j]);
    if (info.state == JobState::kDone) {
      EXPECT_EQ(r, 1) << "completed job " << ids[j] << " lost its callback";
    } else if (info.state == JobState::kCancelled) {
      cancelled_after_callback += static_cast<u64>(r);
    } else {
      EXPECT_EQ(r, 0) << "job " << ids[j] << " in state "
                      << job_state_name(info.state) << " ran";
    }
  }
  EXPECT_EQ(total_runs, st.completed + cancelled_after_callback);
  // The drained shard ended with zero jobs: its final snapshot balances
  // (everything it ever admitted reached a terminal state there)...
  const ServiceStats& retired = st.per_shard[1];
  EXPECT_EQ(retired.submitted, retired.completed + retired.failed +
                                   retired.cancelled + retired.rejected);
  // ...and the two-level accounting invariant holds across the
  // retirement.
  expect_two_level_invariant(cluster, ids);
}

}  // namespace
}  // namespace pdm
