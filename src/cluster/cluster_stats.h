// Cluster-wide serving metrics: per-shard ServiceStats rolled up into
// cluster totals, plus the placement figures (per-shard job counts,
// parks, steals, imbalance) that the cluster benches gate on.
//
// The exact-sum invariant composes across the layers: within a shard,
// per-job IoStats deltas sum exactly to that shard's SharedIoTotals
// (PR 2's invariant); here, the per-shard totals sum exactly to
// ClusterStats::io — nothing double-counted, nothing lost, at either
// level. tests/cluster_test.cpp asserts both under a concurrent stress.
#pragma once

#include <vector>

#include "service/service_stats.h"

namespace pdm {

struct ClusterStats {
  usize shards = 0;  // slots ever created, retired ones included
  usize active = 0;  // currently active (placeable) shards

  /// Sums of the per-shard lifetime counters (live shards at their
  /// current values, retired shards at their final snapshot), plus the
  /// cluster-side hold-queue terminals — so submitted always equals
  /// completed + failed + cancelled + rejected + still-live jobs.
  u64 submitted = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 cancelled = 0;
  u64 rejected = 0;
  u64 deadline_missed = 0;
  u64 retained = 0;
  u64 batches_run = 0;  // worker tasks run (one job each)

  /// Hold queue + work stealing: jobs currently parked; jobs that did not
  /// dispatch during their own submit (they waited in the queue); jobs
  /// cancelled or rejected in the hold queue, before reaching a shard (a
  /// reject: no active shard's budget could hold the job, or the pump's
  /// deadline check; these are part of `rejected`); and jobs dispatched
  /// to a shard other than their home.
  u64 held_now = 0;
  u64 held_total = 0;
  u64 held_cancelled = 0;
  u64 held_rejected = 0;
  /// Subset of held_rejected: jobs rejected by the pump's deadline
  /// admission check (calibrated run estimate exceeded the remaining
  /// deadline budget, so dispatch could only have produced a late job).
  u64 held_rejected_deadline = 0;
  u64 stolen = 0;

  /// Elasticity: lifetime topology changes. cluster_records counts
  /// terminal records held at cluster level (retired shards' jobs +
  /// hold-queue terminals), included in `retained`.
  u64 shards_added = 0;
  u64 shards_drained = 0;
  u64 cluster_records = 0;

  /// Distributed sample-sorts (submit_distributed). Coordinators are not
  /// jobs — `submitted` etc. count their per-range sub-jobs, these count
  /// whole distributed sorts. dist_range_records / dist_skew describe
  /// the most recently finished one (per-range record counts after
  /// feasibility rounding; skew = max/mean of the splitter partition —
  /// 1.0 is perfect balance); dist_skew_max is the lifetime worst.
  u64 distributed_jobs = 0;
  u64 distributed_active = 0;
  u64 distributed_completed = 0;
  u64 distributed_cancelled = 0;
  u64 distributed_failed = 0;
  std::vector<u64> dist_range_records;
  double dist_skew = 0;
  double dist_skew_max = 0;

  /// Exact sum of the per-shard SharedIoTotals snapshots.
  IoStats io;

  /// Sum of per-shard peak reservations (shards peak independently).
  usize peak_memory_bytes = 0;

  /// Completed jobs over the widest per-shard busy window: a cluster-level
  /// throughput figure (shards run concurrently, so the max window is the
  /// cluster's busy time up to skew in shard start times).
  double jobs_per_sec = 0;

  /// Jobs dispatched to each shard, and the resulting imbalance ratios
  /// (max/mean; 1.0 = perfectly even, higher = hotter hot shard). I/O
  /// imbalance weighs by blocks moved, so a shard stuck with all the big
  /// jobs shows up even when job counts look even.
  std::vector<u64> jobs_per_shard;
  double job_imbalance = 0;
  std::vector<u64> blocks_per_shard;
  double io_imbalance = 0;

  /// Full per-shard snapshots, indexed by shard.
  std::vector<ServiceStats> per_shard;
};

/// max/mean of a non-negative sample; 0 when the sample is empty or all
/// zero (no traffic = no imbalance to speak of).
inline double imbalance_ratio(const std::vector<u64>& xs) {
  if (xs.empty()) return 0;
  u64 max = 0;
  u64 sum = 0;
  for (u64 x : xs) {
    max = std::max(max, x);
    sum += x;
  }
  if (sum == 0) return 0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(xs.size());
  return static_cast<double>(max) / mean;
}

}  // namespace pdm
