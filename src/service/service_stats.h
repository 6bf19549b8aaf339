// Aggregated serving metrics: the queue-latency and throughput figures a
// capacity planner actually reads, maintained incrementally at job
// terminal transitions (stats() is O(1) in the number of retained jobs;
// per-job snapshots are a separate jobs() call).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "service/sort_job.h"

namespace pdm {

struct ServiceStats {
  u32 shard_id = 0;

  /// Lifetime counters: these survive forget() and retention eviction
  /// (they are bumped once when a job reaches its terminal state).
  u64 submitted = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 cancelled = 0;
  u64 rejected = 0;
  u64 deadline_missed = 0;
  u64 batches_run = 0;  // worker tasks run (one job each)

  /// Terminal job records currently held (inspectable via jobs()/info());
  /// evicted counts records dropped by the retention policy (not by an
  /// explicit forget()).
  u64 retained = 0;
  u64 evicted = 0;

  u64 plan_cache_hits = 0;
  u64 plan_cache_misses = 0;

  /// Wall-clock calibration of the deadline-admission estimate: EMA of
  /// observed run seconds over model-predicted seconds across completed
  /// jobs (0 = no samples yet, estimates taken at face value). >1 means
  /// the backend is slower than the CostModel believes.
  double deadline_cal = 0;

  /// Queue-latency distribution over the service's LIFETIME (every job
  /// that went kDone/kFailed), from a log-bucketed histogram: p50/p99 are
  /// within the bucket resolution (~6%), max is exact and can never be
  /// evicted by later samples.
  double queue_p50_s = 0;
  double queue_p99_s = 0;
  double queue_max_s = 0;

  /// Completed jobs divided by the busy window (first start to last end).
  double jobs_per_sec = 0;
  double busy_window_s = 0;

  /// Peak of the service-wide budget (sum of concurrent reservations).
  usize peak_memory_bytes = 0;

  /// Live service-wide I/O totals; per-job `JobInfo::io` deltas sum to
  /// these exactly (see SharedIoTotals).
  IoStats io;
};

/// Instantaneous load of one service, cheap enough to poll per placement
/// decision: what a cluster weighs shards by.
struct ShardLoad {
  u32 shard = 0;
  usize queued = 0;          // jobs waiting for a worker
  usize running = 0;         // worker tasks in flight
  usize reserved_bytes = 0;  // carves of running and queued jobs
  usize budget_limit = 0;    // the shard's total memory budget
  usize depth_in_use = 0;    // granted async pipeline depth
  usize cpu_in_use = 0;      // granted kernel threads (CPU arbiter)
  usize cpu_total = 0;       // the shard's cpu_threads_total budget
  usize workers = 0;         // the shard's worker-pool size

  /// Scalar used to compare shards: in-flight work plus the reserved
  /// memory fraction, so a shard with free workers but a nearly-exhausted
  /// budget still reads as loaded.
  double score() const {
    const double mem = budget_limit == 0
                           ? 0.0
                           : static_cast<double>(reserved_bytes) /
                                 static_cast<double>(budget_limit);
    return static_cast<double>(queued + running) + mem;
  }

  /// Admission-headroom probe: could the shard start a job with this
  /// memory carve right now — a free worker AND room in the budget? The
  /// cluster hold queue parks jobs that fail this and lets shards that
  /// pass it steal them, instead of burying the job in a hot shard's
  /// local queue.
  bool fits_now(usize carve) const {
    return queued + running < workers &&
           reserved_bytes + carve <= budget_limit;
  }
};

/// q-quantile (q in [0,1]) of a sample by the nearest-rank method.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<usize>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

}  // namespace pdm
