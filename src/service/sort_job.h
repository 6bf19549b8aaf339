// Job-facing types of the sort service: the submission spec, the job
// lifecycle states, the per-job execution environment handed to the typed
// closure, and the shared plan cache that coalesces planner work across
// jobs with the same (N, M, B, alpha) shape.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "core/adaptive.h"
#include "core/sort_report.h"
#include "pdm/pdm_context.h"

namespace pdm {

using JobId = u64;

enum class JobState {
  kQueued,     // accepted, waiting for a worker + memory reservation
  kRunning,    // executing on a worker
  kDone,       // completed; report and output callback delivered
  kFailed,     // threw (infeasible plan, I/O error, budget bug)
  kCancelled,  // cancelled while still queued
  kRejected,   // admission control: can never be staged in this service
};

inline const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

inline bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled || s == JobState::kRejected;
}

/// What a tenant submits alongside its dataset.
struct SortJobSpec {
  std::string name;

  /// The M records the planner budgets this job with (required, > 0).
  /// The service carves `carve_bytes` (or SortService::kMemSlack * M *
  /// record size) out of its memory budget before the job may start.
  u64 mem_records = 0;

  /// Higher priorities are admitted first; FIFO within a priority.
  int priority = 0;

  /// w.h.p. exponent for the expected-pass algorithms.
  double alpha = 1.0;

  /// Deadline in seconds from submission; 0 = none. Within a priority
  /// band the queue orders deadlined jobs first (earliest deadline first,
  /// then FIFO); misses are counted in the stats, and with
  /// ServiceConfig::deadline_admission a job whose deadline is already
  /// unmeetable under the planned pass count and queue state is rejected
  /// at submission. A deadline too far out for the clock (+inf included)
  /// orders like none; NaN is rejected at submission.
  double deadline_s = 0;

  /// Explicit memory carve override in bytes; 0 derives it from
  /// mem_records and the record size (see SortService::admission_carve).
  usize carve_bytes = 0;

  /// Tenant handle (a tenant id, a dataset name) for the per-tenant
  /// metrics (`tenant.<key>.*` in the metrics registry). Placement does
  /// not read it. Empty = no per-tenant accounting.
  std::string locality_key;

  /// Hard placement pin for cluster serving: kAnyShard (default) lets the
  /// cluster's placement rule choose; any other value makes that shard the
  /// job's home — it may still park in the hold queue until the shard has
  /// headroom, but it is never stolen elsewhere. A pinned job whose shard
  /// can never admit it is rejected cluster-wide; a pin whose target has
  /// been drained dissolves back to the placement rule. Used by
  /// Cluster::submit_distributed to keep each key range on the shard its
  /// splitter assignment chose.
  static constexpr u32 kAnyShard = 0xffffffffu;
  u32 target_shard = kAnyShard;

  /// Job-scoped causal trace id (pdm::jobtrace). 0 = unassigned: the first
  /// admission point that sees the job (cluster submit, or the service for
  /// standalone submissions) mints one. Distributed range sub-jobs carry
  /// the coordinator-minted id here plus the parent distributed job's id
  /// in parent_trace_id, so one Chrome trace reconstructs the whole causal
  /// tree by id alone.
  u64 trace_id = 0;
  u64 parent_trace_id = 0;

  /// Opt-in order-adaptive planning: before staging, the service probes
  /// the in-memory payload for presortedness (O(M) sampled comparisons,
  /// zero I/O) and hands the run-count estimate to the plan cache; a
  /// near-sorted payload then plans the one-pass order-adaptive sort.
  /// Off by default — the probe-less plan is byte-identical to history.
  bool order_adaptive = false;
};

/// Snapshot of one job for stats/introspection.
struct JobInfo {
  JobId id = 0;
  u32 shard = 0;  // ServiceConfig::shard_id of the serving shard
  std::string name;
  JobState state = JobState::kQueued;
  u64 n = 0;
  int priority = 0;
  std::string algorithm;  // planner's pick, once known
  std::string error;      // set for kFailed / kRejected
  SortReport report;      // valid when state == kDone
  IoStats io;             // whole-job I/O: staging + sort + callbacks
  double queue_s = 0;     // submit -> start (or cancel)
  double run_s = 0;       // start -> terminal (running: elapsed so far)
  bool deadline_missed = false;
  u64 trace_id = 0;         // jobtrace id (0 if flight/trace disabled it)
  u64 parent_trace_id = 0;  // distributed parent, for range sub-jobs
};

/// Caches AdaptiveSorter decisions by shape so a fleet of jobs sharing a
/// record type (and hence B) costs one planner invocation per distinct
/// (N, M, B, alpha) instead of one per job.
class PlanCache {
 public:
  /// Full plan entry for the shape (algorithm + expected pass count); the
  /// pass count also drives deadline admission. est_runs is the probed
  /// presortedness estimate (0 = unprobed); it is part of the cache key,
  /// so probed and unprobed submissions of the same shape never alias —
  /// admission paths that pass no estimate keep hitting the legacy
  /// entries.
  PlanEntry entry(u64 n, u64 mem, u64 rpb, double alpha, u64 est_runs = 0) {
    const Key k{n, mem, rpb, alpha, est_runs};
    {
      std::lock_guard g(mu_);
      auto it = cache_.find(k);
      if (it != cache_.end()) {
        ++hits_;
        return it->second;
      }
    }
    // Planning outside the lock: choose_plan may throw (no feasible
    // plan), which must not poison the cache or the mutex.
    const PlanEntry e = choose_plan(n, mem, rpb, alpha, est_runs);
    std::lock_guard g(mu_);
    ++misses_;
    cache_.emplace(k, e);
    return e;
  }

  Algo choose(u64 n, u64 mem, u64 rpb, double alpha, u64 est_runs = 0) {
    return entry(n, mem, rpb, alpha, est_runs).algo;
  }

  /// Cache peek that never plans: the admission path uses it to tighten
  /// memory carves for shapes whose algorithm is already known without
  /// paying a planner invocation per submission. Not counted as a hit or
  /// miss (it is a lookup, not a planning request).
  std::optional<PlanEntry> try_entry(u64 n, u64 mem, u64 rpb,
                                     double alpha) const {
    std::lock_guard g(mu_);
    auto it = cache_.find(Key{n, mem, rpb, alpha, 0});
    if (it == cache_.end()) return std::nullopt;
    return it->second;
  }

  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  using Key = std::tuple<u64, u64, u64, double, u64>;
  mutable std::mutex mu_;
  std::map<Key, PlanEntry> cache_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
};

/// A type-erased, not-yet-admitted sort job: everything a SortService
/// needs to admit, schedule and run it, independent of the record type.
/// Built by SortService::prepare<R>() (which stages the typed dataset and
/// comparator inside the closure); consumed by submit_prepared(). This is
/// the unit of mobility in the cluster: the hold queue parks PreparedJobs
/// and hands each to whichever shard starts it, without caring what R is.
struct PreparedJob {
  SortJobSpec spec;
  u64 n = 0;             // records in the dataset
  usize record_bytes = 0;
  std::function<void(struct JobExec&)> run;
};

/// Throws pdm::Error for every spec/size a service would refuse to queue
/// (the admission checks that do not depend on a shard's state): both the
/// service and the cluster call it before accepting a job, so a job the
/// cluster parks can always be handed to a shard.
inline void check_job(const SortJobSpec& spec, u64 n) {
  PDM_CHECK(spec.mem_records > 0, "SortJobSpec.mem_records must be > 0");
  PDM_CHECK(n > 0, "cannot submit an empty sort job");
  check_alpha(spec.alpha);
  // NaN compares false against everything and would scramble EDF order.
  PDM_CHECK(!std::isnan(spec.deadline_s), "SortJobSpec.deadline_s is NaN");
}

/// Absolute deadline of a job submitted at `t_submit` with `deadline_s`.
/// No deadline (<= 0), and one the clock cannot represent (+inf, or
/// anything within a second of steady_clock's end — the margin absorbs
/// the double rounding), map to time_point::max(), which orders like no
/// deadline. Converting those with duration_cast would overflow.
inline std::chrono::steady_clock::time_point deadline_at(
    std::chrono::steady_clock::time_point t_submit, double deadline_s) {
  using Clock = std::chrono::steady_clock;
  const std::chrono::duration<double> room =
      Clock::time_point::max() - t_submit;
  if (!(deadline_s > 0) || deadline_s >= room.count() - 1.0) {
    return Clock::time_point::max();
  }
  return t_submit + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(deadline_s));
}

/// Execution environment the service hands to a job's typed closure: the
/// per-job context (budget carved, async depth granted, stats isolated),
/// the budgeted M, and the shared plan cache. The closure deposits its
/// SortReport here.
struct JobExec {
  PdmContext& ctx;
  u64 mem_records;
  double alpha;
  PlanCache& plans;
  SortReport report;
};

}  // namespace pdm
