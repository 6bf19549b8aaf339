// pdm::Cluster — elastic sharded multi-context serving.
//
// One SortService is one machine's worth of shared resources: one disk
// array, one memory budget, one worker pool. A Cluster owns N such shards
// — each with its own DiskBackend (stamped out by a BackendFactory), its
// own DiskAllocator, MemoryBudget and workers — behind a ShardRouter that
// places incoming jobs by policy (round-robin / power-of-two-choices
// least-loaded / consistent-hash locality ring). Shards share nothing, so
// jobs on different shards never contend for disks, allocator cursors,
// budget or the service mutex; routing multiplies jobs/sec while every
// job's pass count stays exactly its single-shard value (the paper's
// bounds are per-array properties — see bench_e16_cluster_routing).
//
// Elasticity: the topology is live. add_shard() stamps out a fresh
// SortService through the retained BackendFactory and inserts it into
// the router (the consistent-hash ring means only ~1/N locality keys
// remap to it). drain_shard(id) retires a shard without losing a job:
// placement stops, in-flight submissions settle, still-queued jobs are
// extracted (their shard records go kMigrated) and re-parked in the
// cluster hold queue for the surviving shards, running jobs finish, and
// the shard's terminal records and final stats move into cluster-held
// storage before the service is destroyed. Shard ids are slot indices
// and are never reused.
//
// Hold queue + work stealing: a job whose placed shard cannot admit it
// *right now* (no free worker or no memory headroom — ShardLoad::
// fits_now) parks in a cluster-level queue ordered priority-desc /
// EDF / FIFO instead of burying itself in the hot shard's local queue.
// Every time any shard finishes a task it pumps the queue (SortService
// capacity callback): the head jobs go to their home shard if it now
// has headroom, else the least-loaded other shard that can ever fit
// them steals them. Overflow spill (a job whose carve can NEVER fit its
// preferred shard) still rescans for a fitting shard at placement, and
// jobs no active shard can ever admit are rejected.
//
// Job ids are cluster-global; wait/info/cancel/forget proxy to the
// owning shard, follow migrations, and fall back to cluster-held records
// for retired shards and hold-queue terminals. ClusterStats rolls the
// per-shard ServiceStats (live and retired) up into cluster totals with
// the same exact-sum I/O invariant the service established, plus
// per-shard imbalance and elasticity figures the benches gate on.
//
// One giant sort: submit_distributed<R>() sorts a dataset no single
// shard could hold at one shard's wall clock divided by ~P. Sampled
// splitters partition the input into P contiguous key ranges
// (range_partition.h), each range is pinned to a shard
// (SortJobSpec::target_shard) and submitted through the normal
// hold-queue/placement path, each shard sorts its range locally at its
// paper-bound pass count, the sorted ranges are exported over the extent
// layer (extent_exchange.h) and concatenated in splitter order by a
// per-job coordinator thread. While any range is in flight its shard is
// fenced: drain_shard() on it throws (the graceful-shrink guard);
// add_shard() mid-sort is always safe — ranges were already placed, the
// newcomer just serves other traffic. cancel() on the distributed id
// cancels every range sub-job.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_stats.h"
#include "cluster/distributed_sort.h"
#include "cluster/range_partition.h"
#include "cluster/shard_router.h"
#include "pdm/backend_factory.h"
#include "pdm/extent_exchange.h"
#include "service/sort_service.h"
#include "util/introspect.h"
#include "util/jobtrace.h"
#include "util/trace.h"

namespace pdm {

struct ClusterConfig {
  usize shards = 2;

  /// Template for every shard. workers / total_memory_bytes /
  /// io_depth_total are PER SHARD: a cluster on the same aggregate
  /// hardware as one big service divides them by the shard count.
  /// (ServiceConfig::shard_id is overwritten with the shard index.)
  /// add_shard() without an explicit config also clones this template.
  ServiceConfig shard;

  /// Optional per-shard overrides (size must equal `shards` when
  /// non-empty): heterogeneous clusters, e.g. one big-memory shard.
  std::vector<ServiceConfig> shard_configs;

  /// Placement policy. Whatever the policy, sticky spill-back applies:
  /// after ShardRouter::kSpillPromoteAfter consecutive overflow spills of
  /// one locality key, the router pins the key to its latest spill target
  /// instead of re-scanning every submission; the target becomes the
  /// tenant's new preferred shard until it, too, stops fitting (which
  /// re-pins on the next spill) or is drained (which dissolves the pin).
  RoutePolicy policy = RoutePolicy::kLeastLoaded;

  /// Retention for cluster-held terminal records (retired shards' jobs
  /// and hold-queue terminals): keep at most this many, FIFO-evicted
  /// (0 = unbounded, matching ServiceConfig::retain_terminal_max).
  /// Lookups of an evicted id throw, exactly like shard-side retention.
  usize retain_cluster_records_max = 0;

  /// Cluster hold queue with work stealing: park jobs their placed shard
  /// lacks the headroom to start now and let other shards steal them
  /// (see the class comment). Off restores strict PR 3 placement —
  /// every job queues on the shard the router picked, however hot.
  /// Drain-time migration uses the queue regardless (migrated jobs
  /// dispatch as soon as any shard can take them).
  bool hold_queue = true;
};

class Cluster {
 public:
  /// Calls `make_backend(shard)` once per shard (and again for every
  /// add_shard); shards start their workers immediately.
  Cluster(BackendFactory make_backend, ClusterConfig cfg);

  /// Destroys the shards (joining their workers). In-flight distributed
  /// jobs are joined first (their sub-jobs run to completion on the
  /// still-live shards); jobs still parked in the hold queue are then
  /// dropped — drain() first if you care.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Routes and submits a sort job (same contract as SortService::submit,
  /// plus placement). Returns a cluster-global job id immediately. Only
  /// placement and id registration serialize on the cluster mutex; a
  /// direct shard submit (the common, headroom-available case) runs
  /// outside it, so submitters scale with the shards.
  template <Record R, class Cmp = std::less<R>>
  JobId submit(SortJobSpec spec, std::vector<R> data, Cmp cmp = {},
               std::function<void(const SortResult<R>&)> on_complete = {}) {
    return submit_prepared(SortService::prepare<R>(
        std::move(spec), std::move(data), cmp, std::move(on_complete)));
  }

  /// Type-erased submission (see SortService::prepare): routing,
  /// headroom probe, hold-queue parking and id registration.
  JobId submit_prepared(PreparedJob job);

  /// One sort spanning the cluster (see the class comment): partitions
  /// `data` into contiguous key ranges by sampled splitters, pins one
  /// range per target shard, sorts each range locally with the paper's
  /// small-pass algorithms, and concatenates the results in splitter
  /// order. Returns a cluster-global id immediately; the id answers to
  /// distributed_wait / distributed_info / cancel (NOT to wait/info —
  /// those track the per-range sub-jobs, whose ids the info exposes).
  /// `on_complete`, if given, runs on the coordinator thread with the
  /// fully assembled output (empty unless the job completed). If it
  /// throws, the exception is swallowed and the job's final state
  /// becomes kFailed with the exception message as the error.
  ///
  /// Requirements: data.size() % spec.mem_records == 0 (feasibility
  /// rounding keeps every range a multiple of M so per-range plans stay
  /// within the paper's pass bounds), and every target shard must be
  /// able to admit a job of spec.mem_records (a pinned range is never
  /// spilled; an unfittable pin fails that range and the job).
  template <Record R, class Cmp = std::less<R>>
  JobId submit_distributed(
      SortJobSpec spec, std::vector<R> data, DistributedOptions opts = {},
      Cmp cmp = {},
      std::function<void(const DistributedSortResult<R>&)> on_complete = {}) {
    PDM_CHECK(!data.empty(), "submit_distributed: empty dataset");
    PDM_CHECK(spec.mem_records > 0,
              "submit_distributed: SortJobSpec.mem_records must be > 0");
    check_alpha(spec.alpha);
    const auto t0 = Clock::now();
    // The distributed job's causal id: partition/coordinate/concat spans
    // are stamped with it, and every range sub-job carries it as parent.
    if (spec.trace_id == 0) spec.trace_id = jobtrace::mint();
    jobtrace::Scope trace_scope(spec.trace_id, spec.parent_trace_id);
    const u32 ranges = opts.ranges != 0
                           ? opts.ranges
                           : static_cast<u32>(active_shards().size());
    RangePartitionStats pst;
    trace::TraceSpan part_span("cluster", "dist_partition", "ranges", ranges);
    auto parts = partition_ranges<R, Cmp>(std::span<const R>(data), ranges,
                                          opts.oversample, spec.mem_records,
                                          opts.sample_seed, cmp, &pst);
    part_span.end();
    data.clear();
    data.shrink_to_fit();
    // Registers the job and fences its target shards against drains.
    const DistBegin begun = dist_begin(spec.name, pst, spec.trace_id);
    jobtrace::FlightRecorder::instance().record(
        spec.trace_id, jobtrace::EventKind::kAdmitted, spec.name.c_str(),
        ranges);
    auto gathered = std::make_shared<std::vector<std::vector<R>>>(ranges);
    std::vector<JobId> subs(ranges, 0);
    try {
      for (u32 r = 0; r < ranges; ++r) {
        if (parts[r].empty()) continue;
        SortJobSpec rs = spec;
        rs.name = spec.name + "/range" + std::to_string(r);
        rs.target_shard = begun.targets[r];
        rs.locality_key.clear();
        // Each range is its own causal node, parented by the distributed
        // job: the sub-job's spans carry (trace_id, parent_trace_id).
        rs.trace_id = jobtrace::mint();
        rs.parent_trace_id = spec.trace_id;
        const u64 span = opts.exchange_span_blocks;
        // The completion callback runs on the range's shard worker while
        // its output run and context are alive: exporting there is the
        // only window, and each range writes a distinct slot (the
        // coordinator reads it only after wait() observes kDone).
        PreparedJob pj = SortService::prepare<R>(
            std::move(rs), std::move(parts[r]), cmp,
            [gathered, r, span](const SortResult<R>& res) {
              (*gathered)[r] = export_run<R>(res.output, span);
            });
        const JobId sub = submit_prepared(std::move(pj));
        subs[r] = sub;
        dist_set_sub(begun.id, r, sub);
      }
      dist_spawn(begun.id, [this, id = begun.id, gathered, subs,
                            cb = std::move(on_complete), t0]() mutable {
        JobState fin = JobState::kDone;
        std::string error;
        std::vector<SortReport> reports(subs.size());
        for (usize r = 0; r < subs.size(); ++r) {
          if (subs[r] == 0) continue;  // empty range, never submitted
          JobInfo ji;
          try {
            ji = wait(subs[r]);
          } catch (const Error& e) {
            fin = JobState::kFailed;
            if (error.empty()) error = e.what();
            continue;
          }
          switch (ji.state) {
            case JobState::kDone:
              reports[r] = ji.report;
              break;
            case JobState::kCancelled:
              if (fin == JobState::kDone) fin = JobState::kCancelled;
              break;
            default:  // kFailed / kRejected
              fin = JobState::kFailed;
              if (error.empty()) {
                error = ji.error.empty() ? "range sub-job failed" : ji.error;
              }
              break;
          }
        }
        DistributedSortResult<R> result;
        if (fin == JobState::kDone) {
          usize total = 0;
          for (const auto& s : *gathered) total += s.size();
          trace::TraceSpan concat_span("cluster", "dist_concat", "records",
                                       total);
          result.output.reserve(total);
          for (auto& s : *gathered) {
            result.output.insert(result.output.end(), s.begin(), s.end());
            s.clear();
            s.shrink_to_fit();
          }
        }
        result.info = dist_seal(id, fin, std::move(reports),
                                std::move(error), seconds_since(t0));
        if (cb) {
          // A throwing callback must not escape the thread (that would
          // std::terminate) or leave the fence held: it becomes the
          // job's failure and the record publishes regardless. Empty
          // reports leave the already sealed per-range reports intact.
          try {
            cb(result);
          } catch (const std::exception& e) {
            dist_seal(id, JobState::kFailed, {},
                      std::string("on_complete threw: ") + e.what(),
                      result.info.wall_s);
          } catch (...) {
            dist_seal(id, JobState::kFailed, {}, "on_complete threw",
                      result.info.wall_s);
          }
        }
        dist_publish(id);  // callback done: release fence, wake waiters
      });
    } catch (...) {
      // Registration stands but no coordinator will run (submission or
      // spawn threw, e.g. during shutdown): retire the record so the
      // fence lifts and waiters see a terminal state.
      dist_seal(begun.id, JobState::kFailed, {},
                "submit_distributed aborted before coordination", 0);
      dist_publish(begun.id);
      throw;
    }
    return begun.id;
  }

  /// Blocks until the distributed job is terminal; returns its final
  /// info (throws on unknown distributed id).
  DistributedInfo distributed_wait(JobId id);

  /// Snapshot of a distributed job, live or terminal (throws on unknown
  /// distributed id).
  DistributedInfo distributed_info(JobId id) const;

  /// Adds a live shard built from the config template (or an explicit
  /// one) and the retained BackendFactory; returns its id. The new shard
  /// joins the router — ~1/N of locality keys remap to it — and
  /// immediately steals any parked backlog it can admit.
  u32 add_shard();
  u32 add_shard(ServiceConfig sc);

  /// Retires shard `id` without losing a job: stops placements, migrates
  /// its still-queued jobs into the hold queue (they re-place on the
  /// surviving shards), lets running jobs finish, snapshots its terminal
  /// records and final stats into cluster-held storage, and destroys the
  /// service. Blocks until retirement completes. Topology changes
  /// serialize against each other; the last active shard cannot be
  /// drained. Graceful-shrink guard: throws (before any state changes)
  /// while the shard owns an in-flight distributed range — pinned ranges
  /// cannot migrate, so retire the shard after distributed_wait().
  void drain_shard(u32 id);

  bool shard_active(u32 id) const;
  std::vector<u32> active_shards() const;

  /// Blocks until the job is terminal; returns its record (JobInfo::id is
  /// the cluster id, JobInfo::shard the serving shard). Follows hold-
  /// queue parking and drain migrations to wherever the job ends up.
  /// Like the service, throws for ids whose record the shard's retention
  /// policy already dropped — size the shards' retention to cover the
  /// waiting window.
  JobInfo wait(JobId id);

  /// Snapshot of one job (throws on unknown or retention-evicted id).
  /// Held jobs read as kQueued on their placed shard.
  JobInfo info(JobId id) const;

  /// Cancels the job wherever it currently is: in the hold queue (goes
  /// terminal immediately, cluster-side), or on its shard (same
  /// semantics as SortService::cancel). Follows migrations. A
  /// distributed id cancels every still-live range sub-job; the job goes
  /// kCancelled once they settle (ranges past their last checkpoint may
  /// still finish — if ALL did, the job completes anyway).
  bool cancel(JobId id);

  /// Drops a terminal job's record — on its shard, or from cluster-held
  /// storage for retired-shard and hold-queue terminals. Also returns
  /// true (and drops the mapping) when the shard's retention policy
  /// already evicted the record; false only while the job is still
  /// queued, held or running. Distributed ids work too: a terminal
  /// distributed record is dropped (a concurrent distributed_wait then
  /// throws instead of returning it), a still-running distributed job
  /// returns false.
  bool forget(JobId id);

  /// Blocks until the hold queue is empty, every active shard is idle
  /// and every distributed job's coordinator has retired its record.
  void drain();

  ClusterStats stats() const;

  /// Text exposition of the process-global metrics registry (counters,
  /// gauges, histograms — including per-span duration histograms when
  /// tracing is on), with the cluster's hold-queue depth gauge refreshed
  /// first. One `name value` line per metric; see metrics::Registry.
  std::string metrics_text() const;

  /// One coherent live snapshot: every queued/running job with its
  /// current phase (from the flight recorder) and elapsed times, the
  /// hold queue with park reasons, per-shard loads, the count of live
  /// distributed jobs, and the metrics exposition. Safe to call at any
  /// time from any thread: shard snapshots are taken outside the cluster
  /// mutex (same lock order as stats()).
  introspect::StateDump dump_state() const;
  /// introspect::to_text(dump_state()).
  std::string introspect_text() const;

  /// Slots ever created, including retired ones (shard ids are stable).
  usize num_shards() const;
  /// The live service on an active (or draining) slot; throws for
  /// retired slots. The reference stays valid until drain_shard(i)
  /// retires the slot — do not race the two (waiters that entered via
  /// wait()/info() are safe; this raw handle is an inspection hook).
  SortService& shard(usize i);
  /// Placement/topology introspection (ring, pins, active set). The
  /// router mutates under the cluster mutex on every placement and
  /// topology change; read it only while the cluster is quiescent
  /// (tests, telemetry after drain()).
  const ShardRouter& router() const noexcept { return router_; }

  /// The shard a submitted job is currently placed on (throws on unknown
  /// id); kHeldShard while it is parked in the hold queue.
  u32 shard_of(JobId id) const;

  static constexpr u32 kHeldShard = std::numeric_limits<u32>::max();

 private:
  using Clock = std::chrono::steady_clock;

  enum class SlotState { kActive, kDraining, kRetired };

  struct Slot {
    std::shared_ptr<SortService> service;  // null once retired
    SlotState state = SlotState::kActive;
    u64 in_flight_submits = 0;  // direct submits between unlock/relock
  };

  struct Placement {
    u32 shard = kHeldShard;  // kHeldShard = parked in the hold queue
    JobId local = 0;
  };

  struct HeldJob {
    JobId id = 0;   // cluster id
    u32 home = 0;   // placed shard that lacked headroom (re-routed if
                    // the home is drained before dispatch)
    PreparedJob job;
    Clock::time_point t_submit;
    Clock::time_point deadline_abs = Clock::time_point::max();
    std::string park_reason;  // why it parked (introspection + flight ring)
  };

  u32 make_shard_locked_id();
  std::shared_ptr<SortService> make_service(u32 id, ServiceConfig sc);
  std::vector<ShardLoad> shard_loads() const;

  struct PlaceResult {
    u32 shard = 0;
    bool admissible = false;  // false: no active shard can ever fit it
    usize carve = 0;          // admission carve on `shard` (0 on reject)
  };
  PlaceResult place_locked(const SortJobSpec& spec, usize record_bytes,
                           u64 n, std::span<const ShardLoad> loads);

  /// Dispatches every held job some active shard has headroom for (in
  /// queue order; home shard first, else steal to the least-loaded
  /// fitting shard), and cluster-rejects jobs no active shard can ever
  /// admit. Called on submit-park, capacity-freed callbacks, add_shard
  /// and migration.
  void pump_locked();
  void hold_insert_locked(HeldJob h);
  void on_capacity_freed();
  /// Stores a cluster-held terminal record, FIFO-evicting past
  /// ClusterConfig::retain_cluster_records_max.
  void add_record_locked(JobId id, JobInfo rec);

  static JobInfo held_snapshot(const HeldJob& h, JobState state);
  static bool held_before(const HeldJob& a, const HeldJob& b);
  Placement placement_of(JobId id) const;
  static double seconds_since(Clock::time_point t0);

  // --- distributed jobs (submit_distributed) ---------------------------
  /// A live distributed job: the progressively filled info (range ->
  /// shard ownership in range_shards is the drain fence) plus the cancel
  /// latch for sub-jobs registered after cancel() raced submission.
  struct DistJob {
    DistributedInfo info;
    bool cancel_requested = false;
  };
  struct DistBegin {
    JobId id = 0;
    std::vector<u32> targets;  // one target shard per range
  };
  /// Registers a distributed job under a fresh cluster id: assigns each
  /// range a target from the active set (round-robin over actives) and
  /// publishes the ownership that fences those shards against drains.
  /// `trace_id` is the job's jobtrace id; the coordinator thread re-
  /// establishes it as its scope.
  DistBegin dist_begin(const std::string& name, const RangePartitionStats& pst,
                       u64 trace_id);
  /// Records a submitted range sub-job's cluster id; cancels it
  /// immediately when cancel() already hit the distributed job.
  void dist_set_sub(JobId dist, u32 range, JobId sub);
  /// Starts the coordinator thread for a registered distributed job
  /// (reaping any previously finished coordinators on the way).
  void dist_spawn(JobId dist, std::function<void()> body);
  /// Moves the threads whose bodies have finished out of dist_threads_;
  /// the caller joins them outside mu_ (the joins return immediately —
  /// a finished body has only the thread exit left).
  std::vector<std::thread> reap_dist_threads_locked();
  /// Seals a distributed job's final state + per-range reports into its
  /// live registration and returns the final info. The job stays live
  /// (fence held, distributed_wait() still blocked) until dist_publish —
  /// the coordinator runs the completion callback in between, so waiters
  /// never observe a terminal job whose callback hasn't finished.
  DistributedInfo dist_seal(JobId dist, JobState fin,
                            std::vector<SortReport> reports,
                            std::string error, double wall_s);
  /// Retires a sealed distributed job: stats roll-up, fence release;
  /// wakes distributed_wait()ers and drain().
  void dist_publish(JobId dist);
  /// cancel() for distributed ids: true when cancellation was initiated
  /// on a live job (sub-jobs already terminal may still complete).
  bool dist_cancel(JobId id);
  /// Every kPruneInterval submissions, drops mappings whose shard record
  /// is gone (forgotten or retention-evicted) so a long-lived cluster's
  /// id map stays bounded alongside the shards' own retention.
  void maybe_prune_locked();

  BackendFactory make_backend_;
  ClusterConfig cfg_;

  // mu_ is declared before the slots so it outlives the services during
  // destruction: shard workers may still call on_capacity_freed() (which
  // locks mu_ and observes stopping_) until their service joins them.
  mutable std::mutex mu_;
  // mutable: info() is a const snapshot but may briefly wait out a
  // migration race.
  mutable std::condition_variable place_cv_;
  std::mutex topo_mu_;                // serializes add_shard/drain_shard

  std::vector<Slot> slots_;
  ShardRouter router_;
  std::map<JobId, Placement> jobs_;
  /// Cluster-held terminal records: jobs cancelled or rejected out of
  /// the hold queue, and every job of a retired shard. Bounded by
  /// retain_cluster_records_max via the insertion-order FIFO (entries
  /// may be stale after forget()).
  std::map<JobId, JobInfo> records_;
  std::deque<JobId> record_fifo_;
  std::vector<HeldJob> hold_;  // sorted: priority desc, EDF, id asc
  /// Final ServiceStats snapshot of each retired slot (retained zeroed —
  /// those records live in records_ now).
  std::map<u32, ServiceStats> retired_stats_;
  /// Distributed jobs: live (coordinator running; keys fence their range
  /// shards against drain_shard) and terminal records (droppable via
  /// forget()). Coordinator threads register under a token; a finished
  /// coordinator queues its token in dist_finished_threads_ as its last
  /// cluster touch, and the next dist_spawn (or the destructor) joins
  /// and erases it — finished threads do not accumulate across a
  /// long-lived cluster's many distributed sorts.
  std::map<JobId, DistJob> dist_jobs_;
  std::map<JobId, DistributedInfo> dist_records_;
  std::map<u64, std::thread> dist_threads_;
  std::vector<u64> dist_finished_threads_;
  u64 next_dist_thread_ = 0;
  u64 dist_submitted_ = 0;
  u64 dist_completed_ = 0;
  u64 dist_cancelled_ = 0;
  u64 dist_failed_ = 0;
  std::vector<u64> dist_last_range_records_;
  double dist_last_skew_ = 0;
  double dist_max_skew_ = 0;
  JobId next_id_ = 1;
  bool stopping_ = false;
  std::vector<u64> jobs_per_shard_;
  u64 spilled_ = 0;
  u64 rejected_cluster_wide_ = 0;
  u64 held_total_ = 0;
  u64 held_cancelled_ = 0;
  u64 held_rejected_ = 0;
  u64 held_rejected_deadline_ = 0;  // subset of held_rejected_ (pump check)
  u64 stolen_ = 0;
  u64 migrated_ = 0;
  u64 shards_added_ = 0;
  u64 shards_drained_ = 0;
  u64 submits_since_prune_ = 0;
  static constexpr u64 kPruneInterval = 1024;
};

}  // namespace pdm
