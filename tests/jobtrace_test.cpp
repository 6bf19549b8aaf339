// PR 8: job-scoped causal tracing, the failure flight recorder, and live
// introspection.
//
//  - jobtrace primitives: unique non-zero ids, nested Scope save/restore
//    of the thread's (id, parent) attribution.
//  - FlightRecorder: event order, detail truncation, per-job last-K ring,
//    FIFO job-cap eviction, disabled-mode silence, and the bad-end dump
//    sink.
//  - Lifecycle coverage through the serving stack: a service job's ring
//    holds admitted -> started -> phase -> finished; a deadline-missed
//    cluster job's ring holds the full parked -> dispatched -> started ->
//    deadline_miss -> finished sequence; a stolen job records both shard
//    ids; a held job re-homed off a drained shard keeps its trace id.
//  - Distributed causal tree: every range sub-job of submit_distributed
//    carries the parent's trace id, and (tracing builds) the Chrome trace
//    reconstructs parent -> sub-job -> phase spans by id alone.
//  - The observability invariant extended to the recorder: per-job
//    IoStats and the order-sensitive schedule hash are identical with the
//    flight recorder on and off.
//  - Introspection: Cluster::dump_state()/introspect_text() see parked
//    and running jobs with trace ids; Registry::text() carries
//    trace.dropped_total and the per-tenant rollups.
//  - A TSan scenario: concurrent submit/cancel against one cluster while
//    a reader thread dumps flight rings and introspection (CI runs this
//    binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "pdm/backend_factory.h"
#include "pdm/memory_backend.h"
#include "service/sort_service.h"
#include "test_support.h"
#include "util/generators.h"
#include "util/introspect.h"
#include "util/jobtrace.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pdm {
namespace {

constexpr u64 kMem = 1024;          // per-job M in records
constexpr usize kBlockBytes = 256;  // rpb: u64=32
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

ClusterConfig cluster_cfg(usize shards, usize workers = 1) {
  ClusterConfig cfg;
  cfg.shards = shards;
  cfg.shard.workers = workers;
  cfg.shard.io_depth_total = 4;
  return cfg;
}

/// Fresh, enabled flight recorder per test; restores the default
/// (enabled, empty, no sink) on exit so tests stay independent.
struct FlightScope {
  FlightScope() {
    auto& f = jobtrace::FlightRecorder::instance();
    f.set_dump_on_bad_end(nullptr);
    f.set_enabled(true);
    f.clear();
  }
  ~FlightScope() {
    auto& f = jobtrace::FlightRecorder::instance();
    f.set_dump_on_bad_end(nullptr);
    f.set_enabled(true);
    f.clear();
  }
};

std::vector<jobtrace::EventKind> kinds_of(jobtrace::TraceId id) {
  std::vector<jobtrace::EventKind> out;
  for (const auto& ev : jobtrace::FlightRecorder::instance().events(id)) {
    out.push_back(ev.kind);
  }
  return out;
}

/// Index of the first event of `kind` in `ks`, or npos.
usize index_of(const std::vector<jobtrace::EventKind>& ks,
               jobtrace::EventKind kind) {
  for (usize i = 0; i < ks.size(); ++i) {
    if (ks[i] == kind) return i;
  }
  return static_cast<usize>(-1);
}

// --- primitives --------------------------------------------------------

TEST(JobTrace, MintIsUniqueAndScopeNestsAndRestores) {
  const auto a = jobtrace::mint();
  const auto b = jobtrace::mint();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(jobtrace::current(), 0u);
  {
    jobtrace::Scope outer(a);
    EXPECT_EQ(jobtrace::current(), a);
    EXPECT_EQ(jobtrace::current_parent(), 0u);
    {
      jobtrace::Scope inner(b, a);
      EXPECT_EQ(jobtrace::current(), b);
      EXPECT_EQ(jobtrace::current_parent(), a);
    }
    EXPECT_EQ(jobtrace::current(), a);
    EXPECT_EQ(jobtrace::current_parent(), 0u);
  }
  EXPECT_EQ(jobtrace::current(), 0u);
}

TEST(FlightRecorder, RecordsEventsInOrderWithDetailAndArgs) {
  FlightScope scope;
  auto& f = jobtrace::FlightRecorder::instance();
  const auto id = jobtrace::mint();
  f.record(id, jobtrace::EventKind::kAdmitted, "my-job", 2);
  f.record(id, jobtrace::EventKind::kPhase, "RunFormation", 4096);
  const auto evs = f.events(id);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, jobtrace::EventKind::kAdmitted);
  EXPECT_STREQ(evs[0].detail, "my-job");
  EXPECT_EQ(evs[0].arg0, 2u);
  EXPECT_EQ(evs[1].kind, jobtrace::EventKind::kPhase);
  EXPECT_LE(evs[0].ts_ns, evs[1].ts_ns);
  // The "current phase" is a kPhase's detail, not its kind name.
  EXPECT_EQ(f.last_event_name(id), "RunFormation");
  // Long details are truncated into the inline buffer, never overflowed.
  const std::string longd(200, 'x');
  f.record(id, jobtrace::EventKind::kRejected, longd.c_str());
  const auto evs2 = f.events(id);
  EXPECT_LT(std::string(evs2.back().detail).size(),
            jobtrace::FlightEvent::kDetailBuf);
  // Dumps name the job and the events; unknown ids dump empty.
  const std::string text = f.dump_text(id);
  EXPECT_NE(text.find("flight job="), std::string::npos);
  EXPECT_NE(text.find("admitted"), std::string::npos);
  EXPECT_NE(text.find("RunFormation"), std::string::npos);
  EXPECT_TRUE(f.events(id + 999999).empty());
  EXPECT_TRUE(f.dump_text(id + 999999).empty());
  EXPECT_EQ(f.last_event_name(id + 999999), "");
  // record() with id 0 is the no-job no-op.
  f.record(0, jobtrace::EventKind::kAdmitted, "ghost");
  EXPECT_TRUE(f.events(0).empty());
}

TEST(FlightRecorder, PerJobRingKeepsLastKEvents) {
  FlightScope scope;
  auto& f = jobtrace::FlightRecorder::instance();
  const auto id = jobtrace::mint();
  constexpr usize kExtra = 8;
  constexpr usize kTotal = jobtrace::FlightRecorder::kEventsPerJob + kExtra;
  for (usize i = 0; i < kTotal; ++i) {
    f.record(id, jobtrace::EventKind::kPhase, nullptr, i);
  }
  const auto evs = f.events(id);
  ASSERT_EQ(evs.size(), jobtrace::FlightRecorder::kEventsPerJob);
  // Oldest events cycled out: the ring holds exactly the last K.
  EXPECT_EQ(evs.front().arg0, kExtra);
  EXPECT_EQ(evs.back().arg0, kTotal - 1);
}

TEST(FlightRecorder, JobCapEvictsOldestRingsFifo) {
  FlightScope scope;
  auto& f = jobtrace::FlightRecorder::instance();
  std::vector<jobtrace::TraceId> ids;
  for (usize i = 0; i < jobtrace::FlightRecorder::kMaxJobs + 4; ++i) {
    ids.push_back(jobtrace::mint());
    f.record(ids.back(), jobtrace::EventKind::kAdmitted, nullptr, i);
  }
  // The four oldest jobs were evicted to admit the four newest.
  for (usize i = 0; i < 4; ++i) {
    EXPECT_TRUE(f.events(ids[i]).empty()) << "ring " << i << " survived";
  }
  EXPECT_EQ(f.events(ids.back()).size(), 1u);
}

TEST(FlightRecorder, DisabledRecorderIsSilent) {
  FlightScope scope;
  auto& f = jobtrace::FlightRecorder::instance();
  const auto id = jobtrace::mint();
  f.set_enabled(false);
  EXPECT_FALSE(f.enabled());
  f.record(id, jobtrace::EventKind::kAdmitted);
  f.note_end(id, jobtrace::EventKind::kFinished, "done", /*bad=*/true);
  EXPECT_TRUE(f.events(id).empty());
  f.set_enabled(true);
  f.record(id, jobtrace::EventKind::kAdmitted);
  EXPECT_EQ(f.events(id).size(), 1u);
}

// DumpSink is a plain function pointer, so the capture goes through
// globals (single-threaded test).
std::atomic<int> g_sink_calls{0};
jobtrace::TraceId g_sink_id = 0;
std::string g_sink_dump;  // NOLINT

void test_sink(jobtrace::TraceId id, const std::string& dump) {
  ++g_sink_calls;
  g_sink_id = id;
  g_sink_dump = dump;
}

TEST(FlightRecorder, BadEndInvokesDumpSink) {
  FlightScope scope;
  auto& f = jobtrace::FlightRecorder::instance();
  g_sink_calls = 0;
  g_sink_dump.clear();
  f.set_dump_on_bad_end(&test_sink);
  const auto ok_id = jobtrace::mint();
  f.record(ok_id, jobtrace::EventKind::kAdmitted);
  f.note_end(ok_id, jobtrace::EventKind::kFinished, "done", /*bad=*/false);
  EXPECT_EQ(g_sink_calls.load(), 0);
  const auto bad_id = jobtrace::mint();
  f.record(bad_id, jobtrace::EventKind::kAdmitted, "doomed");
  f.note_end(bad_id, jobtrace::EventKind::kFinished, "failed",
             /*bad=*/true);
  EXPECT_EQ(g_sink_calls.load(), 1);
  EXPECT_EQ(g_sink_id, bad_id);
  EXPECT_NE(g_sink_dump.find("doomed"), std::string::npos);
  EXPECT_NE(g_sink_dump.find("failed"), std::string::npos);
}

// --- lifecycle through the serving stack -------------------------------

TEST(JobTraceService, LifecycleEventsAndInfoCarryTraceId) {
  FlightScope scope;
  auto backend = std::make_shared<MemoryDiskBackend>(kDisksPerShard,
                                                     kBlockBytes);
  ServiceConfig cfg;
  cfg.workers = 2;
  SortService svc(backend, cfg);
  Rng rng(7);
  const JobId id = svc.submit<u64>(spec_of("traced", "tenant-a"),
                                   make_keys(4 * kMem, Dist::kUniform, rng));
  const JobInfo info = svc.wait(id);
  EXPECT_EQ(info.state, JobState::kDone);
  ASSERT_NE(info.trace_id, 0u);
  EXPECT_EQ(info.parent_trace_id, 0u);
  const auto ks = kinds_of(info.trace_id);
  const usize admitted = index_of(ks, jobtrace::EventKind::kAdmitted);
  const usize started = index_of(ks, jobtrace::EventKind::kStarted);
  const usize phase = index_of(ks, jobtrace::EventKind::kPhase);
  const usize finished = index_of(ks, jobtrace::EventKind::kFinished);
  ASSERT_NE(admitted, static_cast<usize>(-1));
  ASSERT_NE(started, static_cast<usize>(-1));
  ASSERT_NE(phase, static_cast<usize>(-1));
  ASSERT_NE(finished, static_cast<usize>(-1));
  EXPECT_LT(admitted, started);
  EXPECT_LT(started, phase);
  EXPECT_LT(phase, finished);
  EXPECT_EQ(finished, ks.size() - 1);
  // A clean end never hits the bad-end sink path; the dump still works
  // on demand.
  const std::string text =
      jobtrace::FlightRecorder::instance().dump_text(info.trace_id);
  EXPECT_NE(text.find("admitted"), std::string::npos);
  EXPECT_NE(text.find("\"done\""), std::string::npos);
  // Tenant rollups and the tracer-drop gauge are in the exposition.
  const std::string metrics = metrics::Registry::global().text();
  EXPECT_NE(metrics.find("tenant.tenant-a.jobs"), std::string::npos);
  EXPECT_NE(metrics.find("tenant.tenant-a.bytes"), std::string::npos);
  EXPECT_NE(metrics.find("trace.dropped_total"), std::string::npos);
}

TEST(JobTraceCluster, DeadlineMissFlightDumpHasFullSequence) {
  FlightScope scope;
  // One shard, one worker, admission control OFF: the deadlined job must
  // park behind the occupier, dispatch, run, and miss — the flight ring
  // is the black box that shows the whole path.
  ClusterConfig cfg = cluster_cfg(1, 1);
  Cluster cluster(
      memory_backend_factory(kDisksPerShard, kBlockBytes, 0), cfg);
  Rng rng(3);
  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> release_f = release_a.get_future().share();
  const JobId a = cluster.submit<u64>(
      spec_of("occupier"), make_keys(2 * kMem, Dist::kUniform, rng),
      std::less<u64>{},
      [&a_started, release_f](const SortResult<u64>&) {
        a_started.set_value();
        release_f.wait();
      });
  a_started.get_future().wait();

  SortJobSpec b_spec = spec_of("misses", "tenant-miss");
  b_spec.deadline_s = 1e-5;  // far below any possible run time
  const JobId b = cluster.submit<u64>(
      b_spec, make_keys(4 * kMem, Dist::kUniform, rng));
  // b is parked (the single worker is held); introspection must see it
  // with its trace id and park reason.
  const u64 b_trace = cluster.info(b).trace_id;
  ASSERT_NE(b_trace, 0u);
  {
    const introspect::StateDump d = cluster.dump_state();
    bool found = false;
    for (const auto& h : d.held) {
      if (h.trace_id == b_trace) {
        found = true;
        EXPECT_FALSE(h.park_reason.empty());
      }
    }
    EXPECT_TRUE(found) << "parked job missing from dump_state().held";
    EXPECT_NE(cluster.introspect_text().find("held "), std::string::npos);
  }

  release_a.set_value();
  EXPECT_EQ(cluster.wait(a).state, JobState::kDone);
  const JobInfo bi = cluster.wait(b);
  EXPECT_EQ(bi.state, JobState::kDone);
  EXPECT_TRUE(bi.deadline_missed);
  EXPECT_EQ(bi.trace_id, b_trace);
  cluster.drain();

  const auto ks = kinds_of(b_trace);
  const usize parked = index_of(ks, jobtrace::EventKind::kParked);
  const usize dispatched = index_of(ks, jobtrace::EventKind::kDispatched);
  const usize admitted = index_of(ks, jobtrace::EventKind::kAdmitted);
  const usize started = index_of(ks, jobtrace::EventKind::kStarted);
  const usize miss = index_of(ks, jobtrace::EventKind::kDeadlineMiss);
  const usize finished = index_of(ks, jobtrace::EventKind::kFinished);
  ASSERT_NE(parked, static_cast<usize>(-1));
  ASSERT_NE(dispatched, static_cast<usize>(-1));
  ASSERT_NE(admitted, static_cast<usize>(-1));
  ASSERT_NE(started, static_cast<usize>(-1));
  ASSERT_NE(miss, static_cast<usize>(-1));
  ASSERT_NE(finished, static_cast<usize>(-1));
  EXPECT_LT(parked, dispatched);
  EXPECT_LT(dispatched, started);
  EXPECT_LT(started, miss);
  EXPECT_LT(miss, finished);
  // A deadline miss is a bad end: the dump has the whole causal path.
  const std::string dump =
      jobtrace::FlightRecorder::instance().dump_text(b_trace);
  for (const char* needle :
       {"parked", "dispatched", "started", "deadline_miss", "finished"}) {
    EXPECT_NE(dump.find(needle), std::string::npos) << needle;
  }
}

TEST(JobTraceCluster, StolenJobRecordsBothShardIds) {
  FlightScope scope;
  Cluster cluster(
      memory_backend_factory(kDisksPerShard, kBlockBytes, 0),
      cluster_cfg(2, 1));
  Rng rng(33);
  // Both shards busy; shard 1 reserves more memory, so shard 0 reads
  // lighter and is the home of the next job, which parks. Shard 1 frees
  // first and steals it.
  std::promise<void> release0;
  std::promise<void> release1;
  const usize limit = cluster.shard(0).budget().limit();
  const JobId held0 =
      hold_shard(cluster, 0, limit / 2, release0.get_future().share(), rng);
  const JobId held1 = hold_shard(cluster, 1, limit / 10 * 6,
                                 release1.get_future().share(), rng);
  const JobId small = cluster.submit<u64>(
      spec_of("stealme"), make_keys(kMem, Dist::kUniform, rng));
  EXPECT_EQ(cluster.shard_of(small), Cluster::kHeldShard);
  release1.set_value();
  const JobInfo si = cluster.wait(small);
  EXPECT_EQ(si.state, JobState::kDone);
  EXPECT_EQ(cluster.shard_of(small), 1u);
  release0.set_value();
  cluster.drain();
  EXPECT_EQ(cluster.wait(held0).state, JobState::kDone);
  EXPECT_EQ(cluster.wait(held1).state, JobState::kDone);
  ASSERT_NE(si.trace_id, 0u);
  const auto evs = jobtrace::FlightRecorder::instance().events(si.trace_id);
  bool found = false;
  for (const auto& ev : evs) {
    if (ev.kind == jobtrace::EventKind::kStolen) {
      found = true;
      EXPECT_EQ(ev.arg0, 0u);  // home shard
      EXPECT_EQ(ev.arg1, 1u);  // stealing shard
    }
  }
  EXPECT_TRUE(found) << "no kStolen event in the flight ring";
}

TEST(JobTraceCluster, HeldJobReHomedOffDrainedShardKeepsTraceId) {
  FlightScope scope;
  Cluster cluster(
      memory_backend_factory(kDisksPerShard, kBlockBytes, 0),
      cluster_cfg(2, 1));
  Rng rng(5);
  // Both shards busy; shard 0 reads lighter, so it is q's home and q
  // parks there.
  std::promise<void> release0;
  std::promise<void> release1;
  const usize limit = cluster.shard(0).budget().limit();
  const JobId held0 =
      hold_shard(cluster, 0, 0, release0.get_future().share(), rng);
  const JobId held1 = hold_shard(cluster, 1, limit / 10 * 6,
                                 release1.get_future().share(), rng);
  const JobId q = cluster.submit<u64>(
      spec_of("rehomed"), make_keys(kMem, Dist::kUniform, rng));
  const u64 q_trace = cluster.info(q).trace_id;
  ASSERT_NE(q_trace, 0u);
  auto held_home = [&]() -> u32 {
    for (const auto& h : cluster.dump_state().held) {
      if (h.trace_id == q_trace) return h.home;
    }
    return Cluster::kHeldShard;
  };
  EXPECT_EQ(held_home(), 0u);

  // Drain shard 0 from another thread (it blocks on the running held
  // job). Leaving the active set re-homes q onto shard 1 at once.
  std::thread drainer([&] { cluster.drain_shard(0); });
  while (cluster.shard_active(0)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(held_home(), 1u);
  release1.set_value();
  const JobInfo qi = cluster.wait(q);
  release0.set_value();
  drainer.join();
  EXPECT_EQ(cluster.wait(held0).state, JobState::kDone);
  EXPECT_EQ(cluster.wait(held1).state, JobState::kDone);
  EXPECT_EQ(qi.state, JobState::kDone);
  EXPECT_EQ(cluster.shard_of(q), 1u);
  // Same causal identity through the re-home, and the ring shows the
  // park on shard 0 and the dispatch to shard 1 — to its new home, so no
  // steal.
  EXPECT_EQ(qi.trace_id, q_trace);
  const auto ks = kinds_of(q_trace);
  const usize parked = index_of(ks, jobtrace::EventKind::kParked);
  const usize dispatched = index_of(ks, jobtrace::EventKind::kDispatched);
  const usize finished = index_of(ks, jobtrace::EventKind::kFinished);
  ASSERT_NE(parked, static_cast<usize>(-1));
  ASSERT_NE(dispatched, static_cast<usize>(-1));
  ASSERT_NE(finished, static_cast<usize>(-1));
  EXPECT_LT(parked, dispatched);
  EXPECT_LT(dispatched, finished);
  EXPECT_EQ(index_of(ks, jobtrace::EventKind::kStolen),
            static_cast<usize>(-1));
  const auto evs = jobtrace::FlightRecorder::instance().events(q_trace);
  EXPECT_EQ(evs[parked].arg0, 0u);      // home when it parked
  EXPECT_EQ(evs[dispatched].arg0, 1u);  // the re-homed dispatch
  cluster.drain();
}

// --- distributed causal tree -------------------------------------------

TEST(JobTraceDistributed, SubJobsCarryParentTraceId) {
  FlightScope scope;
  Cluster cluster(
      memory_backend_factory(kDisksPerShard, kBlockBytes, 0),
      cluster_cfg(4, 2));
  Rng rng(18);
  auto data = make_keys(16 * kMem, Dist::kPermutation, rng);
  const JobId id = cluster.submit_distributed<u64>(
      spec_of("giant"), std::move(data), DistributedOptions{},
      std::less<u64>{});
  const DistributedInfo info = cluster.distributed_wait(id);
  EXPECT_EQ(info.state, JobState::kDone);
  ASSERT_NE(info.trace_id, 0u);
  std::set<u64> child_ids;
  for (const JobId sub : info.sub_jobs) {
    if (sub == 0) continue;  // empty range
    const JobInfo ji = cluster.info(sub);
    ASSERT_NE(ji.trace_id, 0u);
    EXPECT_EQ(ji.parent_trace_id, info.trace_id);
    EXPECT_NE(ji.trace_id, info.trace_id);
    child_ids.insert(ji.trace_id);
  }
  EXPECT_GE(child_ids.size(), 2u);  // distinct ids per range
  // The parent's own ring spans admission to a clean finish.
  const auto ks = kinds_of(info.trace_id);
  EXPECT_NE(index_of(ks, jobtrace::EventKind::kAdmitted),
            static_cast<usize>(-1));
  EXPECT_EQ(ks.back(), jobtrace::EventKind::kFinished);
}

#if PDMSORT_TRACING

// Fresh, enabled tracer per test (mirrors trace_test.cpp).
struct TracerScope {
  TracerScope() {
    trace::TraceLog::instance().clear();
    trace::TraceLog::instance().set_enabled(true);
  }
  ~TracerScope() {
    trace::TraceLog::instance().set_enabled(false);
    trace::TraceLog::instance().clear();
  }
};

TEST(JobTraceDistributed, ChromeTraceReconstructsCausalTreeById) {
  FlightScope flight;
  TracerScope tracer;
  Cluster cluster(
      memory_backend_factory(kDisksPerShard, kBlockBytes, 0),
      cluster_cfg(4, 2));
  Rng rng(21);
  auto data = make_keys(16 * kMem, Dist::kPermutation, rng);
  const JobId id = cluster.submit_distributed<u64>(
      spec_of("tree"), std::move(data), DistributedOptions{},
      std::less<u64>{});
  const DistributedInfo info = cluster.distributed_wait(id);
  ASSERT_EQ(info.state, JobState::kDone);
  std::set<u64> child_ids;
  for (const JobId sub : info.sub_jobs) {
    if (sub != 0) child_ids.insert(cluster.info(sub).trace_id);
  }
  ASSERT_GE(child_ids.size(), 2u);

  // Reconstruct the tree from the trace buffer alone: group events by
  // their stamped job id, link children by their stamped parent id.
  std::map<u64, usize> events_by_job;
  std::map<u64, u64> parent_of;
  std::set<u64> jobs_with_phase_span;
  for (const auto& ev : trace::TraceLog::instance().snapshot()) {
    if (ev.job == 0) continue;
    ++events_by_job[ev.job];
    if (ev.parent != 0) parent_of[ev.job] = ev.parent;
    if (std::string(ev.name_str()).rfind("sort.", 0) == 0) {
      jobs_with_phase_span.insert(ev.job);
    }
  }
  // The parent job has spans of its own (partition/coordinate/concat)...
  EXPECT_GT(events_by_job[info.trace_id], 0u);
  // ...and every range sub-job's spans point back at it — the tree needs
  // nothing but the ids.
  for (const u64 child : child_ids) {
    EXPECT_GT(events_by_job[child], 0u) << "child " << child;
    EXPECT_EQ(parent_of[child], info.trace_id) << "child " << child;
    EXPECT_TRUE(jobs_with_phase_span.count(child) == 1)
        << "no phase span for child " << child;
  }
  // The JSON writer externalizes both ids.
  std::ostringstream os;
  trace::TraceLog::instance().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"job\":" + std::to_string(info.trace_id)),
            std::string::npos);
  EXPECT_NE(json.find("\"parent\":" + std::to_string(info.trace_id)),
            std::string::npos);
}

#endif  // PDMSORT_TRACING

// --- the observability invariant ---------------------------------------

TEST(JobTrace, IoStatsIdenticalRecorderOnAndOff) {
  Rng rng(11);
  const auto data = make_keys(8 * kMem, Dist::kUniform, rng);
  auto run_once = [&]() {
    auto backend = std::make_shared<MemoryDiskBackend>(kDisksPerShard,
                                                       kBlockBytes);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.seed = 42;
    SortService svc(backend, cfg);
    const JobId id = svc.submit<u64>(spec_of("invariant"), data);
    const JobInfo info = svc.wait(id);
    EXPECT_EQ(info.state, JobState::kDone);
    return info.report.io;
  };
  auto& f = jobtrace::FlightRecorder::instance();
  f.set_enabled(false);
  const IoStats off = run_once();
  f.set_enabled(true);
  const IoStats on = run_once();
  // The recorder only copies ids and reads clocks — every accounting
  // figure, including the order-sensitive schedule hash, is identical.
  EXPECT_EQ(off.read_ops, on.read_ops);
  EXPECT_EQ(off.write_ops, on.write_ops);
  EXPECT_EQ(off.blocks_read, on.blocks_read);
  EXPECT_EQ(off.blocks_written, on.blocks_written);
  EXPECT_EQ(off.schedule_hash, on.schedule_hash);
}

// --- concurrency (TSan scenario) ---------------------------------------

TEST(JobTraceStress, ConcurrentSubmitCancelDumpIsRaceFree) {
  FlightScope scope;
  Cluster cluster(
      memory_backend_factory(kDisksPerShard, kBlockBytes, 50),
      cluster_cfg(2, 2));
  constexpr usize kThreads = 4;
  constexpr usize kJobsPerThread = 12;
  std::atomic<bool> stop{false};
  std::mutex ids_mu;
  std::vector<std::pair<JobId, u64>> ids;  // (cluster id, trace id)

  // A reader hammers the dump/introspection surfaces while writers
  // submit and cancel: the whole file runs under TSan in CI.
  std::thread reader([&] {
    auto& f = jobtrace::FlightRecorder::instance();
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::pair<JobId, u64>> copy;
      {
        std::lock_guard g(ids_mu);
        copy = ids;
      }
      for (const auto& [id, trace] : copy) {
        (void)f.events(trace);
        (void)f.dump_text(trace);
        (void)f.last_event_name(trace);
      }
      (void)cluster.dump_state();
      (void)metrics::Registry::global().text();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> writers;
  for (usize t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (usize j = 0; j < kJobsPerThread; ++j) {
        const JobId id = cluster.submit<u64>(
            spec_of("stress-" + std::to_string(t) + "-" + std::to_string(j),
                    "tenant-" + std::to_string(t)),
            make_keys(kMem, Dist::kUniform, rng));
        const u64 trace = cluster.info(id).trace_id;
        {
          std::lock_guard g(ids_mu);
          ids.emplace_back(id, trace);
        }
        if (j % 3 == 0) cluster.cancel(id);
      }
    });
  }
  for (auto& th : writers) th.join();
  cluster.drain();
  stop.store(true);
  reader.join();
  // Every job reached a terminal state and its ring ends terminally.
  usize done = 0;
  usize cancelled = 0;
  for (const auto& [id, trace] : ids) {
    const JobInfo info = cluster.wait(id);
    switch (info.state) {
      case JobState::kDone: ++done; break;
      case JobState::kCancelled: ++cancelled; break;
      default: FAIL() << "unexpected state " << job_state_name(info.state);
    }
    const auto ks = kinds_of(trace);
    ASSERT_FALSE(ks.empty());
    EXPECT_TRUE(ks.back() == jobtrace::EventKind::kFinished ||
                ks.back() == jobtrace::EventKind::kCancelled)
        << event_kind_name(ks.back());
  }
  EXPECT_EQ(done + cancelled, kThreads * kJobsPerThread);
  EXPECT_GT(done, 0u);
}

}  // namespace
}  // namespace pdm
