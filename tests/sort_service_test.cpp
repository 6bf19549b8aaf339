// SortService: multi-tenant scheduling over shared disks and memory.
// Covers admission control (blocking and rejection), mid-queue
// cancellation, deadline ordering, failure isolation, concurrent
// stress with mixed record types, and the accounting invariant that
// per-job IoStats sum exactly to the service-wide totals. The whole
// file must be TSan-clean (CI runs it under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pdm/memory_backend.h"
#include "service/sort_service.h"
#include "test_support.h"
#include "util/generators.h"

namespace pdm {
namespace {

constexpr u64 kMem = 1024;          // per-job M in records
constexpr usize kBlockBytes = 256;  // rpb: u64=32, KV64=16, i32=64
constexpr u32 kDisks = 8;

std::shared_ptr<MemoryDiskBackend> make_backend(u64 latency_us = 0) {
  auto b = std::make_shared<MemoryDiskBackend>(kDisks, kBlockBytes);
  b->set_simulated_latency_us(latency_us);
  return b;
}

SortJobSpec spec_of(std::string name, int priority = 0) {
  SortJobSpec s;
  s.name = std::move(name);
  s.mem_records = kMem;
  s.priority = priority;
  return s;
}

/// Submits a u64 job whose callback verifies the output equals std::sort
/// of the input; `ok` counts verified jobs, `bad` counts any mismatch.
JobId submit_verified(SortService& svc, SortJobSpec spec,
                      std::vector<u64> data, std::atomic<int>& ok,
                      std::atomic<int>& bad) {
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  return svc.submit<u64>(
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

TEST(SortService, PlanAwareAdmissionTightensCachedShapes)
{
  SortService svc(make_backend(), {});
  Rng rng(21);
  SortJobSpec spec = spec_of("shape");
  const u64 n_small = kMem;       // InternalSort shape
  const u64 n_big = 16 * kMem;    // LMM-family shape
  const usize uniform = svc.admission_carve(spec, sizeof(u64), n_small);
  EXPECT_EQ(uniform,
            static_cast<usize>(SortService::kMemSlack * kMem * sizeof(u64)))
      << "uncached shapes must use the conservative uniform slack";

  // Run one job of each shape so their PlanEntries land in the cache.
  std::atomic<int> ok{0}, bad{0};
  submit_verified(svc, spec, make_keys(n_small, Dist::kUniform, rng), ok,
                  bad);
  submit_verified(svc, spec, make_keys(n_big, Dist::kPermutation, rng), ok,
                  bad);
  svc.drain();
  EXPECT_EQ(ok.load(), 2);
  EXPECT_EQ(bad.load(), 0);

  // Cached InternalSort shape: per-algorithm slack, well under uniform.
  const usize internal_carve = svc.admission_carve(spec, sizeof(u64), n_small);
  EXPECT_LT(internal_carve, uniform);
  // Cached LMM shape: looser than InternalSort, never above the
  // conservative bound (at tiny M the fixed D*B overhead dominates and
  // the model clamps to uniform — LMM genuinely needs ~6M there).
  const usize lmm_carve = svc.admission_carve(spec, sizeof(u64), n_big);
  EXPECT_LE(lmm_carve, uniform);
  EXPECT_GT(lmm_carve, internal_carve);
  // An explicit carve always wins.
  SortJobSpec manual = spec_of("manual");
  manual.carve_bytes = 12345;
  EXPECT_EQ(svc.admission_carve(manual, sizeof(u64), n_small), 12345u);

  // The tightened carves are still sufficient: resubmitting the cached
  // shapes (now admitted with per-algorithm slack) completes correctly.
  submit_verified(svc, spec, make_keys(n_small, Dist::kUniform, rng), ok,
                  bad);
  submit_verified(svc, spec, make_keys(n_big, Dist::kPermutation, rng), ok,
                  bad);
  svc.drain();
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(bad.load(), 0);
}

// At M = 4096, B = 64 and N = 16·M, alpha = 1 caps ExpectedTwoPass at
// ~50k records < N, so the planner picks ThreePass2(LMM). A NaN alpha made
// that capacity NaN (its u64 cast is undefined; x86 reads 2^63) and, as a
// plan-cache key, compared equivalent to every alpha: after one NaN job a
// same-shape alpha = 1 job of another tenant was planned ExpectedTwoPass.
TEST(SortService, NonFiniteAlphaIsRejectedAndLeavesPlansAlone)
{
  constexpr u64 kM = 4096;
  SortService svc(std::make_shared<MemoryDiskBackend>(4, 64 * sizeof(u64)),
                  ServiceConfig{.workers = 1});
  Rng rng(31);
  SortJobSpec spec = spec_of("alpha");
  spec.mem_records = kM;
  spec.alpha = std::nan("");
  EXPECT_THROW(svc.submit<u64>(spec, make_keys(16 * kM, Dist::kUniform, rng)),
               Error);
  spec.alpha = 1.0;
  const JobInfo info = svc.wait(
      svc.submit<u64>(spec, make_keys(16 * kM, Dist::kPermutation, rng)));
  ASSERT_EQ(info.state, JobState::kDone) << info.error;
  EXPECT_EQ(info.algorithm, "ThreePass2(LMM)");
  for (double bad : {std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    spec.alpha = bad;
    EXPECT_THROW(svc.submit<u64>(spec, make_keys(kM, Dist::kUniform, rng)),
                 Error)
        << "alpha " << bad;
  }
  EXPECT_THROW(lambda_factor(kM, std::nan("")), Error);
}

// mem_records = 2^62 makes kMemSlack * M * record_bytes overflow usize.
// The carve saturates, so the job is rejected at admission; an unchecked
// cast read 0 and admitted a job that then failed on a worker.
TEST(SortService, OverflowingCarveIsRejectedAtAdmission)
{
  SortService svc(make_backend(), ServiceConfig{.workers = 1});
  SortJobSpec spec = spec_of("huge");
  spec.mem_records = u64{1} << 62;
  EXPECT_EQ(svc.admission_carve(spec, sizeof(u64)),
            std::numeric_limits<usize>::max());
  Rng rng(32);
  const JobInfo info =
      svc.wait(svc.submit<u64>(spec, make_keys(1024, Dist::kUniform, rng)));
  EXPECT_EQ(info.state, JobState::kRejected);
  EXPECT_NE(info.error.find("admission control"), std::string::npos);
}

TEST(SortService, BasicJobsCompleteSorted)
{
  SortService svc(make_backend(), ServiceConfig{.workers = 2});
  Rng rng(1);
  std::atomic<int> ok{0}, bad{0};
  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(submit_verified(
        svc, spec_of("job" + std::to_string(i)),
        make_keys(4 * kMem, Dist::kPermutation, rng), ok, bad));
  }
  for (JobId id : ids) {
    JobInfo info = svc.wait(id);
    EXPECT_EQ(info.state, JobState::kDone);
    EXPECT_FALSE(info.algorithm.empty());
    EXPECT_EQ(info.report.n, 4 * kMem);
    EXPECT_GT(info.report.passes, 0.0);
    EXPECT_GT(info.io.total_ops(), 0u);
  }
  EXPECT_EQ(ok.load(), 3);
  EXPECT_EQ(bad.load(), 0);
}

TEST(SortService, AdmissionRejectsJobThatCanNeverFit)
{
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.total_memory_bytes = usize{1} << 20;
  SortService svc(make_backend(), cfg);
  SortJobSpec spec = spec_of("hog");
  spec.mem_records = u64{1} << 20;  // carve = slack * 1M * 8B >> 1MB
  Rng rng(2);
  const JobId id =
      svc.submit<u64>(spec, make_keys(1024, Dist::kUniform, rng));
  JobInfo info = svc.wait(id);  // terminal immediately, no blocking
  EXPECT_EQ(info.state, JobState::kRejected);
  EXPECT_NE(info.error.find("admission control"), std::string::npos);
}

TEST(SortService, AdmissionBlocksUntilMemoryFrees)
{
  ServiceConfig cfg;
  cfg.workers = 2;
  // Room for exactly one default carve at a time.
  cfg.total_memory_bytes =
      static_cast<usize>(SortService::kMemSlack * kMem * sizeof(u64)) + 1024;
  SortService svc(make_backend(), cfg);
  Rng rng(3);
  std::atomic<int> ok{0}, bad{0};
  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(submit_verified(
        svc, spec_of("serial" + std::to_string(i)),
        make_keys(2 * kMem, Dist::kPermutation, rng), ok, bad));
  }
  for (JobId id : ids) EXPECT_EQ(svc.wait(id).state, JobState::kDone);
  EXPECT_EQ(ok.load(), 3);
  EXPECT_EQ(bad.load(), 0);
  // Reservations never exceeded the service budget.
  EXPECT_LE(svc.stats().peak_memory_bytes, cfg.total_memory_bytes);
}

TEST(SortService, CancelMidQueue)
{
  ServiceConfig cfg;
  cfg.workers = 1;
  SortService svc(make_backend(200), cfg);  // latency keeps the worker busy
  Rng rng(4);
  std::atomic<int> ok{0}, bad{0};
  const JobId running = submit_verified(
      svc, spec_of("running"), make_keys(8 * kMem, Dist::kPermutation, rng),
      ok, bad);
  std::atomic<int> cancelled_ran{0};
  std::vector<JobId> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(svc.submit<u64>(
        spec_of("victim" + std::to_string(i)),
        make_keys(2 * kMem, Dist::kUniform, rng), std::less<u64>{},
        [&](const SortResult<u64>&) { ++cancelled_ran; }));
  }
  usize cancelled = 0;
  for (JobId id : queued) cancelled += svc.cancel(id) ? 1 : 0;
  EXPECT_GE(cancelled, 3u);  // the worker can have started at most one
  svc.drain();
  EXPECT_EQ(svc.wait(running).state, JobState::kDone);
  usize observed_cancelled = 0;
  for (JobId id : queued) {
    const JobInfo info = svc.info(id);
    EXPECT_TRUE(info.state == JobState::kCancelled ||
                info.state == JobState::kDone);
    observed_cancelled += info.state == JobState::kCancelled ? 1 : 0;
  }
  EXPECT_EQ(observed_cancelled, cancelled);
  EXPECT_EQ(static_cast<usize>(cancelled_ran.load()),
            queued.size() - cancelled);
  // Cancelling a finished or unknown job is a no-op.
  EXPECT_FALSE(svc.cancel(running));
  EXPECT_FALSE(svc.cancel(9999));
  // Terminal records can be dropped; unknown ids cannot. Lifetime
  // counters survive the forget — only the retained record count drops.
  EXPECT_TRUE(svc.forget(running));
  EXPECT_FALSE(svc.forget(running));
  EXPECT_EQ(svc.stats().submitted, queued.size() + 1);
  EXPECT_EQ(svc.stats().retained, queued.size());
}

TEST(SortService, InfeasibleShapeFailsCleanly)
{
  SortService svc(make_backend(), ServiceConfig{.workers = 1});
  Rng rng(5);
  // n > M and not block-aligned: no paper algorithm or baseline fits.
  const JobId id = svc.submit<u64>(spec_of("misaligned"),
                                   make_keys(1234, Dist::kUniform, rng));
  JobInfo info = svc.wait(id);
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_NE(info.error.find("no feasible plan"), std::string::npos);
  // The failure did not poison the service.
  std::atomic<int> ok{0}, bad{0};
  const JobId good = submit_verified(svc, spec_of("after"),
                                     make_keys(2 * kMem, Dist::kPermutation,
                                               rng),
                                     ok, bad);
  EXPECT_EQ(svc.wait(good).state, JobState::kDone);
  EXPECT_EQ(ok.load(), 1);
}

TEST(SortService, ConcurrentPassCountsMatchSingleJobBaseline)
{
  Rng rng(7);
  const auto data = make_keys(4 * kMem, Dist::kPermutation, rng);
  double solo_passes = 0;
  std::string solo_algo;
  {
    SortService svc(make_backend(), ServiceConfig{.workers = 1});
    const JobId id = svc.submit<u64>(spec_of("solo"), data);
    const JobInfo info = svc.wait(id);
    ASSERT_EQ(info.state, JobState::kDone);
    solo_passes = info.report.passes;
    solo_algo = info.algorithm;
  }
  SortService svc(make_backend(), ServiceConfig{.workers = 4});
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(svc.submit<u64>(spec_of("par" + std::to_string(i)), data));
  }
  for (JobId id : ids) {
    const JobInfo info = svc.wait(id);
    ASSERT_EQ(info.state, JobState::kDone);
    EXPECT_EQ(info.algorithm, solo_algo);
    EXPECT_DOUBLE_EQ(info.report.passes, solo_passes)
        << "contention must not change a job's I/O complexity";
  }
}

TEST(SortService, StressMixedWorkloadAccountingInvariant)
{
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.io_depth_total = 8;
  cfg.total_memory_bytes = usize{64} << 20;
  SortService svc(make_backend(20), cfg);
  Rng rng(8);
  std::atomic<int> ok{0}, bad{0};
  std::vector<JobId> all;

  for (int round = 0; round < 6; ++round) {
    // Large and medium u64 jobs at mixed priorities.
    all.push_back(submit_verified(
        svc, spec_of("u64-big" + std::to_string(round), round % 3),
        make_keys(8 * kMem, Dist::kPermutation, rng), ok, bad));
    all.push_back(submit_verified(
        svc, spec_of("u64-mid" + std::to_string(round), 1),
        make_keys(2 * kMem, Dist::kZipf, rng), ok, bad));
    // Small jobs.
    all.push_back(submit_verified(
        svc, spec_of("u64-small" + std::to_string(round)),
        make_keys(256, Dist::kUniform, rng), ok, bad));
    // KV64 payload jobs.
    all.push_back(svc.submit<KV64>(
        spec_of("kv" + std::to_string(round), 2),
        make_kv(2 * kMem, Dist::kFewDistinct, rng)));
    // Signed-key jobs through the new KeyTraits.
    std::vector<std::int32_t> signed_data(2 * kMem);
    for (auto& x : signed_data) x = static_cast<std::int32_t>(rng.next());
    all.push_back(svc.submit<std::int32_t>(
        spec_of("i32-" + std::to_string(round)), std::move(signed_data)));
  }
  // A failure and a rejection mixed into the running system.
  all.push_back(svc.submit<u64>(spec_of("infeasible"),
                                make_keys(1234, Dist::kUniform, rng)));
  SortJobSpec hog = spec_of("hog");
  hog.mem_records = u64{1} << 24;
  all.push_back(svc.submit<u64>(hog, make_keys(64, Dist::kUniform, rng)));
  // Cancel a few queued jobs while workers churn.
  usize cancelled = 0;
  for (usize i = 0; i < all.size(); i += 7) {
    cancelled += svc.cancel(all[i]) ? 1 : 0;
  }
  svc.drain();

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, all.size());
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.rejected,
            st.submitted);
  EXPECT_EQ(st.cancelled, cancelled);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_GE(st.failed, 1u);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(st.peak_memory_bytes, cfg.total_memory_bytes);
  EXPECT_GT(st.jobs_per_sec, 0.0);
  EXPECT_GE(st.queue_p99_s, st.queue_p50_s);

  // Every job's report stayed within its memory carve.
  const std::vector<JobInfo> job_infos = svc.jobs();
  EXPECT_EQ(job_infos.size(), st.retained);
  for (const JobInfo& j : job_infos) {
    if (j.state != JobState::kDone) continue;
    EXPECT_LE(j.report.peak_memory_bytes,
              static_cast<usize>(SortService::kMemSlack * kMem * sizeof(KV64)))
        << j.name;
  }

  // The accounting invariant: per-job deltas sum exactly to the live
  // service totals — nothing double-counted, nothing lost.
  IoStats sum;
  sum.reset(kDisks);
  for (const JobInfo& j : job_infos) {
    sum.read_ops += j.io.read_ops;
    sum.write_ops += j.io.write_ops;
    sum.blocks_read += j.io.blocks_read;
    sum.blocks_written += j.io.blocks_written;
    for (usize d = 0; d < j.io.disk_reads.size(); ++d) {
      sum.disk_reads[d] += j.io.disk_reads[d];
      sum.disk_writes[d] += j.io.disk_writes[d];
    }
  }
  EXPECT_EQ(sum.read_ops, st.io.read_ops);
  EXPECT_EQ(sum.write_ops, st.io.write_ops);
  EXPECT_EQ(sum.blocks_read, st.io.blocks_read);
  EXPECT_EQ(sum.blocks_written, st.io.blocks_written);
  ASSERT_EQ(st.io.disk_reads.size(), kDisks);
  for (usize d = 0; d < kDisks; ++d) {
    EXPECT_EQ(sum.disk_reads[d], st.io.disk_reads[d]) << "disk " << d;
    EXPECT_EQ(sum.disk_writes[d], st.io.disk_writes[d]) << "disk " << d;
  }
}

TEST(SortService, PreemptiveCancelStopsRunningJob)
{
  ServiceConfig cfg;
  cfg.workers = 1;
  Rng rng(20);
  const auto data = make_keys(16 * kMem, Dist::kPermutation, rng);

  // Baseline: the same job run to completion, for its full I/O cost.
  u64 solo_ops = 0;
  {
    SortService svc(make_backend(100), cfg);
    const JobId id = svc.submit<u64>(spec_of("solo"), data);
    const JobInfo info = svc.wait(id);
    ASSERT_EQ(info.state, JobState::kDone);
    solo_ops = info.io.total_ops();
  }

  SortService svc(make_backend(100), cfg);
  std::atomic<int> callback_ran{0};
  const JobId id = svc.submit<u64>(
      spec_of("victim"), data, std::less<u64>{},
      [&](const SortResult<u64>&) { ++callback_ran; });
  // Wait until the worker has actually started it, then preempt.
  while (svc.info(id).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(svc.info(id).state, JobState::kRunning);
  EXPECT_TRUE(svc.cancel(id));
  const JobInfo info = svc.wait(id);
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_NE(info.error.find("cancel"), std::string::npos);
  EXPECT_EQ(callback_ran.load(), 0);
  // It stopped mid-flight: strictly less I/O than the full sort.
  EXPECT_LT(info.io.total_ops(), solo_ops);
  EXPECT_EQ(svc.stats().cancelled, 1u);
  // The service keeps serving after a mid-flight stop.
  std::atomic<int> ok{0}, bad{0};
  const JobId after = submit_verified(
      svc, spec_of("after"), make_keys(2 * kMem, Dist::kPermutation, rng),
      ok, bad);
  EXPECT_EQ(svc.wait(after).state, JobState::kDone);
  EXPECT_EQ(ok.load(), 1);
}

TEST(SortService, EdfOrdersWithinPriorityBand)
{
  ServiceConfig cfg;
  cfg.workers = 1;
  SortService svc(make_backend(200), cfg);  // keep the worker busy
  Rng rng(21);
  // Blocker occupies the single worker while the deadlined jobs queue; a
  // higher priority makes it first even if the worker wakes late.
  const JobId blocker = svc.submit<u64>(
      spec_of("blocker", 1), make_keys(8 * kMem, Dist::kPermutation, rng));
  std::mutex order_mu;
  std::vector<std::string> order;
  auto tracked = [&](std::string name, double deadline_s) {
    SortJobSpec s = spec_of(name);
    s.deadline_s = deadline_s;
    return svc.submit<u64>(
        std::move(s), make_keys(2 * kMem, Dist::kUniform, rng),
        std::less<u64>{}, [&order, &order_mu, name](const SortResult<u64>&) {
          std::lock_guard g(order_mu);
          order.push_back(name);
        });
  };
  // Submission order deliberately inverts deadline order.
  tracked("no-deadline", 0);
  tracked("loose", 60.0);
  tracked("tight", 30.0);
  svc.drain();
  EXPECT_EQ(svc.wait(blocker).state, JobState::kDone);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "tight");
  EXPECT_EQ(order[1], "loose");
  EXPECT_EQ(order[2], "no-deadline");
}

// A deadline too far out for steady_clock (+inf, 1e12 s) orders like no
// deadline: behind every representable one, FIFO among themselves. A plain
// duration_cast of such a deadline overflows (undefined behaviour; on x86
// a deadline in the past, so it runs ahead of the 10 s job). NaN is
// refused.
TEST(SortService, DeadlineBeyondClockRangeOrdersLikeNone)
{
  ServiceConfig cfg;
  cfg.workers = 1;
  SortService svc(make_backend(), cfg);
  Rng rng(22);
  // The blocker holds the single worker (in its completion callback)
  // until every deadlined job is queued.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  const JobId blocker = svc.submit<u64>(
      spec_of("blocker"), make_keys(kMem, Dist::kUniform, rng),
      std::less<u64>{}, [&started, release_f](const SortResult<u64>&) {
        started.set_value();
        release_f.wait();
      });
  started.get_future().wait();
  std::mutex order_mu;
  std::vector<std::string> order;
  // Submission order: the representable deadline last.
  const std::vector<std::pair<std::string, double>> jobs = {
      {"inf", std::numeric_limits<double>::infinity()},
      {"1e12s", 1e12},
      {"10s", 10.0}};
  for (const auto& [name, deadline_s] : jobs) {
    SortJobSpec s = spec_of(name);
    s.deadline_s = deadline_s;
    svc.submit<u64>(std::move(s), make_keys(kMem, Dist::kUniform, rng),
                    std::less<u64>{},
                    [&order, &order_mu, name](const SortResult<u64>&) {
                      std::lock_guard g(order_mu);
                      order.push_back(name);
                    });
  }
  SortJobSpec nan_spec = spec_of("nan");
  nan_spec.deadline_s = std::nan("");
  EXPECT_THROW(
      svc.submit<u64>(nan_spec, make_keys(kMem, Dist::kUniform, rng)), Error);
  release.set_value();
  svc.drain();
  EXPECT_EQ(svc.wait(blocker).state, JobState::kDone);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "10s");
  EXPECT_EQ(order[1], "inf");
  EXPECT_EQ(order[2], "1e12s");
  EXPECT_EQ(svc.stats().deadline_missed, 0u);
}

TEST(SortService, DeadlineAdmissionRejectsUnmeetable)
{
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.deadline_admission = true;
  SortService svc(make_backend(), cfg);
  Rng rng(22);
  // Planned cost under the default CostModel is ~seconds; a millisecond
  // deadline is unmeetable before the job even queues.
  SortJobSpec hopeless = spec_of("hopeless");
  hopeless.deadline_s = 1e-3;
  const JobId r =
      svc.submit<u64>(hopeless, make_keys(8 * kMem, Dist::kPermutation, rng));
  const JobInfo rejected = svc.wait(r);
  EXPECT_EQ(rejected.state, JobState::kRejected);
  EXPECT_NE(rejected.error.find("deadline admission"), std::string::npos);
  // A generous deadline still admits and completes.
  SortJobSpec fine = spec_of("fine");
  fine.deadline_s = 3600;
  const JobId a =
      svc.submit<u64>(fine, make_keys(8 * kMem, Dist::kPermutation, rng));
  EXPECT_EQ(svc.wait(a).state, JobState::kDone);
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(SortService, RetentionEvictsTerminalRecords)
{
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.retain_terminal_max = 3;
  SortService svc(make_backend(), cfg);
  Rng rng(23);
  std::atomic<int> ok{0}, bad{0};
  for (int i = 0; i < 8; ++i) {
    submit_verified(svc, spec_of("r" + std::to_string(i)),
                    make_keys(2 * kMem, Dist::kPermutation, rng), ok, bad);
  }
  svc.drain();
  const ServiceStats st = svc.stats();
  // Lifetime counters see all 8; the record store is bounded at 3.
  EXPECT_EQ(st.submitted, 8u);
  EXPECT_EQ(st.completed, 8u);
  EXPECT_EQ(st.retained, 3u);
  EXPECT_EQ(st.evicted, 5u);
  EXPECT_EQ(svc.jobs().size(), 3u);
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(bad.load(), 0);

  // TTL mode: every record older than the (tiny) TTL is dropped as soon
  // as a later job goes terminal; only records younger than the TTL — in
  // practice the last transition — survive.
  ServiceConfig ttl_cfg;
  ttl_cfg.workers = 1;
  ttl_cfg.retain_ttl_s = 1e-9;
  SortService ttl_svc(make_backend(), ttl_cfg);
  for (int i = 0; i < 4; ++i) {
    submit_verified(ttl_svc, spec_of("t" + std::to_string(i)),
                    make_keys(2 * kMem, Dist::kPermutation, rng), ok, bad);
  }
  ttl_svc.drain();
  const ServiceStats ts = ttl_svc.stats();
  EXPECT_EQ(ts.completed, 4u);
  EXPECT_LE(ts.retained, 1u);
  EXPECT_GE(ts.evicted, 3u);
}

TEST(SortService, DeadlineMissIsRecorded)
{
  ServiceConfig cfg;
  cfg.workers = 1;
  SortService svc(make_backend(200), cfg);
  Rng rng(9);
  SortJobSpec tight = spec_of("tight");
  tight.deadline_s = 1e-9;  // unmeetable
  const JobId id =
      svc.submit<u64>(tight, make_keys(4 * kMem, Dist::kPermutation, rng));
  const JobInfo info = svc.wait(id);
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_TRUE(info.deadline_missed);
  EXPECT_EQ(svc.stats().deadline_missed, 1u);
}

}  // namespace
}  // namespace pdm
