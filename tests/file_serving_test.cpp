// Serving over real files: concurrent sort jobs through FileDiskBackend
// (pread/pwrite fd contention, real page cache) rather than the memory
// backend — the service is backend-agnostic and this is the proof. Both
// the single service and the sharded cluster (one directory of disk
// files per shard) are exercised; the file must be TSan-clean (CI runs
// it under -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "pdm/backend_factory.h"
#include "pdm/file_backend.h"
#include "test_support.h"
#include "util/generators.h"

namespace pdm {
namespace {

constexpr u64 kMem = 1024;
constexpr usize kBlockBytes = 256;
constexpr u32 kDisks = 4;

SortJobSpec spec_of(std::string name) {
  SortJobSpec s;
  s.name = std::move(name);
  s.mem_records = kMem;
  return s;
}

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

TEST(FileServing, ConcurrentJobsOverFileBackend)
{
  const std::string dir = "/tmp/pdmsort_file_service_test";
  {
    auto backend =
        std::make_shared<FileDiskBackend>(kDisks, kBlockBytes, dir);
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.io_depth_total = 8;
    SortService svc(backend, cfg);
    Rng rng(1);
    std::atomic<int> ok{0}, bad{0};
    std::vector<JobId> ids;
    for (int i = 0; i < 12; ++i) {
      const u64 n = (i % 3 + 1) * 2 * kMem;
      ids.push_back(submit_verified(
          svc, spec_of("f" + std::to_string(i)),
          make_keys(static_cast<usize>(n), Dist::kPermutation, rng), ok,
          bad));
    }
    svc.drain();
    for (JobId id : ids) EXPECT_EQ(svc.wait(id).state, JobState::kDone);
    EXPECT_EQ(ok.load(), 12);
    EXPECT_EQ(bad.load(), 0);

    // The accounting invariant holds over real files too.
    const ServiceStats st = svc.stats();
    IoStats sum;
    sum.reset(kDisks);
    for (const JobInfo& j : svc.jobs()) {
      sum.read_ops += j.io.read_ops;
      sum.write_ops += j.io.write_ops;
      sum.blocks_read += j.io.blocks_read;
      sum.blocks_written += j.io.blocks_written;
    }
    EXPECT_EQ(sum.read_ops, st.io.read_ops);
    EXPECT_EQ(sum.write_ops, st.io.write_ops);
    EXPECT_EQ(sum.blocks_read, st.io.blocks_read);
    EXPECT_EQ(sum.blocks_written, st.io.blocks_written);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileServing, DeadlineCalibrationLearnsWallClock)
{
  const std::string dir = "/tmp/pdmsort_cal_test";
  {
    auto backend =
        std::make_shared<FileDiskBackend>(kDisks, kBlockBytes, dir);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.deadline_admission = true;  // calibration is on by default
    // A cost model that over-prices this backend by orders of magnitude:
    // model time says minutes per job, the real files take milliseconds.
    // Uncalibrated deadline admission would turn away perfectly
    // serviceable work.
    cfg.cost.seek_s = 1.0;
    cfg.cost.bytes_per_s = 1.0e3;
    SortService svc(backend, cfg);
    Rng rng(41);
    // Uncalibrated, a 10 s deadline reads as unmeetable (model estimate
    // is ~minutes) and the job is rejected up front.
    SortJobSpec early = spec_of("early");
    early.deadline_s = 10.0;
    const JobInfo rejected = svc.wait(
        svc.submit<u64>(early, make_keys(4 * kMem, Dist::kPermutation,
                                         rng)));
    EXPECT_EQ(rejected.state, JobState::kRejected);
    EXPECT_NE(rejected.error.find("deadline admission"), std::string::npos);
    // Training: undeadlined jobs of the same shape complete in wall-clock
    // milliseconds, pulling the EMA of observed-over-modeled seconds far
    // below 1.
    std::atomic<int> ok{0}, bad{0};
    for (int i = 0; i < 4; ++i) {
      submit_verified(svc, spec_of("train" + std::to_string(i)),
                      make_keys(4 * kMem, Dist::kPermutation, rng), ok, bad);
    }
    svc.drain();
    EXPECT_EQ(ok.load(), 4);
    EXPECT_EQ(bad.load(), 0);
    const double cal = svc.stats().deadline_cal;
    EXPECT_GT(cal, 0.0);
    EXPECT_LT(cal, 0.01) << "file backend should run far under this model";
    // Calibrated, the identical deadlined job is admitted — and makes its
    // deadline comfortably.
    SortJobSpec late = spec_of("late");
    late.deadline_s = 10.0;
    const JobInfo admitted = svc.wait(
        svc.submit<u64>(late, make_keys(4 * kMem, Dist::kPermutation,
                                        rng)));
    EXPECT_EQ(admitted.state, JobState::kDone);
    EXPECT_FALSE(admitted.deadline_missed);
    EXPECT_EQ(svc.stats().rejected, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileServing, ClusterOverPerShardFileArrays)
{
  const std::string dir = "/tmp/pdmsort_file_cluster_test";
  {
    ClusterConfig cfg;
    cfg.shards = 2;
    cfg.shard.workers = 2;
    Cluster cluster(file_backend_factory(kDisks, kBlockBytes, dir), cfg);
    // Each shard got its own directory of disk files.
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard000/disk000.bin"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard001/disk000.bin"));
    Rng rng(2);
    std::atomic<u64> verified{0};
    std::vector<JobId> ids;
    const char* tenants[] = {"t0", "t1", "t2", "t3"};
    for (int i = 0; i < 8; ++i) {
      SortJobSpec spec = spec_of("c" + std::to_string(i));
      spec.locality_key = tenants[i % 4];
      ids.push_back(cluster.submit<u64>(
          spec, make_keys(2 * kMem, Dist::kPermutation, rng),
          std::less<u64>{}, [&verified](const SortResult<u64>& res) {
            auto v = res.output.read_all();
            for (usize k = 1; k < v.size(); ++k) {
              PDM_CHECK(v[k - 1] <= v[k], "cluster file output unsorted");
            }
            ++verified;
          }));
    }
    cluster.drain();
    for (JobId id : ids) EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
    EXPECT_EQ(verified.load(), 8u);
    const ClusterStats st = cluster.stats();
    EXPECT_EQ(st.completed, 8u);
    // 8 jobs for 4 workers: both shards' file arrays served jobs.
    ASSERT_EQ(st.jobs_per_shard.size(), 2u);
    EXPECT_GT(st.jobs_per_shard[0], 0u);
    EXPECT_GT(st.jobs_per_shard[1], 0u);
    for (usize s = 0; s < 2; ++s) {
      EXPECT_GT(st.per_shard[s].io.total_blocks(), 0u) << "shard " << s;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pdm
