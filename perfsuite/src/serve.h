// Serving through pdm::Cluster: a closed loop of client threads, each
// submitting a job, waiting for it, then submitting the next. Every job's
// output is verified inside its completion callback, the only window in
// which the output run is still alive.
#pragma once

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "pdm/backend_factory.h"
#include "support.h"

namespace suite {

/// The counters of a served loop, summed over the clusters that served it.
struct ServeTotals {
  u64 submitted = 0;
  u64 completed = 0;
  u64 batches_run = 0;
  u64 held_total = 0;
  u64 stolen = 0;
  u64 plan_cache_hits = 0;
  u64 plan_cache_lookups = 0;
  usize peak_memory_bytes = 0;     // the largest of any one cluster
  std::vector<u64> jobs_per_shard;  // by shard index
  std::vector<u64> blocks_per_shard;

  void add(const pdm::ClusterStats& st) {
    submitted += st.submitted;
    completed += st.completed;
    batches_run += st.batches_run;
    held_total += st.held_total;
    stolen += st.stolen;
    for (const auto& sh : st.per_shard) {
      plan_cache_hits += sh.plan_cache_hits;
      plan_cache_lookups += sh.plan_cache_hits + sh.plan_cache_misses;
    }
    peak_memory_bytes = std::max(peak_memory_bytes, st.peak_memory_bytes);
    add_by_shard(jobs_per_shard, st.jobs_per_shard);
    add_by_shard(blocks_per_shard, st.blocks_per_shard);
  }

 private:
  static void add_by_shard(std::vector<u64>& into,
                           const std::vector<u64>& xs) {
    into.resize(std::max(into.size(), xs.size()));
    for (usize i = 0; i < xs.size(); ++i) into[i] += xs[i];
  }
};

/// The clusters a closed loop serves on. A shard's block allocator keeps
/// every block a job wrote after the job ends, so its disk files grow with
/// every job (on serve_mixed by about 12 MB per file per job the cluster
/// serves) and without bound: one cluster serving a 25 s loop wrote 8.7 GB
/// files. The loop therefore runs on a succession of clusters: after
/// `jobs_per_cluster` submissions the next job goes to a fresh cluster
/// under its own directory, and the previous one is destroyed, files and
/// all, once its last job is done. Jobs in flight never wait for the switch.
class ClusterSeries {
 public:
  ClusterSeries(pdm::ClusterConfig cfg, u32 disks, usize block_bytes,
                std::string dir, u64 jobs_per_cluster)
      : cfg_(std::move(cfg)),
        disks_(disks),
        block_bytes_(block_bytes),
        dir_(std::move(dir)),
        jobs_per_cluster_(jobs_per_cluster) {}

  ~ClusterSeries() { retire(); }

  ClusterSeries(const ClusterSeries&) = delete;
  ClusterSeries& operator=(const ClusterSeries&) = delete;

  /// The cluster the next job goes to.
  std::shared_ptr<pdm::Cluster> next() {
    std::shared_ptr<pdm::Cluster> old;  // released after the unlock
    std::lock_guard g(mu_);
    if (current_ == nullptr || taken_ == jobs_per_cluster_) {
      old = std::move(current_);
      current_ = make();
      taken_ = 0;
    }
    ++taken_;
    return current_;
  }

  /// Lets the current cluster go and returns the totals of every cluster
  /// in the series. Call once no job holds a cluster.
  ServeTotals retire() {
    std::shared_ptr<pdm::Cluster> last;
    {
      std::lock_guard g(mu_);
      last = std::move(current_);
    }
    last.reset();
    std::lock_guard g(totals_mu_);
    return totals_;
  }

 private:
  std::shared_ptr<pdm::Cluster> make() {
    const std::string dir = dir_ + "/c" + std::to_string(made_++);
    return std::shared_ptr<pdm::Cluster>(
        new pdm::Cluster(
            pdm::file_backend_factory(disks_, block_bytes_, dir), cfg_),
        [this, dir](pdm::Cluster* c) {
          const pdm::ClusterStats st = c->stats();
          delete c;
          std::error_code ec;
          std::filesystem::remove_all(dir, ec);
          std::lock_guard g(totals_mu_);
          totals_.add(st);
        });
  }

  const pdm::ClusterConfig cfg_;
  const u32 disks_;
  const usize block_bytes_;
  const std::string dir_;
  const u64 jobs_per_cluster_;

  std::mutex mu_;  // guards current_, taken_, made_
  std::shared_ptr<pdm::Cluster> current_;
  u64 taken_ = 0;
  u64 made_ = 0;

  std::mutex totals_mu_;
  ServeTotals totals_;
};

struct ServeJob {
  pdm::SortJobSpec spec;
  std::vector<u64> keys;
  Fingerprint fp;  // of keys
};

struct JobRecord {
  double latency_s = 0;  // submit -> wait() returns
  double submit_s = 0;   // the Cluster::submit call
  double queue_s = 0;    // JobInfo: submit -> start
  double run_s = 0;      // JobInfo: start -> terminal
};

struct LoopResult {
  std::vector<JobRecord> jobs;  // completed and verified
  double wall_s = 0;
  double bytes = 0;       // input bytes of completed jobs
  double ops = 0;         // parallel I/O ops of completed jobs' sorts
  double pass_units = 0;  // their 2N/(DB): ops / pass_units = passes
};

/// Runs `clients` closed-loop clients against `series` until `seconds`
/// pass or `max_jobs` jobs were taken; job i is `make(i)`, and i is its
/// span id. A job that does not finish kDone, or whose output fails
/// verification, counts as failed.
inline LoopResult closed_loop(ClusterSeries& series, usize clients,
                              double seconds, u64 max_jobs,
                              const std::function<ServeJob(u64)>& make,
                              SpanLog& log, Result& res) {
  LoopResult out;
  std::mutex mu;  // guards out and res
  std::atomic<u64> next{0};
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration<double>(seconds);

  auto client = [&](u32 lane) {
    while (Clock::now() < t_end) {
      const u64 i = next.fetch_add(1);
      if (i >= max_jobs) break;
      try {
        ServeJob job = make(i);
        const Fingerprint fp = job.fp;
        const double bytes =
            static_cast<double>(job.keys.size() * sizeof(u64));
        auto verdict = std::make_shared<std::string>("output never delivered");
        const std::shared_ptr<pdm::Cluster> cluster = series.next();
        const auto a = Clock::now();
        const pdm::JobId id = cluster->submit<u64>(
            std::move(job.spec), std::move(job.keys), std::less<u64>{},
            [verdict, fp](const pdm::SortResult<u64>& r) {
              *verdict = verify_sorted_permutation(r.output, fp);
            });
        const auto b = Clock::now();
        const pdm::JobInfo info = cluster->wait(id);
        const auto c = Clock::now();
        log.add("cluster.submit", i, a, b, lane);
        const auto start = a + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(info.queue_s));
        log.add("service.queue", i, a, start, lane);
        log.add("service.run", i, start,
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(info.run_s)),
                lane);
        log.add("client.wait", i, b, c, lane);

        std::lock_guard g(mu);
        ++res.attempted;
        if (info.state != pdm::JobState::kDone) {
          res.fail(std::string("job ") + pdm::job_state_name(info.state) +
                   ": " + info.error);
        } else if (!verdict->empty()) {
          res.fail(*verdict);
        } else {
          out.jobs.push_back(JobRecord{seconds_between(a, c),
                                       seconds_between(a, b), info.queue_s,
                                       info.run_s});
          const pdm::SortReport& rep = info.report;
          out.bytes += bytes;
          out.ops += static_cast<double>(rep.io.total_ops());
          out.pass_units += 2.0 * static_cast<double>(rep.n) /
                            static_cast<double>(rep.rpb * rep.disks);
        }
      } catch (const std::exception& e) {
        std::lock_guard g(mu);
        ++res.attempted;
        res.fail(e.what());
      }
    }
  };
  {
    std::vector<std::jthread> threads;  // joined at the end of this scope
    for (usize c = 0; c < clients; ++c) {
      threads.emplace_back(client, static_cast<u32>(c));
    }
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

/// serve_mixed's end-to-end metrics, all but setup_s.
inline void add_loop_metrics(Result& res, const LoopResult& loop,
                             const ServeTotals& st) {
  std::vector<double> lat;
  for (const auto& j : loop.jobs) lat.push_back(j.latency_s);
  res.add("sort_mbps", loop.bytes / 1e6 / loop.wall_s, "MB/s");
  res.add("job_p50_s", median(lat), "s");
  res.add("job_tail_s", tail(lat), "s");
  res.add("passes", loop.ops / loop.pass_units, "passes");
  res.add("peak_mem_mb", static_cast<double>(st.peak_memory_bytes) / 1e6,
          "MB");
}

/// The service and cluster layer metrics of a loop.
inline void add_serving_metrics(Result& res, const LoopResult& loop,
                                const ServeTotals& st) {
  std::vector<double> queue, run, submit;
  for (const auto& j : loop.jobs) {
    queue.push_back(j.queue_s);
    run.push_back(j.run_s);
    submit.push_back(j.submit_s);
  }
  const double submitted = static_cast<double>(std::max<u64>(1, st.submitted));
  res.add("service.queue_p50_s", median(queue), "s");
  res.add("service.queue_tail_s", tail(queue), "s");
  res.add("service.run_p50_s", median(run), "s");
  res.add("service.plan_cache_hit_ratio",
          st.plan_cache_lookups == 0
              ? 0.0
              : static_cast<double>(st.plan_cache_hits) /
                    static_cast<double>(st.plan_cache_lookups),
          "ratio");
  res.add("service.jobs_per_batch",
          static_cast<double>(st.completed) /
              static_cast<double>(std::max<u64>(1, st.batches_run)),
          "jobs/batch");
  res.add("cluster.submit_p50_us", median(submit) * 1e6, "us");
  res.add("cluster.held_frac", static_cast<double>(st.held_total) / submitted,
          "ratio");
  res.add("cluster.stolen_frac", static_cast<double>(st.stolen) / submitted,
          "ratio");
  res.add("cluster.job_imbalance", pdm::imbalance_ratio(st.jobs_per_shard),
          "ratio");
  res.add("cluster.io_imbalance", pdm::imbalance_ratio(st.blocks_per_shard),
          "ratio");
}

}  // namespace suite
