// Cluster serving demo: a pdm::Cluster of SortService shards fed a
// multi-tenant workload. Prints each shard's view of the traffic, the
// placement figures (jobs per shard, parks, steals, imbalance), and the
// cluster totals with the exact-sum I/O invariant.
//
//   ./example_cluster_serve                         # 4 shards
//   ./example_cluster_serve --shards=2 --tenants=12 --jobs=64 --seek_us=400
//   ./example_cluster_serve --trace-out=trace.json --metrics=1
//   ./example_cluster_serve --introspect-every=1 --force-deadline-miss=1
//
// --trace-out=FILE enables the phase tracer and dumps Chrome trace_event
// JSON on exit (open in chrome://tracing or https://ui.perfetto.dev);
// --metrics=1 prints the metrics registry (counters/gauges/histograms,
// per-span totals) after the run. --introspect-every=N prints a live
// introspect::StateDump every N seconds while the workload runs; SIGUSR1
// triggers one on demand at any time. --force-deadline-miss=1 submits an
// extra job with an unmeetable deadline and prints its flight-recorder
// dump after the run (the black box a server would emit on a bad end).
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "pdm/backend_factory.h"
#include "util/cli.h"
#include "util/generators.h"
#include "util/jobtrace.h"
#include "util/table.h"
#include "util/trace.h"

using namespace pdm;

namespace {

// SIGUSR1 -> dump on the next monitor poll (signal-safe: flag set only).
volatile std::sig_atomic_t g_introspect_requested = 0;
void on_sigusr1(int) { g_introspect_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const usize shards = static_cast<usize>(cli.get_u64("shards", 4));
  const u64 mem = cli.get_u64("mem", 16384);
  const u64 num_jobs = cli.get_u64("jobs", 32);
  const u64 tenants = cli.get_u64("tenants", 6);
  const u32 disks_total = static_cast<u32>(cli.get_u64("disks", 8));
  const usize workers_total = static_cast<usize>(cli.get_u64("workers", 4));
  const std::string trace_out = cli.get("trace-out", "");
  const bool print_metrics = cli.get_u64("metrics", 0) != 0;
  const u64 introspect_every = cli.get_u64("introspect-every", 0);
  const bool force_deadline_miss = cli.get_u64("force-deadline-miss", 0) != 0;
  if (!trace_out.empty()) {
    trace::TraceLog::instance().set_enabled(true);
    trace::TraceLog::instance().set_thread_name("main");
  }
  std::signal(SIGUSR1, on_sigusr1);

  const u64 rpb = isqrt(mem);
  PDM_CHECK(rpb * rpb == mem, "--mem must be a perfect square");
  PDM_CHECK(disks_total % shards == 0 && workers_total % shards == 0,
            "--shards must divide --disks and --workers");

  StreamModel stream;
  stream.seq_us = cli.get_u64("seq_us", 10);
  stream.seek_us = cli.get_u64("seek_us", 200);

  ClusterConfig cfg;
  cfg.shards = shards;
  cfg.shard.workers = workers_total / shards;
  cfg.shard.io_depth_total = 8 / std::min<usize>(shards, 8);
  cfg.shard.total_memory_bytes =
      (static_cast<usize>(cli.get_u64("cluster_mb", 256)) << 20) / shards;
  cfg.shard.retain_terminal_max = 1024;  // long-lived serving: bound records
  Cluster cluster(
      memory_backend_factory(disks_total / static_cast<u32>(shards),
                             static_cast<usize>(rpb) * sizeof(u64), 0,
                             stream),
      cfg);

  std::cout << "Cluster: " << shards << " shards x " << cfg.shard.workers
            << " workers, D = " << disks_total / shards
            << " per shard, budget = "
            << (cfg.shard.total_memory_bytes >> 20) << " MiB per shard; "
            << num_jobs << " jobs from " << tenants << " tenants\n\n";

  // Live introspection: a monitor thread polls ~5x/s, dumping the cluster
  // state every --introspect-every seconds and whenever SIGUSR1 arrives.
  std::atomic<bool> monitor_stop{false};
  std::thread monitor([&] {
    auto last = std::chrono::steady_clock::now();
    while (!monitor_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const auto now = std::chrono::steady_clock::now();
      const bool periodic =
          introspect_every > 0 &&
          now - last >= std::chrono::seconds(introspect_every);
      if (periodic || g_introspect_requested) {
        g_introspect_requested = 0;
        last = now;
        std::cout << cluster.introspect_text();
      }
    }
  });

  Rng rng(cli.get_u64("seed", 1));
  std::atomic<u64> verified{0};
  std::vector<JobId> ids;
  for (u64 j = 0; j < num_jobs; ++j) {
    SortJobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.mem_records = mem;
    spec.locality_key = "tenant-" + std::to_string(j % tenants);
    spec.priority = static_cast<int>(j % 3);
    const u64 n = (j % 3 + 1) * (mem / 4);
    ids.push_back(cluster.submit<u64>(
        spec, make_keys(static_cast<usize>(n), Dist::kZipf, rng),
        std::less<u64>{}, [&verified](const SortResult<u64>& res) {
          auto v = res.output.read_all();
          for (usize i = 1; i < v.size(); ++i) {
            PDM_CHECK(!(v[i] < v[i - 1]), "cluster output not sorted");
          }
          ++verified;
        }));
  }
  // An extra job whose deadline cannot possibly be met: with admission
  // control off it runs to completion, misses, and its flight ring ends
  // in deadline_miss — the dump below is what a server's bad-end sink
  // would emit.
  JobId miss_id = 0;
  if (force_deadline_miss) {
    SortJobSpec spec;
    spec.name = "forced-deadline-miss";
    spec.mem_records = mem;
    spec.locality_key = "tenant-0";
    spec.deadline_s = 1e-6;
    miss_id = cluster.submit<u64>(
        spec, make_keys(static_cast<usize>(mem / 2), Dist::kZipf, rng),
        std::less<u64>{}, [&verified](const SortResult<u64>& res) {
          auto v = res.output.read_all();
          for (usize i = 1; i < v.size(); ++i) {
            PDM_CHECK(!(v[i] < v[i - 1]), "cluster output not sorted");
          }
          ++verified;
        });
  }
  cluster.drain();
  monitor_stop.store(true);
  monitor.join();
  if (introspect_every > 0) {
    // Final snapshot so short runs (which finish before the first periodic
    // tick) still exercise and show the dump.
    std::cout << cluster.introspect_text();
  }

  if (force_deadline_miss) {
    const JobInfo mj = cluster.info(miss_id);
    std::cout << "\n-- flight dump (forced deadline miss, state="
              << job_state_name(mj.state)
              << " missed=" << (mj.deadline_missed ? 1 : 0) << ") --\n"
              << jobtrace::FlightRecorder::instance().dump_text(mj.trace_id);
  }

  const ClusterStats st = cluster.stats();
  Table t({"shard", "jobs", "done", "failed", "jobs_per_sec", "queue_p99_ms",
           "io_blocks", "peak_mem"});
  for (usize s = 0; s < st.per_shard.size(); ++s) {
    const ServiceStats& ss = st.per_shard[s];
    t.row()
        .cell(u64{s})
        .cell(st.jobs_per_shard[s])
        .cell(ss.completed)
        .cell(ss.failed)
        .cell(ss.jobs_per_sec, 1)
        .cell(ss.queue_p99_s * 1e3, 1)
        .cell(ss.io.total_blocks())
        .cell(fmt_count(ss.peak_memory_bytes) + "B");
  }
  t.print(std::cout);

  // The invariant the stats are built on: shard totals sum exactly to the
  // cluster totals.
  u64 shard_blocks = 0;
  for (const ServiceStats& ss : st.per_shard) {
    shard_blocks += ss.io.total_blocks();
  }
  std::cout << "cluster: " << st.completed << " done, " << st.failed
            << " failed, " << st.rejected << " rejected ("
            << st.held_rejected << " before reaching a shard); "
            << verified.load() << " verified\n"
            << "placement: " << st.held_total << " parked, " << st.stolen
            << " stolen\n"
            << "throughput: " << fmt_double(st.jobs_per_sec, 1)
            << " jobs/s; imbalance: jobs "
            << fmt_double(st.job_imbalance, 2) << "x, io "
            << fmt_double(st.io_imbalance, 2) << "x (1.0 = even)\n"
            << "I/O: " << st.io.total_ops() << " parallel ops, "
            << st.io.total_blocks() << " blocks (shard sum " << shard_blocks
            << ": " << (shard_blocks == st.io.total_blocks() ? "exact" : "MISMATCH")
            << ")\n";
  if (print_metrics) {
    std::cout << "\n-- metrics --\n" << cluster.metrics_text();
  }
  if (!trace_out.empty()) {
    if (trace::TraceLog::instance().write_chrome_json(trace_out)) {
      std::cout << "trace: wrote " << trace_out << " ("
                << trace::TraceLog::instance().snapshot().size()
                << " events, " << trace::TraceLog::instance().dropped()
                << " dropped)\n";
    } else {
      std::cerr << "trace: could not write " << trace_out << "\n";
    }
  }
  if (st.failed != 0 || st.rejected != 0 ||
      verified.load() != st.completed ||
      shard_blocks != st.io.total_blocks()) {
    std::cerr << "FAIL: failed=" << st.failed << " rejected=" << st.rejected
              << " verified=" << verified.load() << "/" << st.completed
              << "\n";
    return 1;
  }
  return 0;
}
