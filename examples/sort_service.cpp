// Sort-as-a-service demo: submit a mixed workload of concurrent sort
// jobs to a pdm::SortService over one shared simulated disk array, then
// print the per-job outcomes and the serving aggregates.
//
//   ./example_sort_service                       # built-in mixed workload
//   ./example_sort_service --workers=8 --latency_us=100
//   ./example_sort_service --spec=workload.txt
//   ./example_sort_service --trace-out=trace.json --metrics=1
//
// --trace-out=FILE enables the phase tracer and dumps Chrome trace_event
// JSON on exit; --metrics=1 prints the metrics registry after the run.
//
// Spec file: one job per line, '#' comments:
//   <name> <type:u64|kv64|i32> <n> <mem_records> [priority] [deadline_ms]
// e.g.
//   weblog   u64  16384 4096 1
//   sessions kv64  8192 4096 0 500
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pdm/memory_backend.h"
#include "service/sort_service.h"
#include "util/cli.h"
#include "util/generators.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/trace.h"

using namespace pdm;

namespace {

struct JobLine {
  std::string name;
  std::string type;
  u64 n = 0;
  u64 mem = 0;
  int priority = 0;
  double deadline_ms = 0;
};

std::vector<JobLine> parse_spec(const std::string& path) {
  std::ifstream in(path);
  PDM_CHECK(in.good(), "cannot open spec file: " + path);
  std::vector<JobLine> jobs;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    JobLine j;
    if (!(ls >> j.name >> j.type >> j.n >> j.mem)) continue;
    ls >> j.priority >> j.deadline_ms;
    jobs.push_back(std::move(j));
  }
  PDM_CHECK(!jobs.empty(), "spec file has no jobs: " + path);
  return jobs;
}

std::vector<JobLine> default_workload(u64 mem) {
  std::vector<JobLine> jobs;
  const char* types[] = {"u64", "kv64", "i32"};
  const u64 sizes[] = {mem / 2, 2 * mem, 4 * mem, 8 * mem};
  int i = 0;
  for (u64 n : sizes) {
    for (const char* t : types) {
      jobs.push_back(JobLine{std::string(t) + "-" + std::to_string(n), t, n,
                             mem, i % 3, 0});
      ++i;
    }
  }
  // A burst of tiny same-type jobs at the tail: these queue up behind the
  // big sorts and backfill workers as memory frees.
  for (int b = 0; b < 6; ++b) {
    jobs.push_back(JobLine{"u64-burst-" + std::to_string(b), "u64", mem / 4,
                           mem, 0, 0});
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const u64 mem = cli.get_u64("mem", 4096);
  const auto jobs = cli.has("spec") ? parse_spec(cli.get("spec", ""))
                                    : default_workload(mem);
  const std::string trace_out = cli.get("trace-out", "");
  const bool print_metrics = cli.get_u64("metrics", 0) != 0;
  if (!trace_out.empty()) {
    trace::TraceLog::instance().set_enabled(true);
    trace::TraceLog::instance().set_thread_name("main");
  }

  const u64 s = isqrt(mem);
  PDM_CHECK(s * s == mem, "--mem must be a perfect square");
  const u32 disks = static_cast<u32>(std::max<u64>(1, s / 4));
  auto backend =
      std::make_shared<MemoryDiskBackend>(disks, s * sizeof(KV64));
  backend->set_simulated_latency_us(cli.get_u64("latency_us", 100));

  ServiceConfig cfg;
  cfg.workers = static_cast<usize>(cli.get_u64("workers", 4));
  cfg.io_depth_total = static_cast<usize>(cli.get_u64("io_depth", 8));
  cfg.total_memory_bytes =
      static_cast<usize>(cli.get_u64("service_mb", 256)) << 20;
  SortService svc(backend, cfg);

  std::cout << "SortService: " << cfg.workers << " workers, D = " << disks
            << ", io_depth_total = " << cfg.io_depth_total << ", budget = "
            << (cfg.total_memory_bytes >> 20) << " MiB, " << jobs.size()
            << " jobs\n\n";

  Rng rng(cli.get_u64("seed", 1));
  std::atomic<u64> verified{0};
  std::vector<JobId> ids;
  for (const JobLine& line : jobs) {
    SortJobSpec spec;
    spec.name = line.name;
    spec.mem_records = line.mem;
    spec.priority = line.priority;
    spec.deadline_s = line.deadline_ms / 1000.0;
    auto verify = [&verified](const auto& res) {
      auto v = res.output.read_all();
      for (usize i = 1; i < v.size(); ++i) {
        PDM_CHECK(!(v[i] < v[i - 1]), "service output not sorted");
      }
      ++verified;
    };
    const usize count = static_cast<usize>(line.n);
    if (line.type == "u64") {
      ids.push_back(svc.submit<u64>(spec, make_keys(count, Dist::kZipf, rng),
                                    std::less<u64>{}, verify));
    } else if (line.type == "kv64") {
      ids.push_back(svc.submit<KV64>(spec,
                                     make_kv(count, Dist::kUniform, rng),
                                     std::less<KV64>{}, verify));
    } else if (line.type == "i32") {
      std::vector<std::int32_t> data(count);
      for (auto& x : data) x = static_cast<std::int32_t>(rng.next());
      ids.push_back(svc.submit<std::int32_t>(
          spec, std::move(data), std::less<std::int32_t>{}, verify));
    } else {
      fail("unknown record type in spec: " + line.type);
    }
  }
  svc.drain();

  Table t({"job", "state", "algorithm", "n", "passes", "queue_ms", "run_ms",
           "deadline_ok"});
  for (JobId id : ids) {
    const JobInfo j = svc.info(id);
    t.row()
        .cell(j.name)
        .cell(job_state_name(j.state))
        .cell(j.algorithm.empty() ? "-" : j.algorithm)
        .cell(j.n)
        .cell(j.state == JobState::kDone ? fmt_double(j.report.passes, 2)
                                         : std::string("-"))
        .cell(j.queue_s * 1e3, 1)
        .cell(j.run_s * 1e3, 1)
        .cell(!j.deadline_missed);
  }
  t.print(std::cout);

  const ServiceStats st = svc.stats();
  std::cout << "jobs: " << st.completed << " done, " << st.failed
            << " failed, " << st.cancelled << " cancelled, " << st.rejected
            << " rejected; " << verified.load() << " outputs verified\n"
            << "throughput: " << fmt_double(st.jobs_per_sec, 1)
            << " jobs/s over a " << fmt_double(st.busy_window_s, 3)
            << "s busy window; queue p50 "
            << fmt_double(st.queue_p50_s * 1e3, 1) << "ms, p99 "
            << fmt_double(st.queue_p99_s * 1e3, 1) << "ms\n"
            << "planner: " << st.plan_cache_misses << " plans computed, "
            << st.plan_cache_hits << " reused; " << st.batches_run
            << " worker tasks for " << st.submitted << " jobs\n"
            << "memory: peak reservations "
            << fmt_count(st.peak_memory_bytes) << "B of "
            << fmt_count(cfg.total_memory_bytes) << "B\n"
            << "service I/O: " << st.io.total_ops() << " parallel ops, "
            << st.io.total_blocks() << " blocks, utilization "
            << fmt_double(st.io.utilization(), 2) << "/" << disks << "\n";
  if (print_metrics) {
    std::cout << "\n-- metrics --\n" << metrics::Registry::global().text();
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
  // Nonzero exit on any failure so CI smoke runs catch regressions.
  if (st.failed != 0 || st.rejected != 0 ||
      verified.load() != st.completed) {
    std::cerr << "FAIL: " << st.failed << " failed, " << st.rejected
              << " rejected, " << verified.load() << "/" << st.completed
              << " verified\n";
    return 1;
  }
  return 0;
}
