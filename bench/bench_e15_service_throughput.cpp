// E15 — SortService throughput under concurrency: the same mixed job set
// is served at worker counts 1/2/4/8 over one simulated-latency memory
// backend with a FIXED aggregate async-I/O budget. Reported: makespan,
// jobs/sec, p50/p99 queue latency, speedup vs the serial arm, and whether
// every job's pass count matches its single-worker baseline (contention
// must never change a job's I/O complexity — only its wall clock).
//
// Gate (PR acceptance): at 4 workers the job throughput must be at least
// `--gate` (default 1.3) times the serial arm. Sleep-driven latency makes
// this robust on loaded CI machines; --gate=0 disables the check.
#include "bench_support.h"
#include "pdm/memory_backend.h"
#include "service/sort_service.h"

using namespace pdm;
using namespace pdm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  banner("E15 / service throughput",
         "Concurrent sort jobs over shared disks + memory: jobs/sec and "
         "queue latency vs worker count, aggregate async depth fixed.");

  const u64 mem = cli.get_u64("m", 4096);
  const auto g = Geom::square(mem);
  const u64 latency_us = cli.get_u64("latency_us", 200);
  const u64 num_jobs = cli.get_u64("jobs", 8);
  const double gate = cli.get_double("gate", 1.3);
  const std::string json_out = cli.get("json_out", "BENCH_PR14.json");
  // --trace_out=FILE / --metrics=1: phase-tracer dump and metrics
  // registry exposition (shared serving-bench flags, bench_support.h).
  const std::string trace_out = trace_begin(cli);

  // The job mix: alternating medium (4M) and large (8M) u64 sorts, all
  // block- and M-aligned so the planner stays on the paper algorithms.
  Rng rng(5);
  std::vector<std::vector<u64>> datasets;
  for (u64 j = 0; j < num_jobs; ++j) {
    const u64 n = (j % 2 == 0 ? 4 : 8) * mem;
    datasets.push_back(make_keys(static_cast<usize>(n), Dist::kPermutation,
                                 rng));
  }
  std::cout << num_jobs << " jobs (" << 4 * mem << " / " << 8 * mem
            << " records), M = " << mem << ", B = " << g.rpb
            << ", D = " << g.disks << ", latency = " << latency_us
            << "us/op, io_depth_total = 8\n\n";

  Table t({"workers", "makespan_s", "jobs_per_sec", "p50_queue_s",
           "p99_queue_s", "speedup", "passes_equal"});
  std::vector<double> base_passes;
  double serial_makespan = 0;
  double speedup_at_4 = 0;

  JsonWriter jw;
  jw.begin_obj();
  jw.key("m").value(mem);
  jw.key("jobs").value(num_jobs);
  jw.key("latency_us").value(latency_us);
  jw.key("arms").begin_arr();

  for (const usize workers : {1, 2, 4, 8}) {
    auto backend =
        std::make_shared<MemoryDiskBackend>(g.disks, g.rpb * sizeof(u64));
    backend->set_simulated_latency_us(latency_us);
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.io_depth_total = 8;  // arbitrated across however many jobs run
    cfg.seed = 42;
    SortService svc(backend, cfg);

    Timer timer;
    std::vector<JobId> ids;
    for (u64 j = 0; j < num_jobs; ++j) {
      SortJobSpec spec;
      spec.name = "job" + std::to_string(j);
      spec.mem_records = mem;
      ids.push_back(svc.submit<u64>(
          spec, datasets[j], std::less<u64>{},
          [n = datasets[j].size()](const SortResult<u64>& res) {
            PDM_CHECK(res.output.size() == n, "E15: wrong output size");
            auto v = res.output.read_all();
            for (usize i = 1; i < v.size(); ++i) {
              PDM_CHECK(v[i - 1] <= v[i], "E15: output not sorted");
            }
          }));
    }
    svc.drain();
    const double makespan = timer.seconds();

    const ServiceStats st = svc.stats();
    PDM_CHECK(st.completed == num_jobs, "E15: a job did not complete");
    bool passes_equal = true;
    for (usize j = 0; j < ids.size(); ++j) {
      const JobInfo info = svc.info(ids[j]);
      PDM_CHECK(info.report.n == datasets[j].size(),
                "E15: report size mismatch");
      if (workers == 1) {
        base_passes.push_back(info.report.passes);
      } else {
        passes_equal =
            passes_equal && info.report.passes == base_passes[j];
      }
    }
    if (workers == 1) serial_makespan = makespan;
    const double speedup = serial_makespan / std::max(1e-9, makespan);
    if (workers == 4) speedup_at_4 = speedup;
    const double jps = static_cast<double>(num_jobs) / makespan;
    t.row()
        .cell(u64{workers})
        .cell(makespan, 3)
        .cell(jps, 2)
        .cell(st.queue_p50_s, 4)
        .cell(st.queue_p99_s, 4)
        .cell(speedup, 2)
        .cell(passes_equal);
    jw.begin_obj();
    jw.key("workers").value(u64{workers});
    jw.key("makespan_s").value(makespan);
    jw.key("jobs_per_sec").value(jps);
    jw.key("queue_p50_s").value(st.queue_p50_s);
    jw.key("queue_p99_s").value(st.queue_p99_s);
    jw.key("speedup_vs_serial").value(speedup);
    jw.key("passes_equal").value(passes_equal);
    jw.end_obj();
  }
  jw.end_arr();
  jw.key("speedup_at_4_workers").value(speedup_at_4);
  jw.key("gate").value(gate);
  jw.end_obj();

  t.print(std::cout);
  std::cout << "Expected shape: jobs/sec grows with workers while every "
               "job's pass count stays at its single-job baseline — "
               "concurrency buys wall-clock overlap of the per-op "
               "latency, never extra I/O.\n";
  if (!json_out.empty()) {
    json_file_update(json_out, "e15_service_throughput", jw.str());
    std::cout << "wrote section e15_service_throughput -> " << json_out
              << "\n";
    // Attach the metrics registry snapshot so the perf JSON carries its
    // counters (queue-wait histograms, tenant rollups, trace drops) next
    // to the timings.
    json_file_update(json_out, "metrics", metrics_json_section());
    std::cout << "wrote section metrics -> " << json_out << "\n";
  }
  std::cout << "throughput gate (4 workers vs serial): " << speedup_at_4
            << "x, need >= " << gate << "x: "
            << (gate <= 0 || speedup_at_4 >= gate ? "PASS" : "FAIL")
            << "\n";
  PDM_CHECK(gate <= 0 || speedup_at_4 >= gate,
            "E15 gate failed: concurrent throughput below threshold");
  observability_finish(cli, trace_out);
  return 0;
}
