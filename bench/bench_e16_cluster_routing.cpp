// E16 — cluster routing: jobs/sec and shard imbalance vs shard count, on
// a FIXED aggregate hardware budget (total disks, workers, memory and
// async depth are divided among the shards), under the cluster's one
// dispatch path and placement rule (see cluster.h).
//
// The backend runs the locality-aware occupancy model (StreamModel): each
// disk serves a handful of sequential streams cheaply and charges a seek
// for anything past its stream cache, against a per-disk busy-until
// clock. One big shard interleaves every tenant on every disk — the
// stream caches thrash and ops cost seeks; sharding gives each disk group
// one job at a time, accesses stay sequential, and the same aggregate
// hardware serves a multiple of the jobs/sec. Pass counts are unchanged
// throughout (the paper's bounds are per-array properties — asserted
// against the one-shard baseline per job).
//
// Gates (PR acceptance): at 4 shards, jobs/sec must be at least `--gate`
// (default 1.5) times the 1-shard arm; and the elasticity arm — a live
// 2→4 scale-out mid-workload (add_shard while jobs are parked in the
// cluster hold queue; the newcomers steal the backlog) — must complete
// every job and reach `--elastic_gate` (default 1.2) times the static
// 2-shard baseline's jobs/sec, with per-job pass counts still pinned to
// the 1-shard baseline. --gate=0 / --elastic_gate=0 disable. An optional
// arm repeats 1-vs-4 shards over FileDiskBackend (real fds + page cache,
// no simulated latency; reported, not gated).
#include <filesystem>
#include <memory>

#include "bench_support.h"
#include "cluster/cluster.h"
#include "pdm/backend_factory.h"
#include "pdm/memory_backend.h"

using namespace pdm;
using namespace pdm::bench;

namespace {

struct ArmResult {
  usize shards = 0;
  double makespan_s = 0;
  double jobs_per_sec = 0;
  double speedup = 0;
  double job_imbalance = 0;
  double io_imbalance = 0;
  double stream_hit_rate = 0;
  bool passes_equal = true;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  banner("E16 / cluster routing",
         "Sharded multi-context serving on a fixed aggregate hardware "
         "budget: jobs/sec and imbalance vs shard count, per-job pass "
         "counts pinned to the 1-shard baseline.");

  const u64 mem = cli.get_u64("m", 16384);
  const u64 rpb = isqrt(mem);
  PDM_CHECK(rpb * rpb == mem, "--m must be a perfect square");
  const u32 disks_total = static_cast<u32>(cli.get_u64("disks", 8));
  const usize workers_total = static_cast<usize>(cli.get_u64("workers", 4));
  const u64 num_jobs = cli.get_u64("jobs", 48);
  const u64 tenants = cli.get_u64("tenants", 8);
  const double gate = cli.get_double("gate", 1.5);
  const double elastic_gate = cli.get_double("elastic_gate", 1.2);
  const bool file_arm = cli.get_u64("file_arm", 1) != 0;
  const std::string json_out = cli.get("json_out", "BENCH_PR14.json");
  // --trace_out=FILE / --metrics=1: phase-tracer dump and metrics
  // registry exposition (shared serving-bench flags, bench_support.h).
  const std::string trace_out = trace_begin(cli);

  StreamModel stream;
  stream.seq_us = cli.get_u64("seq_us", 10);
  stream.seek_us = cli.get_u64("seek_us", 200);
  stream.streams = static_cast<u32>(cli.get_u64("streams", 2));
  stream.window_blocks = cli.get_u64("window", 8);

  // Internal-sort-sized tenant jobs in three sizes: each needs at most
  // two streams per disk (its staged input region and its output
  // frontier), so a dedicated disk group serves it at seq_us, while
  // mixed-size tenants interleaving on one big array cycle more distant
  // regions than the stream cache holds and pay seek_us. Sizes are
  // multiples of rpb * disks_total so pass counts round identically at
  // every shard count. Tenant keys only feed the per-tenant metrics.
  Rng rng(7);
  std::vector<std::vector<u64>> datasets;
  std::vector<std::string> keys;
  for (u64 j = 0; j < num_jobs; ++j) {
    const u64 n = (j % 3 + 1) * (mem / 4);
    datasets.push_back(
        make_keys(static_cast<usize>(n), Dist::kPermutation, rng));
    keys.push_back("tenant-" + std::to_string(j % tenants));
  }
  std::cout << num_jobs << " jobs of " << mem / 4 << ".." << 3 * (mem / 4)
            << " records from " << tenants
            << " tenants; aggregate budget: D = " << disks_total
            << ", workers = " << workers_total << ", io_depth = 8; stream "
            << "model: seq " << stream.seq_us << "us / seek "
            << stream.seek_us << "us, window " << stream.window_blocks
            << " blocks\n\n";

  auto run_arm = [&](usize shards, std::vector<double>* passes_out,
                     const std::vector<double>* passes_base) {
    PDM_CHECK(disks_total % shards == 0 && workers_total % shards == 0,
              "shard count must divide the aggregate budget");
    std::vector<std::shared_ptr<MemoryDiskBackend>> backends;
    ClusterConfig cfg;
    cfg.shards = shards;
    cfg.shard.workers = workers_total / shards;
    cfg.shard.io_depth_total = 8 / shards;
    cfg.shard.total_memory_bytes = (usize{256} << 20) / shards;
    cfg.shard.seed = 42;
    Cluster cluster(
        [&](u32) -> std::shared_ptr<DiskBackend> {
          auto b = std::make_shared<MemoryDiskBackend>(
              disks_total / static_cast<u32>(shards),
              static_cast<usize>(rpb) * sizeof(u64));
          b->set_stream_model(stream);
          backends.push_back(b);
          return b;
        },
        cfg);

    Timer timer;
    std::vector<JobId> ids;
    for (u64 j = 0; j < num_jobs; ++j) {
      SortJobSpec spec;
      spec.name = "job" + std::to_string(j);
      spec.mem_records = mem;
      spec.locality_key = keys[static_cast<usize>(j)];
      ids.push_back(cluster.submit<u64>(
          spec, datasets[static_cast<usize>(j)], std::less<u64>{},
          [n = datasets[static_cast<usize>(j)].size()](
              const SortResult<u64>& res) {
            PDM_CHECK(res.output.size() == n, "E16: wrong output size");
            auto v = res.output.read_all();
            for (usize i = 1; i < v.size(); ++i) {
              PDM_CHECK(v[i - 1] <= v[i], "E16: output not sorted");
            }
          }));
    }
    cluster.drain();
    ArmResult r;
    r.makespan_s = timer.seconds();
    r.shards = shards;
    r.jobs_per_sec = static_cast<double>(num_jobs) / r.makespan_s;

    const ClusterStats st = cluster.stats();
    PDM_CHECK(st.completed == num_jobs, "E16: a job did not complete");
    r.job_imbalance = st.job_imbalance;
    r.io_imbalance = st.io_imbalance;
    u64 hits = 0;
    u64 misses = 0;
    for (const auto& b : backends) {
      hits += b->stream_hits();
      misses += b->stream_misses();
    }
    r.stream_hit_rate = hits + misses == 0
                            ? 0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
    for (usize j = 0; j < ids.size(); ++j) {
      const double p = cluster.info(ids[j]).report.passes;
      if (passes_out != nullptr) passes_out->push_back(p);
      if (passes_base != nullptr) {
        r.passes_equal = r.passes_equal && p == (*passes_base)[j];
      }
    }
    return r;
  };

  Table t({"shards", "makespan_s", "jobs_per_sec", "speedup", "job_imbal",
           "io_imbal", "stream_hits", "passes_equal"});
  auto add_row = [&](const ArmResult& r) {
    t.row()
        .cell(u64{r.shards})
        .cell(r.makespan_s, 3)
        .cell(r.jobs_per_sec, 1)
        .cell(r.speedup, 2)
        .cell(r.job_imbalance, 2)
        .cell(r.io_imbalance, 2)
        .cell(r.stream_hit_rate, 2)
        .cell(r.passes_equal);
  };

  std::vector<double> base_passes;
  ArmResult base = run_arm(1, &base_passes, nullptr);
  base.speedup = 1.0;
  add_row(base);

  JsonWriter jw;
  jw.begin_obj();
  jw.key("m").value(mem);
  jw.key("jobs").value(num_jobs);
  jw.key("tenants").value(tenants);
  jw.key("disks_total").value(u64{disks_total});
  jw.key("workers_total").value(u64{workers_total});
  jw.key("stream_seq_us").value(stream.seq_us);
  jw.key("stream_seek_us").value(stream.seek_us);
  jw.key("arms").begin_arr();
  auto add_json = [&](const ArmResult& r) {
    jw.begin_obj();
    jw.key("shards").value(u64{r.shards});
    jw.key("makespan_s").value(r.makespan_s);
    jw.key("jobs_per_sec").value(r.jobs_per_sec);
    jw.key("speedup_vs_one_shard").value(r.speedup);
    jw.key("job_imbalance").value(r.job_imbalance);
    jw.key("io_imbalance").value(r.io_imbalance);
    jw.key("stream_hit_rate").value(r.stream_hit_rate);
    jw.key("passes_equal").value(r.passes_equal);
    jw.end_obj();
  };
  add_json(base);

  double gate_speedup = 0;
  for (const usize shards : {usize{2}, usize{4}}) {
    ArmResult r = run_arm(shards, nullptr, &base_passes);
    r.speedup = base.makespan_s / std::max(1e-9, r.makespan_s);
    if (shards == 4) gate_speedup = r.speedup;
    PDM_CHECK(r.passes_equal, "E16: sharding changed a job's pass count");
    add_row(r);
    add_json(r);
  }
  jw.end_arr();

  // Elasticity arm: the same workload against (a) a static 2-shard
  // cluster and (b) a cluster that starts at 2 shards and live-scales to
  // 4 after a third of the submissions — per-shard hardware identical to
  // the 4-shard arms. The backlog parks in the cluster hold queue; the
  // two newcomers join the active set and take it. Gate: every job
  // completes, and the scale-out beats the
  // static 2-shard baseline's jobs/sec by >= --elastic_gate.
  auto run_elastic = [&](bool grow) {
    ClusterConfig cfg;
    cfg.shards = 2;
    cfg.shard.workers = std::max<usize>(1, workers_total / 4);
    cfg.shard.io_depth_total = 2;
    cfg.shard.total_memory_bytes = (usize{256} << 20) / 4;
    cfg.shard.seed = 42;
    Cluster cluster(
        [&](u32) -> std::shared_ptr<DiskBackend> {
          auto b = std::make_shared<MemoryDiskBackend>(
              disks_total / 4, static_cast<usize>(rpb) * sizeof(u64));
          b->set_stream_model(stream);
          return b;
        },
        cfg);
    Timer timer;
    std::vector<JobId> ids;
    for (u64 j = 0; j < num_jobs; ++j) {
      if (grow && j == num_jobs / 3) {
        cluster.add_shard();
        cluster.add_shard();
      }
      SortJobSpec spec;
      spec.name = "ejob" + std::to_string(j);
      spec.mem_records = mem;
      spec.locality_key = keys[static_cast<usize>(j)];
      ids.push_back(
          cluster.submit<u64>(spec, datasets[static_cast<usize>(j)]));
    }
    cluster.drain();
    const double makespan = timer.seconds();
    const ClusterStats st = cluster.stats();
    PDM_CHECK(st.completed == num_jobs,
              "E16 elastic arm: a job was lost");
    for (usize j = 0; j < ids.size(); ++j) {
      PDM_CHECK(cluster.info(ids[j]).report.passes == base_passes[j],
                "E16 elastic arm: scale-out changed a job's pass count");
    }
    return std::make_pair(makespan, st);
  };
  const auto [static2_s, static2_st] = run_elastic(false);
  const auto [elastic_s, elastic_st] = run_elastic(true);
  const double elastic_speedup = static2_s / std::max(1e-9, elastic_s);
  std::cout << "\nElasticity arm (2 -> 4 live scale-out at 1/3 of "
            << "submissions):\n";
  Table et({"arm", "makespan_s", "jobs_per_sec", "speedup", "held",
            "stolen"});
  et.row()
      .cell(std::string("static-2"))
      .cell(static2_s, 3)
      .cell(static_cast<double>(num_jobs) / static2_s, 1)
      .cell(1.0, 2)
      .cell(static2_st.held_total)
      .cell(static2_st.stolen);
  et.row()
      .cell(std::string("elastic-2to4"))
      .cell(elastic_s, 3)
      .cell(static_cast<double>(num_jobs) / elastic_s, 1)
      .cell(elastic_speedup, 2)
      .cell(elastic_st.held_total)
      .cell(elastic_st.stolen);
  et.print(std::cout);
  jw.key("elastic").begin_obj();
  jw.key("static2_makespan_s").value(static2_s);
  jw.key("static2_jobs_per_sec")
      .value(static_cast<double>(num_jobs) / static2_s);
  jw.key("elastic_makespan_s").value(elastic_s);
  jw.key("elastic_jobs_per_sec")
      .value(static_cast<double>(num_jobs) / elastic_s);
  jw.key("speedup_vs_static2").value(elastic_speedup);
  jw.key("shards_added").value(elastic_st.shards_added);
  jw.key("held_total").value(elastic_st.held_total);
  jw.key("stolen").value(elastic_st.stolen);
  jw.key("completed").value(elastic_st.completed);
  jw.key("gate").value(elastic_gate);
  jw.end_obj();

  // Real-file arm: same job set, 1 vs 4 shards over FileDiskBackend
  // (page cache + fd contention instead of the stream model; reported,
  // not gated — FS timing is too machine-dependent for CI).
  if (file_arm) {
    jw.key("file_arms").begin_arr();
    const std::string dir = "/tmp/pdmsort_e16_files";
    Table ft({"shards", "makespan_s", "jobs_per_sec"});
    for (const usize shards : {usize{1}, usize{4}}) {
      ClusterConfig cfg;
      cfg.shards = shards;
      cfg.shard.workers = workers_total / shards;
      cfg.shard.io_depth_total = 8 / shards;
      cfg.shard.total_memory_bytes = (usize{256} << 20) / shards;
      cfg.shard.seed = 42;
      Timer timer;
      {
        Cluster cluster(
            file_backend_factory(disks_total / static_cast<u32>(shards),
                                 static_cast<usize>(rpb) * sizeof(u64), dir),
            cfg);
        for (u64 j = 0; j < num_jobs; ++j) {
          SortJobSpec spec;
          spec.name = "fjob" + std::to_string(j);
          spec.mem_records = mem;
          spec.locality_key = keys[static_cast<usize>(j)];
          cluster.submit<u64>(spec, datasets[static_cast<usize>(j)]);
        }
        cluster.drain();
        const ClusterStats st = cluster.stats();
        PDM_CHECK(st.completed == num_jobs, "E16 file arm: incomplete");
      }
      const double makespan = timer.seconds();
      ft.row()
          .cell(u64{shards})
          .cell(makespan, 3)
          .cell(static_cast<double>(num_jobs) / makespan, 1);
      jw.begin_obj();
      jw.key("shards").value(u64{shards});
      jw.key("makespan_s").value(makespan);
      jw.key("jobs_per_sec").value(static_cast<double>(num_jobs) /
                                   makespan);
      jw.end_obj();
    }
    std::filesystem::remove_all(dir);
    jw.end_arr();
    t.print(std::cout);
    std::cout << "\nFileDiskBackend arm (real I/O, not gated):\n";
    ft.print(std::cout);
  } else {
    t.print(std::cout);
  }

  jw.key("speedup_at_4_shards").value(gate_speedup);
  jw.key("gate").value(gate);
  jw.end_obj();

  std::cout
      << "Expected shape: one shard interleaves every tenant on every "
         "disk, so per-disk stream caches thrash and most ops pay seeks; "
         "dedicated shard groups keep accesses sequential. Same aggregate "
         "hardware, multiplied jobs/sec, per-job pass counts untouched.\n";
  if (!json_out.empty()) {
    json_file_update(json_out, "e16_cluster_routing", jw.str());
    std::cout << "wrote section e16_cluster_routing -> " << json_out << "\n";
  }
  std::cout << "routing gate (4 shards vs 1 shard): "
            << fmt_double(gate_speedup, 2) << "x, need >= " << gate
            << "x: "
            << (gate <= 0 || gate_speedup >= gate ? "PASS" : "FAIL") << "\n";
  std::cout << "elasticity gate (live 2->4 scale-out vs static 2 shards): "
            << fmt_double(elastic_speedup, 2) << "x, need >= "
            << elastic_gate << "x: "
            << (elastic_gate <= 0 || elastic_speedup >= elastic_gate
                    ? "PASS"
                    : "FAIL")
            << "\n";
  PDM_CHECK(gate <= 0 || gate_speedup >= gate,
            "E16 gate failed: sharded throughput below threshold");
  PDM_CHECK(elastic_gate <= 0 || elastic_speedup >= elastic_gate,
            "E16 elasticity gate failed: live scale-out below the static "
            "2-shard baseline threshold");
  observability_finish(cli, trace_out);
  return 0;
}
