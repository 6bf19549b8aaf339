// E18 — one giant sort across the cluster (distributed sample-sort).
//
// The paper's bounds are per-array: a dataset several times one shard's
// working size either doesn't fit a single shard or falls off the small-
// pass capacity cliff (cap_expected_two_pass ~ M^1.5) and pays extra
// passes. Cluster::submit_distributed splits the giant dataset by sampled
// splitters into P contiguous key ranges, sorts each range on its own
// shard with the paper's small-pass algorithms, exports the sorted ranges
// through the extent layer and concatenates in splitter order.
//
// This bench sorts a dataset ~P x one shard's job size two ways:
//
//  - baseline: a 1-shard cluster runs the whole dataset as one job
//    (feasible here — the memory backend grows on demand — but over the
//    2-pass capacity, so the planner falls back to ThreePassLmm);
//  - distributed: a P-shard cluster runs the same dataset through
//    submit_distributed; every range stays under the 2-pass capacity.
//
// Gated: distributed wall clock must beat the single shard by
// >= --dist_gate (default 2.5x at P = 4; P-way parallelism multiplied by
// the 3-pass -> 2-pass cliff can push well past Px, the export read and
// splitter work eat some of it back). Correctness is checked
// exactly (distributed output == baseline output), and every range's
// algorithm + pass count must match choose_plan for its size — the
// per-shard paper bounds.
#include <algorithm>

#include "bench_support.h"
#include "cluster/cluster.h"
#include "core/adaptive.h"
#include "pdm/backend_factory.h"

using namespace pdm;
using namespace pdm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  banner("E18 / distributed sample-sort",
         "One dataset ~4x a shard's job size: single-shard sort vs "
         "sample-sort split across 4 shards, each range at its "
         "single-shard pass count, concatenated in splitter order.");

  const u64 mem = cli.get_u64("m", 4096);
  const u64 rpb = cli.get_u64("rpb", 64);
  const u32 disks = static_cast<u32>(cli.get_u64("disks", 4));
  const u32 shards = static_cast<u32>(cli.get_u64("shards", 4));
  const u64 n = cli.get_u64("n", 0) != 0 ? cli.get_u64("n", 0)
                                         : u64{16} * mem;  // 4x per shard
  const u64 latency_us = cli.get_u64("latency_us", 60);
  const u32 oversample = static_cast<u32>(cli.get_u64("oversample", 64));
  const u64 repeats = cli.get_u64("repeats", 3);
  const double gate = cli.get_double("dist_gate", 2.5);
  const std::string json_out = cli.get("json_out", "BENCH_PR27.json");
  // --trace_out=FILE / --metrics=1: phase-tracer dump and metrics
  // registry exposition (shared serving-bench flags, bench_support.h).
  const std::string trace_out = trace_begin(cli);
  PDM_CHECK(n % mem == 0, "E18: n must be a multiple of m");

  Rng rng(18);
  const auto data = make_keys(static_cast<usize>(n), Dist::kPermutation, rng);
  auto expected = data;
  std::sort(expected.begin(), expected.end());

  std::cout << n << " u64 records, M = " << mem << ", B = " << rpb
            << " records (" << rpb * sizeof(u64) << " bytes), D = " << disks
            << " per shard, " << shards << " shards, disk latency "
            << latency_us << " us/op\n\n";

  ClusterConfig cfg;
  cfg.shard.workers = 1;
  cfg.shard.io_depth_total = 4;
  cfg.shard.seed = 42;

  SortJobSpec spec;
  spec.mem_records = mem;

  // --- baseline: the whole dataset as one job on one shard --------------
  double base_s = -1;
  SortReport base_report;
  for (u64 rep = 0; rep < repeats; ++rep) {
    ClusterConfig c1 = cfg;
    c1.shards = 1;
    Cluster one(memory_backend_factory(disks, rpb * sizeof(u64), latency_us),
                c1);
    std::vector<u64> out;
    SortReport report;
    SortJobSpec s = spec;
    s.name = "e18-baseline";
    Timer timer;
    const JobId id = one.submit<u64>(
        s, data, std::less<u64>{}, [&](const SortResult<u64>& res) {
          out = res.output.read_all();
          report = res.report;
        });
    PDM_CHECK(one.wait(id).state == JobState::kDone, "E18: baseline failed");
    const double secs = timer.seconds();
    PDM_CHECK(out == expected, "E18: baseline output wrong");
    if (base_s < 0 || secs < base_s) {
      base_s = secs;
      base_report = report;
    }
  }

  // --- distributed: the same dataset via submit_distributed -------------
  double dist_s = -1;
  DistributedInfo best;
  for (u64 rep = 0; rep < repeats; ++rep) {
    ClusterConfig cp = cfg;
    cp.shards = shards;
    Cluster cluster(
        memory_backend_factory(disks, rpb * sizeof(u64), latency_us), cp);
    std::vector<u64> out;
    DistributedOptions opts;
    opts.oversample = oversample;
    SortJobSpec s = spec;
    s.name = "e18-dist";
    Timer timer;
    const JobId id = cluster.submit_distributed<u64>(
        s, data, opts, std::less<u64>{},
        [&](const DistributedSortResult<u64>& res) { out = res.output; });
    const DistributedInfo info = cluster.distributed_wait(id);
    const double secs = timer.seconds();
    PDM_CHECK(info.state == JobState::kDone, "E18: distributed sort failed");
    PDM_CHECK(out == expected, "E18: distributed output wrong");
    if (dist_s < 0 || secs < dist_s) {
      dist_s = secs;
      best = info;
    }
  }

  // Per-range paper bounds: each range must run the planner's algorithm
  // for its size at the planner's pass count (within report noise).
  double max_range_passes = 0;
  for (usize r = 0; r < best.range_records.size(); ++r) {
    const u64 nr = best.range_records[r];
    if (nr == 0) continue;
    const PlanEntry plan = choose_plan(nr, mem, rpb, 1.0);
    const SortReport& rep = best.range_reports[r];
    PDM_CHECK(rep.algorithm == algo_name(plan.algo),
              "E18: range " + std::to_string(r) + " ran " + rep.algorithm +
                  ", planner says " + algo_name(plan.algo));
    PDM_CHECK(rep.passes <= plan.expected_passes + 0.25,
              "E18: range " + std::to_string(r) +
                  " exceeded its paper pass bound");
    max_range_passes = std::max(max_range_passes, rep.passes);
  }

  const double speedup = base_s / std::max(1e-9, dist_s);

  Table t({"arm", "shards", "records", "algo", "passes", "wall_s",
           "speedup"});
  t.row()
      .cell("single-shard")
      .cell(u64{1})
      .cell(n)
      .cell(base_report.algorithm)
      .cell(base_report.passes, 3)
      .cell(base_s, 3)
      .cell(1.0, 2);
  t.row()
      .cell("distributed")
      .cell(u64{shards})
      .cell(n)
      .cell("per-range max")
      .cell(max_range_passes, 3)
      .cell(dist_s, 3)
      .cell(speedup, 2);
  t.print(std::cout);

  std::cout << "\nranges:";
  for (u64 r : best.range_records) std::cout << " " << r;
  std::cout << "  (skew " << fmt_double(best.skew, 3) << ", oversample "
            << oversample << ")\n";
  std::cout << "Expected shape: the giant dataset is over the 2-pass "
               "capacity cliff, so the single shard pays "
            << fmt_double(base_report.passes, 1)
            << " passes over 4x the data; each range stays under the "
               "cliff at ~"
            << fmt_double(max_range_passes, 1)
            << " passes over N/4, and the shards run them in parallel. "
               "The two effects multiply — the speedup can exceed the "
            << shards
            << "x parallelism alone — while the export read and splitter "
               "selection eat some of it back.\n\n";

  JsonWriter jw;
  jw.begin_obj();
  jw.key("n").value(n);
  jw.key("m").value(mem);
  jw.key("rpb").value(rpb);
  jw.key("disks").value(u64{disks});
  jw.key("shards").value(u64{shards});
  jw.key("latency_us").value(latency_us);
  jw.key("oversample").value(u64{oversample});
  jw.key("baseline_algo").value(base_report.algorithm);
  jw.key("baseline_passes").value(base_report.passes);
  jw.key("baseline_wall_s").value(base_s);
  jw.key("dist_wall_s").value(dist_s);
  jw.key("speedup").value(speedup);
  jw.key("max_range_passes").value(max_range_passes);
  jw.key("skew").value(best.skew);
  jw.key("range_records").begin_arr();
  for (u64 r : best.range_records) jw.value(r);
  jw.end_arr();
  jw.key("gate").value(gate);
  jw.end_obj();
  if (!json_out.empty()) {
    json_file_update(json_out, "e18_distributed_sort", jw.str());
    std::cout << "wrote section e18_distributed_sort -> " << json_out
              << "\n";
  }

  std::cout << "distributed gate (" << shards
            << " shards): " << fmt_double(speedup, 2) << "x, need >= "
            << gate << "x: "
            << (gate <= 0 || speedup >= gate ? "PASS" : "FAIL") << "\n";
  PDM_CHECK(gate <= 0 || speedup >= gate,
            "E18 gate failed: distributed speedup below threshold");
  observability_finish(cli, trace_out);
  return 0;
}
