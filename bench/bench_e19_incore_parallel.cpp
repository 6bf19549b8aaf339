// E19 — parallel in-core kernels: multi-core inside one job. Three arms:
//
//  1. Kernel speedup: internal_sort_budgeted on an in-memory slab at CPU
//     budgets {1, 2, 4}, byte-equality against the serial std::sort and a
//     wall-clock gate (--gate=S asserts >= S x at 4 threads; CI passes
//     2.0 on its 4-core runners, --gate=0 skips the assertion on
//     single-core boxes where the helpers just time-slice the caller).
//  2. External invariance: ExpectedTwoPass on the memory backend at
//     budgets 1 vs 4 — records, op/block counts and the schedule hash
//     must be byte-identical (the determinism bar), wall clock reported.
//  3. Allocator microbench: alloc/free churn against a fragmented free
//     list; the size-indexed buckets must keep reusing a large span
//     parked behind > kMaxFreeScan small fragments (asserted: the bump
//     cursor does not move during the churn).
//
// A small 3-job SortService contention run at cpu_threads_total=4 seeds
// the cpu.granted / cpu.waiting gauges so the metrics section of the
// bench JSON carries the arbiter's counters.
#include "bench_support.h"
#include "core/expected_two_pass.h"
#include "internal/insort.h"
#include "pdm/memory_backend.h"
#include "service/sort_service.h"
#include "util/cpu_pool.h"
#include "util/trace.h"

using namespace pdm;
using namespace pdm::bench;

namespace {

double best_of(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  banner("E19 / parallel in-core kernels",
         "Work-span CpuPool under the in-core leaves: kernel speedup, "
         "byte-for-byte budget invariance, size-indexed allocator reuse.");
  const std::string trace_out = trace_begin(cli);

  const u64 n_kernel = cli.get_u64("n_kernel", u64{1} << 21);
  const double gate = cli.get_double("gate", 0.0);
  const std::string json_out = cli.get("json_out", "BENCH_PR14.json");

  JsonWriter jw;
  jw.begin_obj();
  jw.key("n_kernel").value(n_kernel);
  jw.key("gate").value(gate);

  // --- Arm 1: in-core kernel speedup --------------------------------
  Rng rng(1);
  auto base = make_keys(static_cast<usize>(n_kernel), Dist::kUniform, rng);
  auto expected = base;
  std::sort(expected.begin(), expected.end());

  std::cout << "-- kernel: internal_sort_budgeted, n = "
            << fmt_count(n_kernel) << " records --\n";
  Table kt({"threads", "wall_s", "speedup", "bytes_equal"});
  jw.key("cpu").begin_arr();
  double wall1 = 0;
  double speedup4 = 0;
  bool all_equal = true;
  for (usize threads : {usize{1}, usize{2}, usize{4}}) {
    CpuPool pool(threads);
    std::vector<u64> scratch(base.size());
    std::vector<u64> out;
    const double wall = best_of(3, [&] {
      out = base;
      Timer t;
      internal_sort_budgeted(std::span<u64>(out), std::less<u64>{}, pool,
                             std::span<u64>(scratch));
      return t.seconds();
    });
    const bool equal = out == expected;
    all_equal = all_equal && equal;
    if (threads == 1) wall1 = wall;
    const double speedup = wall1 / std::max(1e-9, wall);
    if (threads == 4) speedup4 = speedup;
    kt.row().cell(threads).cell(wall, 4).cell(speedup, 2).cell(equal);
    jw.begin_obj();
    jw.key("threads").value(u64{threads});
    jw.key("wall_s").value(wall);
    jw.key("speedup").value(speedup);
    jw.key("bytes_equal").value(equal);
    jw.end_obj();
  }
  jw.end_arr();
  kt.print(std::cout);
  if (!all_equal) {
    std::cerr << "FAIL: parallel kernel output differs from serial\n";
    return 1;
  }

  // --- Arm 2: external sorter invariance + wall clock ----------------
  const u64 mem = cli.get_u64("m", 16384);
  const auto g = Geom::square(mem);
  const u64 n_ext = cli.get_u64("n", 8 * mem);
  std::cout << "\n-- external: ExpectedTwoPass, memory backend, N = "
            << fmt_count(n_ext) << ", M = " << mem << " --\n";
  Rng erng(2);
  auto edata = make_keys(static_cast<usize>(n_ext), Dist::kUniform, erng);
  Table et({"threads", "wall_s", "speedup", "records_equal", "hash_equal"});
  jw.key("external").begin_arr();
  std::vector<u64> eout0;
  IoStats estats0;
  double ewall1 = 0;
  bool invariant = true;
  for (usize threads : {usize{1}, usize{4}}) {
    auto ctx = make_ctx(g);
    auto in = stage<u64>(*ctx, edata);
    ctx->set_cpu_budget(threads);
    Timer t;
    ExpectedTwoPassOptions o;
    o.mem_records = mem;
    auto res = expected_two_pass_sort<u64>(*ctx, in, o);
    const double wall = t.seconds();
    check_sorted<u64>(res.output, edata.size());
    auto out = res.output.read_all();
    bool records_equal = true;
    bool hash_equal = true;
    if (threads == 1) {
      eout0 = std::move(out);
      estats0 = ctx->stats();
      ewall1 = wall;
    } else {
      records_equal = out == eout0;
      hash_equal =
          ctx->stats().schedule_hash == estats0.schedule_hash &&
          ctx->stats().total_ops() == estats0.total_ops() &&
          ctx->stats().total_blocks() == estats0.total_blocks();
      invariant = invariant && records_equal && hash_equal;
    }
    et.row()
        .cell(threads)
        .cell(wall, 4)
        .cell(ewall1 / std::max(1e-9, wall), 2)
        .cell(records_equal)
        .cell(hash_equal);
    jw.begin_obj();
    jw.key("threads").value(u64{threads});
    jw.key("wall_s").value(wall);
    jw.key("records_equal").value(records_equal);
    jw.key("hash_equal").value(hash_equal);
    jw.end_obj();
  }
  jw.end_arr();
  et.print(std::cout);
  if (!invariant) {
    std::cerr << "FAIL: CPU budget changed records or I/O schedule\n";
    return 1;
  }

  // --- Arm 3: size-indexed allocator reuse ---------------------------
  std::cout << "\n-- allocator: reuse behind " << 2 * DiskAllocator::kMaxFreeScan
            << " fragments --\n";
  DiskAllocator alloc(1);
  std::vector<Extent> freed;
  for (usize i = 0; i < 4 * DiskAllocator::kMaxFreeScan; ++i) {
    Extent e = alloc.alloc_extent(0, 1);
    if (i % 2 == 0) freed.push_back(e);
  }
  for (const auto& e : freed) alloc.free_extent(e);
  Extent big = alloc.alloc_extent(0, 64);
  alloc.free_extent(big);
  const u64 high_water = alloc.used(0);
  const u64 churn = cli.get_u64("alloc_churn", 20000);
  Timer at;
  for (u64 i = 0; i < churn; ++i) {
    Extent e = alloc.alloc_extent(0, 64);
    alloc.free_extent(e);
  }
  const double alloc_s = at.seconds();
  const bool no_bump = alloc.used(0) == high_water;
  const double per_us = 1e6 * alloc_s / static_cast<double>(churn);
  std::cout << churn << " alloc/free cycles of a 64-block span: "
            << per_us << " us/cycle, cursor moved: "
            << (no_bump ? "no" : "YES") << "\n";
  jw.key("allocator").begin_obj();
  jw.key("churn").value(churn);
  jw.key("us_per_cycle").value(per_us);
  jw.key("reused_without_bump").value(no_bump);
  jw.end_obj();
  if (!no_bump) {
    std::cerr << "FAIL: size-indexed free list leaked the span to the "
                 "bump cursor\n";
    return 1;
  }

  // --- Service contention: seed the cpu.* gauges ---------------------
  {
    ServiceConfig cfg;
    cfg.workers = 3;
    cfg.cpu_threads_total = 4;
    SortService svc(std::make_shared<MemoryDiskBackend>(8, 256), cfg);
    Rng srng(3);
    for (int j = 0; j < 3; ++j) {
      SortJobSpec spec;
      spec.name = "e19-contend";
      spec.mem_records = 1024;
      auto data = make_keys(usize{8 * 1024}, Dist::kUniform, srng);
      svc.submit<u64>(std::move(spec), std::move(data), std::less<u64>{},
                      [](const SortResult<u64>&) {});
    }
    svc.drain();
    const ShardLoad l = svc.load();
    std::cout << "\nservice contention: cpu_in_use=" << l.cpu_in_use << "/"
              << l.cpu_total << " after drain (gauges registered)\n";
  }

  const bool gate_pass = gate <= 0.0 || speedup4 >= gate;
  jw.key("speedup4").value(speedup4);
  jw.key("gate_pass").value(gate_pass);
  jw.end_obj();
  if (!json_out.empty()) {
    json_file_update(json_out, "e19_incore_parallel", jw.str());
    json_file_update(json_out, "metrics", metrics_json_section());
    std::cout << "wrote section e19_incore_parallel -> " << json_out << "\n";
  }
  std::cout << "Expected shape: near-linear kernel speedup to the core "
               "count (merge tree is work-span optimal up to the log-depth "
               "merge passes), identical records and schedule hash at "
               "every budget, and allocator reuse that never advances the "
               "high-water mark.\n";
  observability_finish(cli, trace_out);
  if (!gate_pass) {
    std::cerr << "FAIL: kernel speedup at 4 threads " << speedup4
              << "x < gate " << gate << "x\n";
    return 1;
  }
  return 0;
}
