// E13 — end-to-end comparison on file-backed disks (the Dementiev-Sanders
// contrast the paper cites): wall-clock, simulated disk time, and passes
// for every sorter at a common N, plus the same on the in-memory backend
// to separate CPU from I/O.
#include "bench_support.h"
#include "baselines/columnsort.h"
#include "baselines/multiway_merge.h"
#include "core/expected_two_pass.h"
#include "core/integer_sort.h"
#include "core/radix_sort.h"
#include "core/three_pass_lmm.h"
#include "core/three_pass_mesh.h"
#include "pdm/memory_backend.h"
#include "util/trace.h"

#include <filesystem>

using namespace pdm;
using namespace pdm::bench;

namespace {

template <class Fn>
void run_case(Table& t, const char* name, PdmContext& ctx,
              const std::vector<u64>& data, Fn&& fn) {
  auto in = stage<u64>(ctx, data);
  Timer timer;
  auto res = fn(ctx, in);
  check_sorted<u64>(res.output, data.size());
  const double mbps = static_cast<double>(data.size()) * sizeof(u64) /
                      (1e6 * std::max(1e-9, timer.seconds()));
  t.row()
      .cell(name)
      .cell(res.report.passes, 3)
      .cell(res.report.wall_seconds, 3)
      .cell(mbps, 1)
      .cell(res.report.sim_seconds, 1)
      .cell(res.report.fallback_taken);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  banner("E13 / end-to-end",
         "Wall-clock + simulated disk time at a common N, file-backed "
         "disks (one file per disk, parallel pread/pwrite) and in-memory "
         "backend.");

  // --trace_out=FILE enables the phase tracer for the whole bench and
  // dumps Chrome trace_event JSON at exit (chrome://tracing / Perfetto);
  // --metrics=1 prints the metrics registry after the run.
  const std::string trace_out = trace_begin(cli);

  const u64 mem = cli.get_u64("m", 16384);
  const auto g = Geom::square(mem);
  const u64 n = cli.get_u64("n", round_down(
                                     cap_expected_two_pass(mem, 1.0), mem));
  Rng rng(1);
  auto data = make_keys(static_cast<usize>(n), Dist::kPermutation, rng);
  std::cout << "N = " << fmt_count(n) << " records ("
            << fmt_count(n * sizeof(u64)) << "B), M = " << mem
            << ", B = " << g.rpb << ", D = " << g.disks << "\n";

  for (bool file_backed : {false, true}) {
    Table t({"algorithm", "passes", "wall_s", "MB/s", "sim_disk_s",
             "fallback"});
    auto make = [&]() -> std::unique_ptr<PdmContext> {
      if (file_backed) {
        return make_file_context(g.disks, g.rpb * sizeof(u64),
                                 "/tmp/pdmsort_bench_disks");
      }
      return make_ctx(g);
    };
    {
      auto ctx = make();
      run_case(t, "ExpectedTwoPass", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ExpectedTwoPassOptions o;
                 o.mem_records = mem;
                 return expected_two_pass_sort<u64>(c, in, o);
               });
    }
    {
      auto ctx = make();
      run_case(t, "ThreePass2(LMM)", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ThreePassLmmOptions o;
                 o.mem_records = mem;
                 return three_pass_lmm_sort<u64>(c, in, o);
               });
    }
    if (n == mem * g.rpb) {  // the mesh algorithm's exact shape
      auto ctx = make();
      run_case(t, "ThreePass1(mesh)", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ThreePassMeshOptions o;
                 o.mem_records = mem;
                 return three_pass_mesh_sort<u64>(c, in, o);
               });
    }
    if (columnsort_geometry(n, mem, g.rpb).ok) {
      auto ctx = make();
      run_case(t, "Columnsort-CC", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ColumnsortOptions o;
                 o.mem_records = mem;
                 return columnsort_cc_sort<u64>(c, in, o);
               });
    }
    {
      auto ctx = make();
      run_case(t, "MultiwayMerge(la=2)", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 MultiwaySortOptions o;
                 o.mem_records = mem;
                 o.lookahead = 2;
                 return multiway_merge_sort<u64>(c, in, o);
               });
    }
    std::cout << "-- backend: " << (file_backed ? "files" : "memory")
              << " --\n";
    t.print(std::cout);
  }
  std::filesystem::remove_all("/tmp/pdmsort_bench_disks");
  std::cout
      << "Expected shape: sim_disk_s orders the algorithms by pass count "
         "(2 < 3 < merge-with-misses); wall-clock on the memory backend "
         "is CPU-dominated and much flatter — consistent with the "
         "paper's premise that I/O, not computation, is the metric.\n";

  // --- Async overlap: synchronous vs double-buffered pipeline under a
  // simulated per-op disk latency. Parallel-op accounting must be
  // identical; only the wall clock may move.
  const u64 latency_us = cli.get_u64("latency_us", 200);
  const usize async_depth = static_cast<usize>(cli.get_u64("async_depth", 4));
  const std::string json_out = cli.get("json_out", "BENCH_PR15.json");
  std::cout << "\n-- async pipeline overlap (memory backend, simulated "
            << latency_us << "us/op latency, depth " << async_depth
            << ") --\n";
  Table at({"algorithm", "passes", "sync_wall_s", "async_wall_s", "speedup",
            "ops_equal"});
  JsonWriter jw;
  jw.begin_obj();
  jw.key("m").value(mem);
  jw.key("n").value(n);
  jw.key("latency_us").value(latency_us);
  jw.key("async_depth").value(u64{async_depth});
  jw.key("overlap").begin_arr();
  auto make_latency_ctx = [&]() {
    auto ctx = make_ctx(g);
    static_cast<MemoryDiskBackend&>(ctx->backend())
        .set_simulated_latency_us(latency_us);
    return ctx;
  };
  auto overlap_case = [&](const char* name, auto&& fn) {
    double wall[2];
    u64 ops[2];
    for (int pass = 0; pass < 2; ++pass) {
      auto ctx = make_latency_ctx();
      auto in = stage<u64>(*ctx, data);
      // The pipeline depth is the context's: sync pass keeps it off.
      if (pass == 1) ctx->set_async_depth(async_depth);
      auto res = fn(*ctx, in);
      check_sorted<u64>(res.output, data.size());
      wall[pass] = res.report.wall_seconds;
      ops[pass] = res.report.io.total_ops();
    }
    const double passes = static_cast<double>(ops[0]) /
                          (2.0 * static_cast<double>(n) / (g.rpb * g.disks));
    const double speedup = wall[0] / std::max(1e-9, wall[1]);
    at.row()
        .cell(name)
        .cell(passes, 3)
        .cell(wall[0], 3)
        .cell(wall[1], 3)
        .cell(speedup, 2)
        .cell(ops[0] == ops[1]);
    jw.begin_obj();
    jw.key("algorithm").value(name);
    jw.key("passes").value(passes);
    jw.key("sync_wall_s").value(wall[0]);
    jw.key("async_wall_s").value(wall[1]);
    jw.key("speedup").value(speedup);
    jw.key("ops_equal").value(ops[0] == ops[1]);
    jw.end_obj();
  };
  overlap_case("ExpectedTwoPass",
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ExpectedTwoPassOptions o;
                 o.mem_records = mem;
                 return expected_two_pass_sort<u64>(c, in, o);
               });
  overlap_case("MultiwayMerge(la=2)",
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 MultiwaySortOptions o;
                 o.mem_records = mem;
                 o.lookahead = 2;
                 return multiway_merge_sort<u64>(c, in, o);
               });
  overlap_case("RadixSort",
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 RadixSortOptions o;
                 o.mem_records = mem;
                 o.key_bits = 32;
                 auto capped = in.read_all();
                 for (auto& k : capped) k &= 0xFFFFFFFFULL;
                 auto run = write_input_run<u64>(c, std::span<const u64>(capped));
                 c.io().reset_stats();
                 return radix_sort<u64>(c, run, o);
               });
  at.print(std::cout);
  jw.end_arr();
  jw.end_obj();
  if (!json_out.empty()) {
    json_file_update(json_out, "e13_wallclock", jw.str());
    std::cout << "wrote section e13_wallclock -> " << json_out << "\n";
  }
  std::cout
      << "Expected shape: identical parallel-op counts (the accounting is "
         "charged at submission), with async wall-clock below sync by up "
         "to the latency fraction of the run — prefetch and write-behind "
         "overlap the simulated positioning delay with computation and "
         "across the D disks.\n";
  observability_finish(cli, trace_out);
  return 0;
}
