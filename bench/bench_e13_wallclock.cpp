// E13 — end-to-end comparison on file-backed disks (the Dementiev-Sanders
// contrast the paper cites): wall-clock, simulated disk time, and passes
// for every sorter at a common N, plus the same on the in-memory backend
// to separate CPU from I/O. The JSON section records every sorter's
// passes per backend and the async overlap as a median over --repeats
// interleaved sync/async pairs, which run with the tracer paused.
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

#include <algorithm>
#include <filesystem>

using namespace pdm;
using namespace pdm::bench;

namespace {

/// One row of the main table, kept for the JSON section.
struct PassRow {
  std::string backend;
  std::string algorithm;
  double passes;
};

template <class Fn>
void run_case(Table& t, std::vector<PassRow>& rows, const char* backend,
              const char* name, PdmContext& ctx, const std::vector<u64>& data,
              Fn&& fn) {
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
  rows.push_back({backend, name, res.report.passes});
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const usize h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
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

  std::vector<PassRow> pass_rows;
  for (bool file_backed : {false, true}) {
    const char* backend = file_backed ? "files" : "memory";
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
      run_case(t, pass_rows, backend, "ExpectedTwoPass", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ExpectedTwoPassOptions o;
                 o.mem_records = mem;
                 return expected_two_pass_sort<u64>(c, in, o);
               });
    }
    {
      auto ctx = make();
      run_case(t, pass_rows, backend, "ThreePass2(LMM)", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ThreePassLmmOptions o;
                 o.mem_records = mem;
                 return three_pass_lmm_sort<u64>(c, in, o);
               });
    }
    if (n == mem * g.rpb) {  // the mesh algorithm's exact shape
      auto ctx = make();
      run_case(t, pass_rows, backend, "ThreePass1(mesh)", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ThreePassMeshOptions o;
                 o.mem_records = mem;
                 return three_pass_mesh_sort<u64>(c, in, o);
               });
    }
    if (columnsort_geometry(n, mem, g.rpb).ok) {
      auto ctx = make();
      run_case(t, pass_rows, backend, "Columnsort-CC", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 ColumnsortOptions o;
                 o.mem_records = mem;
                 return columnsort_cc_sort<u64>(c, in, o);
               });
    }
    {
      auto ctx = make();
      run_case(t, pass_rows, backend, "MultiwayMerge(la=2)", *ctx, data,
               [&](PdmContext& c, const StripedRun<u64>& in) {
                 MultiwaySortOptions o;
                 o.mem_records = mem;
                 o.lookahead = 2;
                 return multiway_merge_sort<u64>(c, in, o);
               });
    }
    std::cout << "-- backend: " << backend << " --\n";
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
  // identical; only the wall clock may move. Each sorter runs --repeats
  // sync/async pairs, the side that goes first alternating per pair; a
  // single pair on a shared machine cannot say whether the pipeline helps.
  const u64 latency_us = cli.get_u64("latency_us", 200);
  const usize async_depth = static_cast<usize>(cli.get_u64("async_depth", 4));
  const u64 repeats = std::max<u64>(1, cli.get_u64("repeats", 5));
  const std::string json_out = cli.get("json_out", "BENCH_PR27.json");
  std::cout << "\n-- async pipeline overlap (memory backend, simulated "
            << latency_us << "us/op latency, depth " << async_depth << ", "
            << repeats << " interleaved pairs; medians) --\n";
  Table at({"algorithm", "passes", "sync_wall_s", "async_wall_s", "speedup",
            "min", "max", "ops_equal"});
  JsonWriter jw;
  jw.begin_obj();
  jw.key("m").value(mem);
  jw.key("n").value(n);
  jw.key("b").value(g.rpb);
  jw.key("d").value(u64{g.disks});
  jw.key("passes").begin_arr();
  for (const PassRow& r : pass_rows) {
    jw.begin_obj();
    jw.key("backend").value(r.backend);
    jw.key("algorithm").value(r.algorithm);
    jw.key("passes").value(r.passes);
    jw.end_obj();
  }
  jw.end_arr();
  jw.key("latency_us").value(latency_us);
  jw.key("async_depth").value(u64{async_depth});
  jw.key("repeats").value(repeats);
  // The pairs run with the tracer paused: under --trace_out its events
  // landed on the async arm, which then read 0.56-0.72x where untraced
  // runs read 1.0-1.22x, so the ratio measured the tracer.
  trace::TraceLog& tracer = trace::TraceLog::instance();
  const bool tracing = tracer.enabled();
  tracer.set_enabled(false);
  jw.key("traced").value(tracer.enabled());
  jw.key("overlap").begin_arr();
  auto make_latency_ctx = [&]() {
    auto ctx = make_ctx(g);
    static_cast<MemoryDiskBackend&>(ctx->backend())
        .set_simulated_latency_us(latency_us);
    return ctx;
  };
  auto overlap_case = [&](const char* name, auto&& fn) {
    std::vector<double> wall[2], speedup;
    std::vector<u64> ops;  // every run's, sync and async
    for (u64 rep = 0; rep < repeats; ++rep) {
      double pair_wall[2];
      for (int k = 0; k < 2; ++k) {
        const int side = (k + static_cast<int>(rep % 2)) % 2;  // 1 = async
        auto ctx = make_latency_ctx();
        auto in = stage<u64>(*ctx, data);
        // The pipeline depth is the context's: the sync side keeps it off.
        if (side == 1) ctx->set_async_depth(async_depth);
        auto res = fn(*ctx, in);
        check_sorted<u64>(res.output, data.size());
        pair_wall[side] = res.report.wall_seconds;
        ops.push_back(res.report.io.total_ops());
      }
      wall[0].push_back(pair_wall[0]);
      wall[1].push_back(pair_wall[1]);
      speedup.push_back(pair_wall[0] / std::max(1e-9, pair_wall[1]));
    }
    const bool ops_equal = std::all_of(ops.begin(), ops.end(),
                                       [&](u64 o) { return o == ops[0]; });
    const double passes = static_cast<double>(ops[0]) /
                          (2.0 * static_cast<double>(n) / (g.rpb * g.disks));
    const double sp_med = median(speedup);
    const double sp_min = *std::min_element(speedup.begin(), speedup.end());
    const double sp_max = *std::max_element(speedup.begin(), speedup.end());
    at.row()
        .cell(name)
        .cell(passes, 3)
        .cell(median(wall[0]), 3)
        .cell(median(wall[1]), 3)
        .cell(sp_med, 2)
        .cell(sp_min, 2)
        .cell(sp_max, 2)
        .cell(ops_equal);
    jw.begin_obj();
    jw.key("algorithm").value(name);
    jw.key("passes").value(passes);
    jw.key("sync_wall_s").value(median(wall[0]));
    jw.key("async_wall_s").value(median(wall[1]));
    jw.key("speedup").value(sp_med);
    jw.key("speedup_min").value(sp_min);
    jw.key("speedup_max").value(sp_max);
    jw.key("ops_equal").value(ops_equal);
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
  tracer.set_enabled(tracing);
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
         "across the D disks. The min-max spread shows how far one pair "
         "can stray from the median.\n";
  observability_finish(cli, trace_out);
  return 0;
}
