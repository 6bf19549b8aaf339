// External multiway mergesort with forecasting prefetch — the
// STXXL/Dementiev–Sanders-style baseline. Run formation (one pass), then
// merge levels of fan-in F; each level is one pass over the data but its
// parallel-I/O count depends on forecasting quality (see
// primitives/multiway.h). Not oblivious: the I/O schedule is data
// dependent, which is precisely the contrast with the paper's algorithms
// that bench_e12_parallelism quantifies.
//
// The same driver is the order-adaptive sort: with an adaptive run-
// formation mode (replacement selection or up/down runs) it forms fewer,
// longer runs and merges them exactly as it merges fixed ones — run
// generation followed by an ordinary multiway merge (Bender et al.). On
// nearly-sorted input formation emits a single run and the sort finishes
// in one pass.
#pragma once

#include "core/order_adaptive.h"
#include "core/sort_report.h"
#include "primitives/multiway.h"
#include "primitives/run_formation.h"

namespace pdm {

struct MultiwaySortOptions {
  u64 mem_records = 0;
  usize lookahead = 1;  // prefetched blocks per run (0 = naive)
  u64 fan_in = 0;       // 0 = maximum that fits in memory
  // Run formation: fixed runs of M records, or an adaptive mode
  // (replacement selection, up/down runs) reported as "OrderAdaptive".
  RunFormationMode mode = RunFormationMode::kFixed;
};

/// Predicted pass count: 1 + ceil(log_F(N/M)) for fan-in F.
inline double multiway_predicted_passes(u64 n, u64 mem, u64 fan_in) {
  if (n <= mem) return 2.0;  // read + write
  double levels = 0;
  u64 runs = ceil_div(n, mem);
  while (runs > 1) {
    runs = ceil_div(runs, fan_in);
    levels += 1;
  }
  return 1.0 + levels;
}

template <Record R, class Cmp = std::less<R>>
SortResult<R> multiway_merge_sort(PdmContext& ctx,
                                  const StripedRun<R>& input,
                                  const MultiwaySortOptions& opt,
                                  Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 n = input.size();
  PDM_CHECK(mem % rpb == 0, "M must be a multiple of B");
  const u64 fan = opt.fan_in != 0
                      ? opt.fan_in
                      : order_adaptive_fan_in(mem, rpb, ctx.D(), opt.lookahead);

  ReportBuilder rb(ctx,
                   opt.mode == RunFormationMode::kFixed ? "MultiwayMerge"
                                                        : "OrderAdaptive",
                   n, mem, rpb);

  RunFormationOptions fopt;
  fopt.run_len = mem;
  fopt.mode = opt.mode;
  auto runs = form_runs_flat<R>(ctx, input, fopt, cmp);

  // Merge levels until one run is left (a single formed run is already
  // the output: no extra pass). multiway_merge_pass honours per-run sizes
  // and partial final blocks, so variable-length runs need nothing else.
  while (runs.size() > 1) {
    std::vector<StripedRun<R>> next;
    for (usize g = 0; g < runs.size(); g += fan) {
      const usize cnt = std::min<usize>(fan, runs.size() - g);
      std::span<const StripedRun<R>> group(runs.data() + g, cnt);
      StripedRun<R> merged(ctx, static_cast<u32>(g % ctx.D()));
      RunSink<R> sink(merged);
      MergePassOptions mopt;
      mopt.mem_records = mem;
      mopt.lookahead = opt.lookahead;
      multiway_merge_pass<R>(ctx, group, sink, mopt, cmp);
      next.push_back(std::move(merged));
    }
    runs = std::move(next);
  }
  PDM_ASSERT(runs.size() == 1, "merge levels left no single run");
  SortResult<R> result;
  result.output = std::move(runs[0]);
  PDM_ASSERT(result.output.size() == n, "multiway record count mismatch");
  result.report = rb.finish();
  return result;
}

}  // namespace pdm
