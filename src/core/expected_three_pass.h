// ExpectedThreePass (paper §6, Theorem 6.1): sorts ~M^{7/4}/lambda^{3/2}
// records in three expected passes.
//
//   passes 1-2: ExpectedTwoPass per segment of length L ~ cap2(M, alpha)
//               (run formation, one segment at a time, is one pass over
//               the whole input; the per-segment shuffle-cleanups together
//               are the second);
//   pass 3:     shuffle the segment outputs and window-clean, verified on
//               line (Lemma 4.2 with q = L bounds the displacement by M
//               whenever N <= cap_expected_three_pass).
// On a violation in any phase the affected scope falls back to a
// deterministic (l,m)-merge (+3 passes over that scope).
#pragma once

#include "core/capacity.h"
#include "core/sort_report.h"
#include "primitives/cleanup.h"
#include "primitives/lmm_merge.h"
#include "primitives/multiway.h"
#include "primitives/run_formation.h"
#include "util/logging.h"

namespace pdm {

struct ExpectedThreePassOptions {
  u64 mem_records = 0;
  double alpha = 1.0;
  u64 segment_len = 0;  // 0 = choose automatically
};

namespace detail {

/// Segment length for phase 1: a multiple of M, at most cap2, dividing N
/// with at most M/B segments. Returns 0 when infeasible.
inline u64 choose_three_pass_segment(u64 n, u64 mem, u64 rpb, double alpha) {
  const u64 cap2 = cap_expected_two_pass(mem, alpha);
  const u64 lmax = round_down(std::min(cap2, n), mem);
  const u64 max_segments = mem / rpb;
  for (u64 segs = ceil_div(n, std::max<u64>(lmax, mem)); segs <= max_segments;
       ++segs) {
    if (n % segs != 0) continue;
    const u64 len = n / segs;
    if (len % mem != 0) continue;
    return len;
  }
  return 0;
}

}  // namespace detail

template <Record R, class Cmp = std::less<R>>
SortResult<R> expected_three_pass_sort(PdmContext& ctx,
                                       const StripedRun<R>& input,
                                       const ExpectedThreePassOptions& opt,
                                       Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 n = input.size();
  PDM_CHECK(mem % rpb == 0, "M must be a multiple of B");
  const u64 seg_len =
      opt.segment_len != 0
          ? opt.segment_len
          : detail::choose_three_pass_segment(n, mem, rpb, opt.alpha);
  PDM_CHECK(seg_len != 0 && n % seg_len == 0 && seg_len % mem == 0,
            "no feasible segment length (need N = k*L, L a multiple of M, "
            "k <= M/B)");
  const u64 segments = n / seg_len;
  PDM_CHECK(segments * rpb <= mem,
            "too many segments: final pass reads one block per segment");

  ReportBuilder rb(ctx, "ExpectedThreePass", n, mem, rpb);
  bool any_fallback = false;

  // Pass 1: M-record runs, formed one segment at a time.
  const auto runs = form_segment_runs<R>(ctx, input, mem, seg_len, cmp);
  const u64 runs_per_seg = seg_len / mem;

  // Pass 2 (expected): per segment, shuffle-clean into one sorted run.
  // The sorted segments are read together by pass 3.
  std::vector<StripedRun<R>> seg_sorted;
  seg_sorted.reserve(static_cast<usize>(segments));
  for (u64 g = 0; g < segments; ++g) {
    std::span<const StripedRun<R>> seg_runs(
        runs.data() + g * runs_per_seg, static_cast<usize>(runs_per_seg));
    const u64 chunk = round_down(mem, runs_per_seg * rpb);
    const u32 start = spread_start_disk(g, segments, ctx.D());
    StripedRun<R> sorted(ctx, start);
    bool ok = false;
    {
      RunSink<R> sink(sorted);
      ShuffleChunkSource<R> source(ctx, seg_runs, chunk);
      CleanupOptions copt;
      copt.chunk_records = chunk;
      copt.abort_on_violation = true;
      ok = streamed_cleanup<R>(ctx, source, sink, copt, cmp).ok;
    }
    if (!ok) {
      any_fallback = true;
      PDM_LOG(LogLevel::kInfo, "ExpectedThreePass: segment " << g
                                << " fell back to lmm_merge");
      sorted = StripedRun<R>(ctx, start);
      RunSink<R> sink(sorted);
      LmmOptions lopt;
      lopt.mem_records = mem;
      const CleanupOutcome oc = lmm_merge<R>(ctx, seg_runs, sink, lopt, cmp);
      PDM_ASSERT(oc.ok, "segment fallback violated its dirty bound");
    }
    seg_sorted.push_back(std::move(sorted));
  }

  // Pass 3 (expected): shuffle the segment outputs and clean, verified.
  SortResult<R> result;
  {
    StripedRun<R> attempt(ctx, 0);
    RunSink<R> sink(attempt);
    const u64 chunk = round_down(mem, segments * rpb);
    ShuffleChunkSource<R> source(
        ctx, std::span<const StripedRun<R>>(seg_sorted), chunk);
    CleanupOptions copt;
    copt.chunk_records = chunk;
    copt.abort_on_violation = true;
    const CleanupOutcome oc = streamed_cleanup<R>(ctx, source, sink, copt, cmp);
    if (oc.ok) {
      PDM_ASSERT(oc.emitted == n, "record count mismatch");
      result.output = std::move(attempt);
      result.report = rb.finish();
      result.report.fallback_taken = any_fallback;
      return result;
    }
  }

  // Final-phase fallback: deterministic (l,m)-merge of the segment outputs
  // when feasible, else a forecasting multiway merge (deterministically
  // correct; parallelism is expected rather than guaranteed).
  any_fallback = true;
  PDM_LOG(LogLevel::kInfo,
          "ExpectedThreePass: final phase fell back to a deterministic merge");
  result.output = StripedRun<R>(ctx, 0);
  RunSink<R> sink(result.output);
  bool lmm_feasible = true;
  try {
    (void)detail::choose_lmm_m(segments, seg_len, mem, rpb);
  } catch (const Error&) {
    lmm_feasible = false;
  }
  if (lmm_feasible) {
    LmmOptions lopt;
    lopt.mem_records = mem;
    const CleanupOutcome oc = lmm_merge<R>(
        ctx, std::span<const StripedRun<R>>(seg_sorted), sink, lopt, cmp);
    PDM_ASSERT(oc.ok && oc.emitted == n, "final fallback merge failed");
  } else {
    MergePassOptions mopt;
    mopt.mem_records = mem;
    mopt.lookahead = 1;
    multiway_merge_pass<R>(ctx, std::span<const StripedRun<R>>(seg_sorted),
                           sink, mopt, cmp);
  }
  result.report = rb.finish();
  result.report.fallback_taken = true;
  return result;
}

}  // namespace pdm
