// ExpectedSixPass (paper §6.2, Theorem 6.3): SevenPass with stage 1
// replaced by ExpectedTwoPass — runs of length ~M^{3/2}/lambda are formed
// in an expected two passes instead of ThreePass2's three, sorting
// M^2/lambda records in six expected passes.
//
//   passes 1-2: form M-record runs one segment at a time (1 pass); per
//               segment, shuffle-clean the segment's runs into one sorted
//               sequence, emitted through an UnshuffleSink into sqrt(M)
//               outer parts (1 pass, verified on line; +3-pass
//               deterministic fallback per segment on violation);
//   passes 3-5: the outer group merges;  pass 6: final shuffle-cleanup.
#pragma once

#include "core/capacity.h"
#include "core/lmm_outer.h"
#include "core/sort_report.h"
#include "primitives/run_formation.h"
#include "util/logging.h"

namespace pdm {

struct ExpectedSixPassOptions {
  u64 mem_records = 0;
  double alpha = 1.0;
  u64 segment_len = 0;  // 0 = choose: largest multiple of M^{?}; see below
};

namespace detail {

/// Segment length for the expected stage-1: a multiple of sqrt(M)*B (so
/// the outer parts are block aligned), at most min(cap2, M^{3/2}), and
/// dividing N evenly. Returns 0 if no feasible choice exists.
inline u64 choose_six_pass_segment(u64 n, u64 mem, u64 rpb, double alpha) {
  const u64 s = isqrt(mem);
  const u64 align = s * rpb;  // part alignment: L/s must be a multiple of B
  const u64 cap2 = cap_expected_two_pass(mem, alpha);
  const u64 lmax = std::min<u64>(round_down(cap2, align), mem * s);
  for (u64 segs = ceil_div(n, std::max<u64>(lmax, 1)); segs <= s; ++segs) {
    if (n % segs != 0) continue;
    const u64 len = n / segs;
    if (len % align != 0) continue;
    if (len > mem * s) continue;
    if (len / mem == 0) continue;
    return len;
  }
  return 0;
}

}  // namespace detail

template <Record R, class Cmp = std::less<R>>
SortResult<R> expected_six_pass_sort(PdmContext& ctx,
                                     const StripedRun<R>& input,
                                     const ExpectedSixPassOptions& opt,
                                     Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 s = isqrt(mem);
  const u64 n = input.size();
  PDM_CHECK(s * s == mem, "ExpectedSixPass requires M to be a perfect square");
  PDM_CHECK(rpb == s, "ExpectedSixPass requires B = sqrt(M)");
  const u64 seg_len = opt.segment_len != 0
                          ? opt.segment_len
                          : detail::choose_six_pass_segment(n, mem, rpb,
                                                            opt.alpha);
  PDM_CHECK(seg_len != 0 && n % seg_len == 0 && seg_len % (s * rpb) == 0,
            "no feasible segment length (need N = k * L, L a multiple of "
            "sqrt(M)*B, k <= sqrt(M))");
  PDM_CHECK(seg_len % mem == 0, "segment length must be a multiple of M");
  const u64 segments = n / seg_len;
  PDM_CHECK(segments <= s, "too many segments for the outer merge");

  ReportBuilder rb(ctx, "ExpectedSixPass", n, mem, rpb);
  bool any_fallback = false;

  // Pass 1: M-record runs, formed one segment at a time.
  const auto runs = form_segment_runs<R>(ctx, input, mem, seg_len, cmp);
  const u64 runs_per_seg = seg_len / mem;

  // Pass 2 (expected): per segment, shuffle-clean into the outer parts.
  FormedRuns<R> outer_parts(static_cast<usize>(segments));
  for (u64 i = 0; i < segments; ++i) {
    auto& parts_i = outer_parts[static_cast<usize>(i)];
    parts_i.reserve(static_cast<usize>(s));
    for (u64 j = 0; j < s; ++j) {
      parts_i.emplace_back(ctx, static_cast<u32>((i + j) % ctx.D()));
    }
    std::span<const StripedRun<R>> seg_runs(
        runs.data() + i * runs_per_seg, static_cast<usize>(runs_per_seg));
    const u64 chunk = round_down(mem, runs_per_seg * rpb);
    bool ok = false;
    {
      UnshuffleSink<R> usink(ctx, std::span<StripedRun<R>>(parts_i.data(), s));
      ShuffleChunkSource<R> source(ctx, seg_runs, chunk);
      CleanupOptions copt;
      copt.chunk_records = chunk;
      copt.abort_on_violation = true;
      ok = streamed_cleanup<R>(ctx, source, usink, copt, cmp).ok;
    }
    if (!ok) {
      // Fallback: deterministic (l,m)-merge of this segment's runs (+3
      // passes over this segment only). Discard the partial parts.
      any_fallback = true;
      PDM_LOG(LogLevel::kInfo, "ExpectedSixPass: segment " << i
                                << " fell back to lmm_merge");
      parts_i.clear();
      for (u64 j = 0; j < s; ++j) {
        parts_i.emplace_back(ctx, static_cast<u32>((i + j) % ctx.D()));
      }
      UnshuffleSink<R> usink(ctx, std::span<StripedRun<R>>(parts_i.data(), s));
      LmmOptions lopt;
      lopt.mem_records = mem;
      const CleanupOutcome oc = lmm_merge<R>(ctx, seg_runs, usink, lopt, cmp);
      PDM_ASSERT(oc.ok, "segment fallback violated its dirty bound");
    }
  }

  // Passes 3-6.
  SortResult<R> result;
  result.output = StripedRun<R>(ctx, 0);
  RunSink<R> sink(result.output);
  const CleanupOutcome oc =
      lmm_outer_tail<R>(ctx, outer_parts, sink, mem, cmp);
  PDM_ASSERT(oc.ok, "ExpectedSixPass outer dirty bound violated");
  PDM_ASSERT(oc.emitted == n, "record count mismatch in ExpectedSixPass");

  result.report = rb.finish();
  result.report.fallback_taken = any_fallback;
  return result;
}

}  // namespace pdm
