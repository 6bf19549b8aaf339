// The shared tail of SevenPass (§6.1 steps 3-5) and ExpectedSixPass
// (§6.2): given the outer unshuffle parts P[i][j] (part j of sorted
// sequence i, produced by folding the unshuffle into the previous stage's
// write), run the outer (l, m)-merge:
//   stage B (3 passes): for each j, (l,m)-merge {P[i][j] : i} into Q_j;
//   stage C (1 pass):   shuffle Q_1..Q_m and window-clean (dirty <= l*m).
#pragma once

#include "core/sort_report.h"
#include "primitives/lmm_merge.h"

namespace pdm {

template <Record R, class Cmp = std::less<R>>
CleanupOutcome lmm_outer_tail(PdmContext& ctx, const FormedRuns<R>& parts,
                              Sink<R>& sink, u64 mem_records, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const usize l = parts.size();          // outer sequences
  PDM_CHECK(l > 0, "no outer parts");
  const usize m = parts[0].size();       // outer unshuffle arity
  const u64 part_len = parts[0][0].size();
  PDM_CHECK(part_len % rpb == 0, "outer parts must be block aligned");

  // Stage B: m jobs, each an (l, m_inner)-merge of l runs of part_len.
  std::vector<StripedRun<R>> q;
  q.reserve(m);
  LmmOptions lopt;
  lopt.mem_records = mem_records;
  for (usize j = 0; j < m; ++j) {
    std::vector<StripedRun<R>> group;
    group.reserve(l);
    for (usize i = 0; i < l; ++i) {
      PDM_CHECK(parts[i].size() == m && parts[i][j].size() == part_len,
                "ragged outer part matrix");
      group.push_back(parts[i][j]);  // copy of run metadata (blocks shared)
    }
    // Stage C reads the Q_j together: evenly spaced start disks.
    StripedRun<R> qj(ctx, spread_start_disk(j, m, ctx.D()));
    RunSink<R> qsink(qj);
    const CleanupOutcome oc = lmm_merge<R>(
        ctx, std::span<const StripedRun<R>>(group.data(), group.size()),
        qsink, lopt, cmp);
    PDM_ASSERT(oc.ok, "outer stage-B merge violated its dirty bound");
    q.push_back(std::move(qj));
  }

  // Stage C: shuffle the Q_j and clean; dirty <= l*m <= chunk.
  const u64 chunk = round_down(mem_records, static_cast<u64>(m) * rpb);
  PDM_CHECK(chunk >= static_cast<u64>(l) * m,
            "outer cleanup chunk below the l*m dirty bound");
  ShuffleChunkSource<R> source(ctx, std::span<const StripedRun<R>>(q), chunk);
  CleanupOptions copt;
  copt.chunk_records = chunk;
  copt.abort_on_violation = false;
  return streamed_cleanup<R>(ctx, source, sink, copt, cmp);
}

}  // namespace pdm
