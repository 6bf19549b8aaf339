// Streamed shuffle-cleanup: the single-pass realization of Observation 4.2.
//
// The paper's cleanup of a shuffled sequence Z is: split Z into chunks
// Z_1..Z_t of d records, sort each, merge (Z_1,Z_2), (Z_3,Z_4), ... then
// (Z_2,Z_3), (Z_4,Z_5), ... — correct whenever every record of Z sits
// within d of its sorted position. The streaming equivalent implemented
// here holds a window W of two chunks: read the next chunk, sort it, merge
// it with the sorted chunk retained from the previous step, emit the lower
// chunk of the merged window, retain the upper.
//
// Equivalence sketch: the streamed pass emits, for window p, the smallest
// d records of (retained_p ∪ Z_{p+1}); by induction retained_p is sorted
// and contains every unemitted record from Z_1..Z_p, so sorting Z_{p+1}
// and merging it with retained_p yields (retained_p ∪ Z_{p+1}) in sorted
// order, the same multiset a sort of the whole window would. A record
// destined for output window p (final position < p*d) lies at shuffled
// position < (p+1)*d by the displacement bound, i.e. in some chunk
// <= p+1 — always visible by the time window p is emitted. The paper's two
// merge rounds compute the same multisets (adding Z_{p+2}'s elements to
// the second round's merge cannot change the lower half, since any such
// element that entered the lower half would already have been in Z_{p+1}'
// after round one).
//
// Where the merge runs: with kernel scratch (a kernel budget >= 2), the
// new chunk is sorted alone and merged with the retained chunk into the
// scratch by merge_budgeted; the lower part is emitted from there and the
// upper part copied back to the window. Without scratch (budget 1) the
// whole window is sorted in place: by the in-place radix sort for radix
// keys, else by std::sort (see insort.h). Either way the window is the same
// multiset in sorted order, so records whose equal keys are equal bytes
// come out byte-identical; for other records only the order among equal
// keys may differ, as it may between kernel budgets (see insort.h).
//
// On-line failure detection (§5): the output windows are sorted by
// construction, so the full output is sorted iff every window's minimum is
// >= the previous window's maximum. When a violation is found the pass
// aborts and the caller falls back to a deterministic sort, exactly as
// ExpectedTwoPass prescribes.
//
// Extent note: both ends of this pass are sequential streams — the source
// reads whole chunk-spans of each input run (run-major batches, see
// ShuffleChunkSource) and the sink appends through StripedRun — so with
// extent-backed runs the whole pass moves in extent-sized transfers; the
// window sort and merge in between never touch the disks.
#pragma once

#include <algorithm>
#include <span>

#include "internal/insort.h"
#include "pdm/memory_budget.h"
#include "primitives/stream.h"
#include "util/trace.h"

namespace pdm {

struct CleanupOutcome {
  bool ok = true;       // false => displacement bound violated, pass aborted
  u64 emitted = 0;      // records pushed to the sink before abort/finish
  u64 windows = 0;      // windows emitted
};

struct CleanupOptions {
  u64 chunk_records = 0;            // d; window is 2d
  bool abort_on_violation = true;   // expected algorithms abort; the
                                    // deterministic ones treat it as a bug
};

template <Record R, class Cmp = std::less<R>>
CleanupOutcome streamed_cleanup(PdmContext& ctx, ChunkSource<R>& source,
                                Sink<R>& sink, const CleanupOptions& opt,
                                Cmp cmp = {}) {
  const usize chunk = static_cast<usize>(opt.chunk_records);
  PDM_CHECK(chunk > 0, "cleanup chunk must be positive");
  PDM_CHECK(source.chunk_records() <= chunk,
            "source chunks larger than cleanup chunk");
  trace::TraceSpan trace_span("pass", "cleanup", "chunk_records", chunk);

  TrackedBuffer<R> window(ctx.budget(), 2 * chunk);
  // Scratch for the kernel and the merge, only when the service's CPU
  // arbiter granted a kernel budget >= 2; it holds a whole window.
  TrackedBuffer<R> scratch = kernel_scratch<R>(ctx, 2 * chunk);

  CleanupOutcome out;
  usize held = 0;
  R last_max{};
  bool have_last = false;

  while (!source.exhausted()) {
    ctx.check_cancelled();
    const usize got = source.next_chunk(window.data() + held, chunk);
    if (got == 0 && source.exhausted()) break;
    const usize total = held + got;
    const std::span<R> win(window.data(), total);
    // The window in sorted order: in place, or merged into the scratch.
    const R* sorted = window.data();
    if (scratch.size() == 0) {
      internal_sort_budgeted(win, cmp, ctx.cpu_pool(), std::span<R>{});
    } else {
      internal_sort_budgeted(win.subspan(held), cmp, ctx.cpu_pool(),
                             scratch.span());
      if (held > 0) {
        merge_budgeted(std::span<const R>(win.first(held)),
                       std::span<const R>(win.subspan(held)),
                       scratch.span().first(total), cmp, ctx.cpu_pool());
        sorted = scratch.data();
      }
    }
    usize emit;
    if (source.exhausted()) {
      emit = total;  // final flush
    } else {
      emit = total > chunk ? total - chunk : 0;
    }
    if (emit > 0) {
      if (have_last && cmp(sorted[0], last_max)) {
        out.ok = false;
        if (opt.abort_on_violation) return out;
      }
      sink.push(std::span<const R>(sorted, emit));
      out.emitted += emit;
      ++out.windows;
      last_max = sorted[emit - 1];
      have_last = true;
    }
    if (emit > 0 || sorted != window.data()) {
      std::copy(sorted + emit, sorted + total, window.data());
    }
    held = total - emit;
  }
  if (held > 0) {
    // Source went dry exactly at a window boundary: flush the holdover.
    if (have_last && cmp(window[0], last_max)) {
      out.ok = false;
      if (opt.abort_on_violation) return out;
    }
    sink.push(std::span<const R>(window.data(), held));
    out.emitted += held;
    ++out.windows;
  }
  sink.close();
  return out;
}

}  // namespace pdm
