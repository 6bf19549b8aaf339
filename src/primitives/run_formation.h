// Sorted-run formation: one pass that reads memory-loads of the input,
// sorts them, and writes them back as striped runs — optionally unshuffled
// on the way out (each sorted run split stride-m into m part-runs), which
// is how ThreePass2 folds LMM's unshuffle step into the run-formation pass
// (paper §4, step 2: "this unshuffling can be combined with the initial
// runs formation task").
#pragma once

#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "internal/insort.h"
#include "internal/replacement_selection.h"
#include "pdm/memory_budget.h"
#include "pdm/prefetch_buffer.h"
#include "pdm/striped_run.h"
#include "util/math_util.h"
#include "util/trace.h"

namespace pdm {

/// How runs are formed. kFixed is the legacy default: load M records, sort
/// in core, write one run — byte-identical layout and I/O schedule to every
/// prior release. The adaptive modes select through the loser tree and
/// emit variable-length runs (run_len becomes the heap size): expected 2M
/// on random input, a single run on (nearly) sorted input; kUpDown
/// alternates ascending/descending selection (Bender et al.,
/// 2-competitive), which additionally collapses reverse-sorted input.
enum class RunFormationMode {
  kFixed,
  kReplacementSelection,
  kUpDown,
};

inline const char* run_formation_mode_name(RunFormationMode m) {
  switch (m) {
    case RunFormationMode::kFixed: return "fixed";
    case RunFormationMode::kReplacementSelection: return "replacement";
    case RunFormationMode::kUpDown: return "updown";
  }
  return "?";
}

struct RunFormationOptions {
  u64 run_len = 0;          // records per run (<= M, multiple of B)
  u32 unshuffle_parts = 1;  // m; run_len must be a multiple of m*B when m>1
  u64 first_record = 0;     // block-aligned start of the input range
  u64 num_records = 0;      // 0 = to the end of the input
  RunFormationMode mode = RunFormationMode::kFixed;  // adaptive modes: m == 1
};

/// parts[i][j] = part j of sorted run i (stride-m decimation, itself
/// sorted). With unshuffle_parts == 1 each inner vector has one entry: the
/// whole sorted run; the l runs of one call start on disks
/// spread_start_disk(i, l, D), so the cleanup pass that reads a few blocks
/// of every run together spreads them evenly over the disks. Part (i, j)
/// starts on disk (i + j) mod D so that the later group-merge pass, which
/// reads part j of every run together, touches all disks.
template <Record R>
using FormedRuns = std::vector<std::vector<StripedRun<R>>>;

/// Start-disk stride for replacement selection's runs, whose count is not
/// known when each run opens: run i starts on disk (i * stride) mod D.
/// Coprime to D, so the map is a bijection for every D — D/2+1 alone is
/// even for D = 6 or 10 (colliding start disks), and odd is still not
/// enough for D = 15 (gcd(9, 15) = 3). For power-of-two D the value is
/// D/2+1, preserving historical layouts.
inline u32 flat_run_start_stride(u32 num_disks) {
  if (num_disks < 4) return 1;
  u32 s = (num_disks / 2 + 1) | 1;
  while (std::gcd(s, num_disks) != 1) s += 2;
  return s;
}

template <Record R, class Cmp = std::less<R>>
FormedRuns<R> form_sorted_runs(PdmContext& ctx, const StripedRun<R>& input,
                               const RunFormationOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 run_len = opt.run_len;
  const u32 m = opt.unshuffle_parts;
  PDM_CHECK(run_len > 0 && run_len % rpb == 0,
            "run_len must be a positive multiple of B");
  if (m > 1) {
    PDM_CHECK(run_len % (static_cast<u64>(m) * rpb) == 0,
              "run_len must be a multiple of m*B for unshuffled output");
  }
  PDM_CHECK(opt.first_record % rpb == 0, "range start must be block aligned");
  PDM_CHECK(opt.first_record <= input.size(), "range start out of bounds");
  const u64 n = opt.num_records == 0 ? input.size() - opt.first_record
                                     : opt.num_records;
  PDM_CHECK(opt.first_record + n <= input.size(), "range end out of bounds");
  PDM_CHECK(n > 0, "empty input");
  if (opt.mode != RunFormationMode::kFixed) {
    // Order-adaptive modes emit flat variable-length runs; the unshuffled
    // (LMM) layout needs uniform run lengths, so it stays on kFixed.
    PDM_CHECK(m == 1, "adaptive run formation emits flat runs only");
    auto flat = replacement_select_runs<R>(
        ctx, input, run_len, opt.first_record, n,
        opt.mode == RunFormationMode::kUpDown, flat_run_start_stride(ctx.D()),
        cmp);
    FormedRuns<R> wrapped;
    wrapped.reserve(flat.size());
    for (auto& r : flat) wrapped.emplace_back().push_back(std::move(r));
    return wrapped;
  }
  const u64 num_runs = ceil_div(n, run_len);
  trace::TraceSpan trace_span("pass", "run_formation", "records", n);

  TrackedBuffer<R> load(ctx.budget(), static_cast<usize>(run_len));
  // In-core kernel budget (PdmContext::cpu_budget): when the service
  // arbiter granted >= 2 threads, each memory load sorts in parallel
  // through this scratch; at budget 1 it is empty and costs nothing, and
  // radix keys sort by the serial in-place radix sort.
  TrackedBuffer<R> scratch = kernel_scratch<R>(ctx, load.size());
  TrackedBuffer<R> parts_buf;
  if (m > 1) parts_buf = TrackedBuffer<R>(ctx.budget(), load.size());

  // Double-buffered prefetch: while run i is sorted and written, run i+1
  // streams in. Identical read batches to the synchronous path, so IoStats
  // op counts do not change — only the wall-clock overlap does.
  const bool async = ctx.aio().enabled();
  TrackedBuffer<R> load2;
  if (async) load2 = TrackedBuffer<R>(ctx.budget(), load.size());
  PipelineDrainGuard drain_guard(ctx.aio());  // after the buffers it guards

  R* bufs[2] = {load.data(), async ? load2.data() : nullptr};
  IoTicket tickets[2] = {0, 0};
  auto blocks_of = [&](u64 i) {
    const u64 rec0 = opt.first_record + i * run_len;
    const u64 nrec = std::min<u64>(run_len, opt.first_record + n - rec0);
    return std::pair<u64, u64>{rec0 / rpb, ceil_div(nrec, rpb)};
  };
  auto issue = [&](u64 i, usize slot) {
    const auto [b0, nblocks] = blocks_of(i);
    tickets[slot] = input.read_blocks_async(b0, nblocks, bufs[slot]);
  };

  FormedRuns<R> out;
  out.reserve(static_cast<usize>(num_runs));

  usize cur = 0;
  if (async) issue(0, 0);
  for (u64 i = 0; i < num_runs; ++i) {
    ctx.check_cancelled();
    const u64 rec0 = opt.first_record + i * run_len;
    const u64 nrec = std::min<u64>(run_len, opt.first_record + n - rec0);
    R* buf;
    if (async) {
      ctx.aio().wait(tickets[cur]);
      buf = bufs[cur];
      if (i + 1 < num_runs) issue(i + 1, cur ^ 1);
    } else {
      const auto [b0, nblocks] = blocks_of(i);
      input.read_blocks(b0, nblocks, load.data());
      buf = load.data();
    }
    internal_sort_budgeted(std::span<R>(buf, static_cast<usize>(nrec)), cmp,
                           ctx.cpu_pool(), scratch.span());

    std::vector<StripedRun<R>>& runs_i = out.emplace_back();
    if (m == 1) {
      runs_i.emplace_back(ctx, spread_start_disk(i, num_runs, ctx.D()));
      runs_i[0].append(std::span<const R>(buf, static_cast<usize>(nrec)));
      runs_i[0].finish();
      cur ^= 1;
      continue;
    }
    if (nrec < run_len) {
      // Ragged final run: the stride-m decimations of the sorted tail are
      // still sorted, but their lengths differ (part j holds every record
      // at source index ≡ j mod m, i.e. ceil((nrec - j) / m) records) and
      // are no longer block multiples, so the all-full-blocks staged batch
      // below cannot be used. Fall back to append()/finish(), which pads
      // each part's final block; per-part sizes record the true lengths,
      // so consumers that honor records_in_block() see no padding.
      const u64 p_len_max = ceil_div(nrec, m);
      ctx.cpu_pool().run_chunks(static_cast<usize>(m), [&](usize j) {
        R* dst = parts_buf.data() + j * p_len_max;
        u64 cnt = 0;
        for (u64 t = j; t < nrec; t += m) dst[cnt++] = buf[t];
      });
      runs_i.reserve(m);
      for (u64 j = 0; j < m; ++j) {
        runs_i.emplace_back(ctx, static_cast<u32>((i + j) % ctx.D()));
        const u64 cnt = j < nrec ? ceil_div(nrec - j, m) : 0;
        runs_i.back().append(std::span<const R>(
            parts_buf.data() + j * p_len_max, static_cast<usize>(cnt)));
        runs_i.back().finish();
      }
      cur ^= 1;
      continue;
    }
    // Gather the m stride-m decimations, then write every part in one
    // batched operation: part j, block b covers part positions
    // [b*B, (b+1)*B), i.e. source indices (b*B + t)*m + j.
    const u64 p_len = run_len / m;
    // Per-part gathers write disjoint slices of parts_buf, so running
    // them across the kernel budget is byte-identical to the serial loop.
    ctx.cpu_pool().run_chunks(static_cast<usize>(m), [&](usize j) {
      R* dst = parts_buf.data() + j * p_len;
      const R* src = buf;
      for (u64 t = 0; t < p_len; ++t) dst[t] = src[t * m + j];
    });
    runs_i.reserve(m);
    std::vector<WriteReq> reqs;
    reqs.reserve(static_cast<usize>(m * (p_len / rpb)));
    for (u64 j = 0; j < m; ++j) {
      runs_i.emplace_back(ctx, static_cast<u32>((i + j) % ctx.D()));
    }
    // Part-major staging: part j's blocks go out consecutively, so on
    // each disk the batch is a physically contiguous extent per part
    // (blocks b, b+D, ... of one run share an allocation extent) and the
    // scheduler coalesces it into one syscall. Per-disk load — hence the
    // parallel-op count — is identical to block-major order.
    for (u64 j = 0; j < m; ++j) {
      for (u64 b = 0; b < p_len / rpb; ++b) {
        reqs.push_back(runs_i[static_cast<usize>(j)].stage_append_block(
            parts_buf.data() + j * p_len + b * rpb));
      }
    }
    ctx.write_batch(reqs);
    for (auto& part : runs_i) part.finish();
    cur ^= 1;
  }
  return out;
}

/// Convenience for the unshuffle_parts == 1 case: flat run list.
template <Record R, class Cmp = std::less<R>>
std::vector<StripedRun<R>> form_runs_flat(PdmContext& ctx,
                                          const StripedRun<R>& input,
                                          const RunFormationOptions& opt,
                                          Cmp cmp = {}) {
  PDM_CHECK(opt.unshuffle_parts == 1, "use form_sorted_runs for parts");
  auto formed = form_sorted_runs<R>(ctx, input, opt, cmp);
  std::vector<StripedRun<R>> flat;
  flat.reserve(formed.size());
  for (auto& f : formed) flat.push_back(std::move(f[0]));
  return flat;
}

/// Flat runs of run_len records formed one segment of seg_len records at
/// a time, for passes that read one segment's runs together (the
/// per-segment cleanups of ExpectedThreePass and ExpectedSixPass): each
/// segment's runs spread over all the disks, where one call over the
/// whole input would squeeze each segment onto 1/segments of them.
template <Record R, class Cmp = std::less<R>>
std::vector<StripedRun<R>> form_segment_runs(PdmContext& ctx,
                                             const StripedRun<R>& input,
                                             u64 run_len, u64 seg_len,
                                             Cmp cmp = {}) {
  PDM_CHECK(seg_len > 0 && input.size() % seg_len == 0,
            "segments must tile the input");
  std::vector<StripedRun<R>> runs;
  runs.reserve(static_cast<usize>(ceil_div(input.size(), run_len)));
  for (u64 first = 0; first < input.size(); first += seg_len) {
    RunFormationOptions fopt;
    fopt.run_len = run_len;
    fopt.first_record = first;
    fopt.num_records = seg_len;
    for (auto& r : form_runs_flat<R>(ctx, input, fopt, cmp)) {
      runs.push_back(std::move(r));
    }
  }
  return runs;
}

}  // namespace pdm
