// Order-adaptive run formation engines (Bender et al., "Run Generation
// Revisited", PAPERS.md): replacement selection through the loser tree
// emits runs of expected length 2M on random input and a *single* run on
// any input whose records are displaced by at most M/2 positions from
// sorted order; the alternating up/down variant additionally collapses
// reverse-sorted input (and is 2-competitive in general). Both stream the
// input with the same memory-load read batches as the fixed-run path, so
// the read-side I/O schedule is identical — only run boundaries move.
//
// Sorted batches. When kRadixSortable<R, Cmp> holds (insort.h), equal
// keys are equal bytes, so the output shows which records the tree emits
// at each step but not which of two equal entries leaves first. Run 0 is
// then computed without the tree while the input allows it. The heap is
// kept as a sorted array h[0..k), and the input is taken in batches of
// c = M/2 records x_1..x_c, cut short where a memory load ends.
//  - The check. The tree's s-th emission over the batch is at most h[s-1]
//    (it is the s-th smallest of the heap and x_1..x_{s-1}), and x_s is
//    late only if it is smaller than that emission. So if no x_s < h[s-1],
//    no record of the batch is late, and the tree's c emissions are the c
//    smallest records of heap ∪ batch, in order; the heap it keeps is the
//    rest. Every batch passes when each record sits within M - c of its
//    sorted place.
//  - A passing batch is sorted in the load buffer by the radix kernel on
//    the context's kernel budget, and the c smallest of heap ∪ batch go
//    out through the tree's staging block, one block at a time with the
//    same cancellation poll. The two remainders then merge forward into
//    the heap, in place: the batch's remainder is as long as the heap's
//    emitted prefix, so the write index never passes the heap's read
//    index. Either step is a plain copy when the sorted batch starts at or
//    above the last heap record it must pass, as it does when the input's
//    disorder sits in windows that line up with the batches.
//  - No batch straddles a load, so each load is read after the same number
//    of emitted records as the tree reads it, and reads and writes
//    interleave in the same order: records, run boundaries, ops, blocks,
//    calls and the schedule hash are the tree's.
//  - The fallback. The first batch that fails the check builds the tree
//    from the heap, every entry at tag 0, and the tree takes the failing
//    batch in input order and then the rest of the input, as it would
//    have. Every other record type or comparator (a KeyTraits projection,
//    std::greater, a lambda) runs the tree from the start.
//
// Memory: the context budget is charged for the M-record load buffer, one
// staging block and, with async I/O, the second load buffer. The selection
// state is not charged, matching how the merge passes account for their
// trees: the loser tree's bit_ceil(M) nodes of {record, tag, source}, or
// the sorted heap and its radix scratch, M records each. For every radix
// key type the two arrays are at most the tree's size (equal for u64:
// 1 MiB at M = 2^16). The fallback frees the scratch before it builds the
// tree and the heap once the tree holds its entries.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "pdm/memory_budget.h"
#include "pdm/prefetch_buffer.h"
#include "pdm/striped_run.h"
#include "util/math_util.h"
#include "util/trace.h"

namespace pdm {

/// Replacement-selection run formation over a striped input range.
/// Emits variable-length ascending runs: every run except possibly the
/// last holds at least `heap_records` records (the heap is full when the
/// run opens), expected 2*heap_records on random input, and sorted input
/// yields exactly one run. With `updown`, odd-numbered runs are selected
/// descending — written with per-block record reversal and a metadata
/// block-list flip (StripedRun::reverse_blocks), so every emitted run is
/// stored ascending with zero extra I/O. A descending run's sub-block
/// tail cannot be block-reversed; it is emitted as its own mini-run of
/// fewer than B records (at most one per down run).
///
/// Run i starts on disk (i * start_stride) mod D: a coprime stride
/// staggers the starts over all disks without knowing the run count in
/// advance, which the fixed path's spread_start_disk rule needs.
template <Record R, class Cmp = std::less<R>>
std::vector<StripedRun<R>> replacement_select_runs(
    PdmContext& ctx, const StripedRun<R>& input, u64 heap_records,
    u64 first_record, u64 num_records, bool updown, u32 start_stride,
    Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  PDM_CHECK(heap_records > 0 && heap_records % rpb == 0,
            "heap size must be a positive multiple of B");
  PDM_CHECK(first_record % rpb == 0, "range start must be block aligned");
  PDM_CHECK(first_record <= input.size(), "range start out of bounds");
  const u64 n = num_records == 0 ? input.size() - first_record : num_records;
  PDM_CHECK(first_record + n <= input.size(), "range end out of bounds");
  PDM_CHECK(n > 0, "empty input");
  trace::TraceSpan trace_span("pass", "run_formation_adaptive", "records", n);

  // Input streaming: heap-sized batched reads, double buffered through the
  // async pipeline — the same load geometry as the fixed path, so the
  // read-side op and block counts match it exactly.
  const u64 load_len = heap_records;
  const u64 num_loads = ceil_div(n, load_len);
  TrackedBuffer<R> load(ctx.budget(), static_cast<usize>(load_len));
  const bool async = ctx.aio().enabled();
  TrackedBuffer<R> load2;
  if (async) load2 = TrackedBuffer<R>(ctx.budget(), load.size());
  PipelineDrainGuard drain_guard(ctx.aio());

  R* bufs[2] = {load.data(), async ? load2.data() : nullptr};
  IoTicket tickets[2] = {0, 0};
  auto blocks_of = [&](u64 li) {
    const u64 rec0 = first_record + li * load_len;
    const u64 nrec = std::min<u64>(load_len, first_record + n - rec0);
    return std::pair<u64, u64>{rec0 / rpb, ceil_div(nrec, rpb)};
  };
  auto issue = [&](u64 li, usize slot) {
    const auto [b0, nblocks] = blocks_of(li);
    tickets[slot] = input.read_blocks_async(b0, nblocks, bufs[slot]);
  };

  usize slot = 0;
  u64 next_load = 0;  // next load index to consume
  u64 valid = 0;      // records in the current load
  usize pos = 0;      // cursor within the current load
  R* buf = nullptr;
  if (async) issue(0, 0);
  // Makes the next load current; false at the end of the input.
  auto next_load_ready = [&]() -> bool {
    if (next_load >= num_loads) return false;
    if (async) {
      ctx.aio().wait(tickets[slot]);
      buf = bufs[slot];
      if (next_load + 1 < num_loads) issue(next_load + 1, slot ^ 1);
      slot ^= 1;
    } else {
      const auto [b0, nblocks] = blocks_of(next_load);
      input.read_blocks(b0, nblocks, load.data());
      buf = load.data();
    }
    valid = std::min<u64>(load_len, n - next_load * load_len);
    pos = 0;
    ++next_load;
    return true;
  };
  auto next_record = [&](R& dst) -> bool {
    if (pos >= valid && !next_load_ready()) return false;
    dst = buf[pos++];
    return true;
  };

  // The first min(M, N) records all carry run tag 0, which is what
  // guarantees every non-final run's length is >= M — when run r opens,
  // all M heap slots hold tag-r records, and each of them must be emitted
  // into run r before any tag-(r+1) record surfaces.
  const usize k = static_cast<usize>(std::min<u64>(heap_records, n));
  std::vector<R> heap(k);
  for (R& r : heap) {
    const bool ok = next_record(r);
    PDM_CHECK(ok, "input exhausted during heap fill");
  }

  // Odd-numbered runs descend under the up/down policy.
  auto run_less = [cmp, updown](u32 run, const R& a, const R& b) {
    return updown && (run & 1) != 0 ? cmp(b, a) : cmp(a, b);
  };
  using Tree = LoserTree<R, decltype(run_less)>;

  std::vector<StripedRun<R>> out;
  TrackedBuffer<R> block_buf(ctx.budget(), rpb);
  usize fill = 0;
  u32 cur_run = 0;
  bool down = false;  // current run is selected descending

  auto open_run = [&](u32 run_no) {
    PDM_CHECK(run_no + 1 < Tree::kDeadTag, "run tags exhausted");
    out.emplace_back(ctx,
                     static_cast<u32>((out.size() * start_stride) % ctx.D()));
    cur_run = run_no;
    down = updown && (run_no & 1) != 0;
  };
  auto flush_block = [&]() {
    if (fill == 0) return;
    // Down runs reverse each block's records at staging; after the run
    // finishes, reverse_blocks() flips the block order and the stored run
    // reads ascending.
    if (down) std::reverse(block_buf.data(), block_buf.data() + fill);
    out.back().append(std::span<const R>(block_buf.data(), fill));
    fill = 0;
  };
  // Stages records in order; each full block is appended after a
  // cancellation poll.
  auto emit = [&](const R* recs, usize len) {
    while (len > 0) {
      const usize take = std::min(len, rpb - fill);
      std::copy(recs, recs + take, block_buf.data() + fill);
      fill += take;
      recs += take;
      len -= take;
      if (fill == rpb) {
        ctx.check_cancelled();
        flush_block();
      }
    }
  };
  auto close_run = [&]() {
    if (!down) {
      flush_block();  // a partial tail is fine for an ascending run
      out.back().finish();
      return;
    }
    out.back().finish();
    out.back().reverse_blocks();
    if (out.back().empty()) out.pop_back();  // down run shorter than B
    if (fill > 0) {
      // Sub-block tail of a down run: becomes its own tiny ascending run.
      std::reverse(block_buf.data(), block_buf.data() + fill);
      out.emplace_back(
          ctx, static_cast<u32>((out.size() * start_stride) % ctx.D()));
      out.back().append(std::span<const R>(block_buf.data(), fill));
      out.back().finish();
      fill = 0;
    }
  };

  open_run(0);  // every first entry carries tag 0
  if constexpr (kRadixSortable<R, Cmp>) {
    // Run 0 in sorted batches (see the file comment); it ascends in both
    // modes.
    const usize batch = std::max<usize>(k / 2, 1);
    std::vector<R> scratch(k);
    auto sort = [&](std::span<R> recs) {
      internal_sort_budgeted(recs, cmp, ctx.cpu_pool(),
                             std::span<R>(scratch));
    };
    sort(std::span<R>(heap));
    while (pos < valid || next_load_ready()) {
      const usize c = static_cast<usize>(std::min<u64>(batch, valid - pos));
      R* x = buf + pos;
      bool late = false;
      for (usize s = 0; s < c; ++s) late |= cmp(x[s], heap[s]);
      if (late) break;
      sort(std::span<R>(x, c));
      // The c smallest of heap ∪ batch leave, i from the heap and j from
      // the batch. A batch that starts at or above h[c-1] adds none of
      // them; otherwise a branchless merge picks them, with both cursors
      // below c <= k at every step.
      usize i = 0;
      usize j = 0;
      if (!cmp(x[0], heap[c - 1])) {
        emit(heap.data(), c);
        i = c;
      } else {
        for (usize o = 0; o < c; ++o) {
          const bool take_x = cmp(x[j], heap[i]);
          emit(take_x ? &x[j] : &heap[i], 1);
          j += take_x;
          i += !take_x;
        }
      }
      // The remainders, heap[i..k) and the batch's last i records, merge
      // forward into the heap. The write index w never passes i, and
      // w == i once the batch's remainder is used up.
      if (j < c && !cmp(x[j], heap[k - 1])) {
        std::copy(heap.begin() + static_cast<std::ptrdiff_t>(i), heap.end(),
                  heap.begin());
        std::copy(x + j, x + c, heap.end() - static_cast<std::ptrdiff_t>(i));
      } else {
        usize w = 0;
        while (j < c && i < k) {
          const bool take_x = cmp(x[j], heap[i]);
          heap[w++] = take_x ? x[j] : heap[i];
          j += take_x;
          i += !take_x;
        }
        std::copy(x + j, x + c,
                  heap.begin() + static_cast<std::ptrdiff_t>(w));
      }
      pos += c;
    }
    if (pos == valid) {  // the input ran out before any batch failed
      emit(heap.data(), k);
      close_run();
      return out;
    }
  }  // frees the scratch before the tree is built

  Tree tree(k, run_less);
  for (usize i = 0; i < k; ++i) tree.set_initial(i, heap[i]);
  heap = std::vector<R>();
  tree.build();
  while (!tree.empty()) {
    const R top = tree.min_value();  // copy: replace_min overwrites it
    const u32 run = tree.min_tag();
    if (run != cur_run) {
      close_run();
      open_run(run);
    }
    R incoming{};
    if (next_record(incoming)) {
      // Classic replacement selection: the incoming record joins the
      // current run iff emitting it after `top` keeps the run's order;
      // otherwise it waits in the heap under the next run's tag.
      const bool late = run_less(run, incoming, top);
      tree.replace_min(incoming, late ? run + 1 : run);
    } else {
      tree.exhaust_min();
    }
    emit(&top, 1);
  }
  close_run();
  return out;
}

}  // namespace pdm
