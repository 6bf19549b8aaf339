// Forecasting multiway merge: the merge pass of a Dementiev–Sanders /
// STXXL-style external mergesort, used as the paper's implicit baseline.
//
// Unlike the oblivious LMM passes, the order in which a k-way merge
// consumes blocks depends on the data, so parallel-disk utilization is a
// matter of *forecasting* (Knuth 5.4.9): the next block needed from disk is
// the one belonging to the run whose loaded tail has the smallest last
// key. With a lookahead pool and batched refills the expected utilization
// approaches D; with no lookahead every refill is a synchronous single-
// block I/O and utilization collapses to ~1. bench_e12_parallelism
// measures exactly this contrast, which is the paper's §1 motivation for
// oblivious algorithms.
//
// Extent note: the merge's reads are data-dependent single blocks into
// data-dependent slab slots, so they rarely coalesce (neither the disk
// indices nor the buffer strides line up) — forecasting quality, not
// transfer size, is this pass's lever. Its *output* still benefits: the
// sink appends sequentially through StripedRun, whose extent-backed
// blocks flush as coalesced extent writes.
#pragma once

#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "internal/loser_tree.h"
#include "pdm/memory_budget.h"
#include "pdm/prefetch_buffer.h"
#include "primitives/stream.h"
#include "util/trace.h"

namespace pdm {

struct MergePassOptions {
  u64 mem_records = 0;    // memory cap for buffers
  usize lookahead = 1;    // prefetched blocks per run beyond the current one
                          // (0 = naive demand paging)
};

/// Merges `runs` (each sorted) into `sink`. One pass over the data; the
/// number of parallel reads it takes depends on forecasting quality.
template <Record R, class Cmp = std::less<R>>
void multiway_merge_pass(PdmContext& ctx,
                         std::span<const StripedRun<R>> runs, Sink<R>& sink,
                         const MergePassOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const usize k = runs.size();
  PDM_CHECK(k > 0, "no runs to merge");
  trace::TraceSpan trace_span("pass", "merge_pass", "fan_in", k);
  const usize slots = k * (1 + opt.lookahead);
  PDM_CHECK(static_cast<u64>(slots + ctx.D()) * rpb <= opt.mem_records,
            "merge buffers exceed memory (reduce fan-in or lookahead)");
  // Batch size for forecast refills: D blocks, capped by the fan-in (at
  // most one pending block per run per batch) so small merges still refill
  // in batches instead of waiting for D free slots that can never
  // accumulate.
  const usize refill_batch = std::min<usize>(k, ctx.D());

  TrackedBuffer<R> slab(ctx.budget(), slots * rpb);
  PipelineDrainGuard drain_guard(ctx.aio());  // after the slab it guards
  std::vector<usize> free_slots(slots);
  for (usize i = 0; i < slots; ++i) free_slots[i] = i;

  struct Loaded {
    usize slot;
    usize valid;
    usize pos = 0;
    IoTicket ticket = 0;  // completion of the block's (async) fetch
  };
  struct RunState {
    std::deque<Loaded> queue;
    u64 next_block = 0;   // next block index to fetch
    bool fetch_pending = false;
  };
  std::vector<RunState> st(k);

  // Fetches go through the async pipeline: the batch is charged at
  // submission (same parallel-op accounting as the synchronous path) and
  // each fetched block carries the batch's completion ticket, waited for
  // lazily on first access — so the merge loop overlaps with the reads.
  auto fetch_batch = [&](const std::vector<usize>& which) {
    std::vector<ReadReq> reqs;
    reqs.reserve(which.size());
    std::vector<usize> fetched;
    fetched.reserve(which.size());
    for (usize r : which) {
      PDM_ASSERT(!free_slots.empty(), "no free merge slots");
      const usize slot = free_slots.back();
      free_slots.pop_back();
      const u64 b = st[r].next_block++;
      reqs.push_back(runs[r].read_req(b, slab.data() + slot * rpb));
      st[r].queue.push_back(Loaded{slot, runs[r].records_in_block(b)});
      st[r].fetch_pending = false;
      fetched.push_back(r);
    }
    const IoTicket t = ctx.aio().read_async(reqs);
    for (usize r : fetched) st[r].queue.back().ticket = t;
  };

  auto ensure_loaded = [&](Loaded& l) {
    if (l.ticket != 0) {
      ctx.aio().wait(l.ticket);
      l.ticket = 0;
    }
  };

  // Forecast key of run r = last record of its last loaded block; the run
  // with the smallest tail key will need its next block first.
  auto pick_refills = [&](usize max_count) {
    std::vector<usize> cand;
    for (usize r = 0; r < k; ++r) {
      if (st[r].next_block < runs[r].num_blocks() &&
          st[r].queue.size() <= opt.lookahead) {
        cand.push_back(r);
        // The comparator below reads the tail key of the last loaded
        // block, so that block's fetch must have landed.
        if (!st[r].queue.empty()) ensure_loaded(st[r].queue.back());
      }
    }
    std::sort(cand.begin(), cand.end(), [&](usize a, usize b) {
      const auto& qa = st[a].queue;
      const auto& qb = st[b].queue;
      if (qa.empty() != qb.empty()) return qa.empty();  // starving run first
      if (qa.empty()) return a < b;
      const R& ta = slab[qa.back().slot * rpb + qa.back().valid - 1];
      const R& tb = slab[qb.back().slot * rpb + qb.back().valid - 1];
      if (cmp(ta, tb)) return true;
      if (cmp(tb, ta)) return false;
      return a < b;
    });
    if (cand.size() > max_count) cand.resize(max_count);
    return cand;
  };

  // Initial load: first block of every non-empty run, one batch.
  {
    std::vector<usize> init;
    for (usize r = 0; r < k; ++r) {
      if (runs[r].num_blocks() > 0) init.push_back(r);
    }
    fetch_batch(init);
    if (opt.lookahead > 0) {
      auto more = pick_refills(free_slots.size());
      if (!more.empty()) fetch_batch(more);
    }
  }

  auto head = [&](usize r) -> const R& {
    Loaded& l = st[r].queue.front();
    ensure_loaded(l);
    return slab[l.slot * rpb + l.pos];
  };

  LoserTree<R, Cmp> tree(k, cmp);
  for (usize r = 0; r < k; ++r) {
    if (!st[r].queue.empty()) tree.set_initial(r, head(r));
  }
  tree.build();

  TrackedBuffer<R> emit(ctx.budget(), static_cast<usize>(ctx.D()) * rpb);
  usize emitted = 0;

  auto advance = [&](usize r) -> bool {  // true if run r still has a head
    RunState& s = st[r];
    Loaded& cur = s.queue.front();
    if (++cur.pos < cur.valid) return true;
    free_slots.push_back(cur.slot);
    s.queue.pop_front();
    if (s.queue.empty()) {
      if (s.next_block < runs[r].num_blocks()) {
        // Forecast miss: synchronous single-block fetch (1 parallel I/O
        // moving 1 block — the utilization penalty the bench measures).
        fetch_batch({r});
      } else {
        return false;
      }
    }
    return true;
  };

  u64 since_refill = 0;
  while (!tree.empty()) {
    const usize r = tree.min_source();
    emit[emitted++] = tree.min_value();
    if (emitted == emit.size()) {
      ctx.check_cancelled();
      sink.push(std::span<const R>(emit.data(), emitted));
      emitted = 0;
    }
    if (advance(r)) {
      tree.replace_min(head(r));
    } else {
      tree.exhaust_min();
    }
    // Periodic batched refill driven by forecasting.
    if (opt.lookahead > 0 && ++since_refill >= rpb) {
      since_refill = 0;
      if (free_slots.size() >= refill_batch) {
        auto which = pick_refills(refill_batch);
        if (which.size() >= refill_batch / 2 || !which.empty()) {
          fetch_batch(which);
        }
      }
    }
  }
  if (emitted > 0) sink.push(std::span<const R>(emit.data(), emitted));
  sink.close();
}

}  // namespace pdm
