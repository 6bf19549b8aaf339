// (l, m)-merge — the merge phase of Rajasekaran's LMM sort [23], the
// engine behind ThreePass2 (§4), SevenPass (§6.1) and the deterministic
// fallback of the expected-pass algorithms.
//
// Given l sorted runs of length L each:
//   pass A: unshuffle each run stride-m into m parts (each part is itself
//           sorted, being a decimation of a sorted sequence);
//   pass B: for each j, merge part j of all runs into Q_j (each group has
//           l*(L/m) <= M records, so it merges entirely in memory);
//   pass C: shuffle Q_1..Q_m and clean up — by the LMM dirty-sequence
//           lemma every record is then within l*m of its sorted position,
//           so the streamed window cleanup with chunk >= l*m finishes it.
// Total: 3 passes. When the caller already holds unshuffled parts (because
// run formation folded pass A into its write), lmm_merge_from_parts does
// passes B and C only.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "internal/loser_tree.h"
#include "primitives/cleanup.h"
#include "primitives/run_formation.h"

namespace pdm {

struct LmmOptions {
  u64 mem_records = 0;  // M
  u64 m = 0;            // 0 = choose automatically
};

namespace detail {

/// Picks the unshuffle arity m: the smallest value with m | L, B | L/m,
/// group size l*(L/m) <= M, dirty bound l*m <= cleanup chunk <= M.
inline u64 choose_lmm_m(u64 l, u64 run_len, u64 mem, u64 rpb) {
  for (u64 m = std::max<u64>(1, ceil_div(l * run_len, mem));
       m * rpb <= mem && m <= run_len; ++m) {
    if (run_len % m != 0) continue;
    const u64 p = run_len / m;
    if (p % rpb != 0) continue;
    if (l * p > mem) continue;
    const u64 chunk = round_down(mem, m * rpb);
    if (chunk == 0 || l * m > chunk) continue;
    return m;
  }
  fail("lmm_merge: no feasible m for l=" + std::to_string(l) +
       " L=" + std::to_string(run_len) + " M=" + std::to_string(mem));
}

/// Splits items 0..n-1 into S = ceil(n / per_batch) batches of at most
/// per_batch items in a *strided* order: batch r holds r, r+S, r+2S, ...
/// Items laid out on neighbouring disks (consecutive groups of parts,
/// consecutive runs formed for a shuffle) then spread over all the disks
/// within each batch, where a batch of consecutive items would pile onto
/// a few.
inline std::vector<std::vector<usize>> strided_batches(usize n,
                                                       usize per_batch) {
  const usize stride = ceil_div(n, per_batch);
  std::vector<std::vector<usize>> batches(stride);
  for (usize i = 0; i < n; ++i) batches[i % stride].push_back(i);
  return batches;
}

/// In-memory k-way merge of l sorted segments of part_len records laid out
/// contiguously in `group`, writing the merged sequence to `out`.
template <Record R, class Cmp>
void merge_segments(const R* group, usize l, u64 part_len, R* out, Cmp cmp) {
  LoserTree<R, Cmp> tree(l, cmp);
  std::vector<u64> pos(l, 0);
  for (usize i = 0; i < l; ++i) {
    tree.set_initial(i, group[i * part_len]);
    pos[i] = 1;
  }
  tree.build();
  usize o = 0;
  while (!tree.empty()) {
    const usize src = tree.min_source();
    out[o++] = tree.min_value();
    if (pos[src] < part_len) {
      tree.replace_min(group[src * part_len + pos[src]++]);
    } else {
      tree.exhaust_min();
    }
  }
}

}  // namespace detail

/// Passes B + C over pre-unshuffled parts: parts[i][j] = part j of run i,
/// all of length part_len (a multiple of B). Emits the fully merged
/// sequence of l*m*part_len records into the sink. Returns the cleanup
/// outcome (ok == false would indicate the deterministic dirty bound was
/// violated — a library bug, asserted upstream).
template <Record R, class Cmp = std::less<R>>
CleanupOutcome lmm_merge_from_parts(PdmContext& ctx,
                                    const FormedRuns<R>& parts, Sink<R>& sink,
                                    const LmmOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const usize l = parts.size();
  PDM_CHECK(l > 0, "no runs");
  const usize m = parts[0].size();
  const u64 part_len = parts[0][0].size();
  PDM_CHECK(part_len % rpb == 0, "part length must be block aligned");
  PDM_CHECK(l * part_len <= mem, "merge group does not fit in memory");
  for (const auto& p : parts) {
    PDM_CHECK(p.size() == m, "ragged part matrix");
  }

  // Pass B: several groups share one memory load whenever a group is
  // smaller than M, so both the batched read and the batched write stay
  // D-wide even when l*part_len << M (e.g. few runs on many disks).
  trace::TraceSpan trace_span("pass", "lmm_group_merge", "groups", m);
  // Pass C reads the m sequences Q_j together, so they start on evenly
  // spaced disks.
  std::vector<StripedRun<R>> q;
  q.reserve(m);
  for (usize j = 0; j < m; ++j) {
    q.emplace_back(ctx, spread_start_disk(j, m, ctx.D()));
  }
  {
    const u64 group_sz = l * part_len;
    const usize groups_per_load =
        static_cast<usize>(std::max<u64>(1, mem / group_sz));
    TrackedBuffer<R> buf(ctx.budget(),
                         groups_per_load * static_cast<usize>(group_sz));
    TrackedBuffer<R> merged(ctx.budget(), buf.size());
    // Strided batches: part (i, j) starts on disk (i+j) mod D, so a batch
    // of consecutive groups would pile onto a triangular disk profile.
    for (const auto& batch : detail::strided_batches(m, groups_per_load)) {
      ctx.check_cancelled();
      std::vector<ReadReq> rreqs;
      rreqs.reserve(batch.size() * l * static_cast<usize>(part_len / rpb));
      for (usize g = 0; g < batch.size(); ++g) {
        for (usize i = 0; i < l; ++i) {
          for (u64 b = 0; b < part_len / rpb; ++b) {
            rreqs.push_back(parts[i][batch[g]].read_req(
                b, buf.data() + g * group_sz + i * part_len + b * rpb));
          }
        }
      }
      ctx.io().read(rreqs);
      // Merge the batch's groups across the kernel budget — each group
      // writes a disjoint slice of `merged`, so any budget produces the
      // same bytes — then stage the write batch serially in the original
      // group order (the request sequence the schedule hash pins).
      ctx.cpu_pool().run_chunks(batch.size(), [&](usize g) {
        detail::merge_segments<R, Cmp>(buf.data() + g * group_sz, l, part_len,
                                       merged.data() + g * group_sz, cmp);
      });
      std::vector<WriteReq> wreqs;
      wreqs.reserve(batch.size() * static_cast<usize>(group_sz / rpb));
      for (usize g = 0; g < batch.size(); ++g) {
        R* out = merged.data() + g * group_sz;
        for (u64 b = 0; b < group_sz / rpb; ++b) {
          wreqs.push_back(q[batch[g]].stage_append_block(out + b * rpb));
        }
      }
      ctx.io().write(wreqs);
    }
    for (auto& qj : q) qj.finish();
  }
  trace_span.end();

  // Pass C: shuffle + window cleanup; dirty length <= l*m.
  const u64 chunk = round_down(mem, static_cast<u64>(m) * rpb);
  PDM_CHECK(chunk >= static_cast<u64>(l) * m,
            "cleanup chunk below the l*m dirty bound");
  ShuffleChunkSource<R> source(ctx, std::span<const StripedRun<R>>(q), chunk);
  CleanupOptions copt;
  copt.chunk_records = chunk;
  copt.abort_on_violation = false;
  return streamed_cleanup<R>(ctx, source, sink, copt, cmp);
}

/// Full 3-pass (l, m)-merge of l sorted runs of equal, block-aligned
/// length. Used as the deterministic fallback when an expected-pass
/// algorithm detects a displacement violation.
template <Record R, class Cmp = std::less<R>>
CleanupOutcome lmm_merge(PdmContext& ctx, std::span<const StripedRun<R>> runs,
                         Sink<R>& sink, const LmmOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const usize l = runs.size();
  PDM_CHECK(l > 0, "no runs");
  const u64 run_len = runs[0].size();
  for (const auto& r : runs) {
    PDM_CHECK(r.size() == run_len, "lmm_merge requires equal-length runs");
  }
  if (l == 1) {
    // Degenerate: stream-copy (one pass).
    TrackedBuffer<R> buf(ctx.budget(), static_cast<usize>(
                                           std::min<u64>(mem, run_len)));
    const u64 blocks_per_load = buf.size() / rpb;
    for (u64 b = 0; b < runs[0].num_blocks(); b += blocks_per_load) {
      const u64 nb = std::min<u64>(blocks_per_load, runs[0].num_blocks() - b);
      runs[0].read_blocks(b, nb, buf.data());
      const u64 first_rec = b * rpb;
      const u64 nrec = std::min<u64>(nb * rpb, run_len - first_rec);
      sink.push(std::span<const R>(buf.data(), static_cast<usize>(nrec)));
    }
    sink.close();
    return CleanupOutcome{true, run_len, 0};
  }
  const u64 m = opt.m != 0 ? opt.m
                           : detail::choose_lmm_m(l, run_len, mem, rpb);
  PDM_CHECK(run_len % m == 0 && (run_len / m) % rpb == 0,
            "invalid m for lmm_merge");
  const u64 p_len = run_len / m;

  // Pass A: unshuffle every run into m parts, streaming in loads that are
  // multiples of m*B so each part receives whole blocks per load. Short
  // runs are batched several-per-load so the parallel reads still spread
  // over all disks (otherwise sub-D batches would inflate the pass count).
  const u64 load_sz = round_down(mem, m * rpb);
  PDM_CHECK(load_sz > 0, "memory too small for unshuffle load");
  trace::TraceSpan trace_span("pass", "lmm_unshuffle", "runs", l);
  FormedRuns<R> parts(l);
  for (usize i = 0; i < l; ++i) {
    parts[i].reserve(static_cast<usize>(m));
    for (u64 j = 0; j < m; ++j) {
      parts[i].emplace_back(ctx, static_cast<u32>((i + j) % ctx.D()));
    }
  }
  {
    TrackedBuffer<R> load(ctx.budget(), static_cast<usize>(load_sz));
    TrackedBuffer<R> scatter(ctx.budget(), static_cast<usize>(load_sz));
    auto unshuffle_and_stage = [&](usize run, u64 g, const R* src, R* dst,
                                   std::vector<WriteReq>& reqs) {
      const u64 per_part = g / m;
      // Per-part gathers target disjoint slices of dst: kernel-budget
      // parallel, byte-identical at any budget.
      ctx.cpu_pool().run_chunks(static_cast<usize>(m), [&](usize j) {
        R* d = dst + j * per_part;
        for (u64 t = 0; t < per_part; ++t) d[t] = src[t * m + j];
      });
      // Part-major staging (see run_formation.h): each part's blocks are
      // consecutive in the batch, so per disk they form extent-contiguous
      // spans the scheduler coalesces; per-disk load is unchanged.
      for (u64 j = 0; j < m; ++j) {
        for (u64 b = 0; b < per_part / rpb; ++b) {
          reqs.push_back(parts[run][static_cast<usize>(j)].stage_append_block(
              dst + j * per_part + b * rpb));
        }
      }
    };
    if (run_len <= load_sz) {
      // Strided loads, as pass B batches its groups: runs formed for a
      // shuffle start on evenly spaced disks, so consecutive runs sit on
      // neighbouring disks.
      const usize runs_per_load =
          static_cast<usize>(std::max<u64>(1, load_sz / run_len));
      for (const auto& batch : detail::strided_batches(l, runs_per_load)) {
        std::vector<ReadReq> rreqs;
        rreqs.reserve(batch.size() * static_cast<usize>(run_len / rpb));
        for (usize c = 0; c < batch.size(); ++c) {
          for (u64 b = 0; b < run_len / rpb; ++b) {
            rreqs.push_back(runs[batch[c]].read_req(
                b, load.data() + c * run_len + b * rpb));
          }
        }
        ctx.io().read(rreqs);
        std::vector<WriteReq> wreqs;
        wreqs.reserve(batch.size() * static_cast<usize>(run_len / rpb));
        for (usize c = 0; c < batch.size(); ++c) {
          unshuffle_and_stage(batch[c], run_len, load.data() + c * run_len,
                              scatter.data() + c * run_len, wreqs);
        }
        ctx.io().write(wreqs);
      }
    } else {
      for (usize i = 0; i < l; ++i) {
        for (u64 t0 = 0; t0 < run_len; t0 += load_sz) {
          const u64 g = std::min<u64>(load_sz, run_len - t0);
          runs[i].read_blocks(t0 / rpb, g / rpb, load.data());
          std::vector<WriteReq> reqs;
          reqs.reserve(static_cast<usize>(g / rpb));
          unshuffle_and_stage(i, g, load.data(), scatter.data(), reqs);
          ctx.io().write(reqs);
        }
      }
    }
    for (auto& run_parts : parts) {
      for (auto& part : run_parts) part.finish();
    }
  }
  trace_span.end();

  LmmOptions bopt = opt;
  bopt.m = m;
  PDM_CHECK(l * p_len <= mem, "lmm group too large");
  return lmm_merge_from_parts<R>(ctx, parts, sink, bopt, cmp);
}

}  // namespace pdm
