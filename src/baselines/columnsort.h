// Chaudhry–Cormen three-pass out-of-core columnsort [7, 9] — the baseline
// the paper compares its three-pass algorithms against (Observations 4.1
// and 5.1).
//
// Leighton's columnsort on an r x c matrix (r >= 2(c-1)^2) is 8 steps:
// (1) sort columns, (2) transpose+reshape, (3) sort columns,
// (4) untranspose, (5) sort columns, (6) shift down r/2, (7) sort columns,
// (8) unshift. Chaudhry & Cormen fold these into 3 passes by attaching
// each permutation to the neighbouring pass's read or write; we realize
// the same folding on the PDM:
//   pass 1 = steps 1+2: sort each input column, write it decimated
//            stride-c into c part-runs (the transpose read pattern);
//   pass 2 = steps 3+4: gather each transposed column from its c parts,
//            sort, write as c contiguous segments (the untranspose
//            pattern);
//   pass 3 = steps 5-8: gather each final column (segment i of every
//            pass-2 column — their interleave order is irrelevant because
//            the column gets sorted), sort, and apply the shift/sort/
//            unshift as a stream of disjoint r-record windows offset by
//            r/2: emit sort(held_upper_half ∪ next_lower_half), retain the
//            next upper half.
// Capacity: r <= M and r >= 2(c-1)^2 give N = r*c <= M*sqrt(M/2); block
// alignment additionally needs B | r/c. Oblivious.
#pragma once

#include "core/capacity.h"
#include "core/sort_report.h"
#include "internal/insort.h"
#include "pdm/memory_budget.h"
#include "pdm/striped_run.h"

namespace pdm {

struct ColumnsortOptions {
  u64 mem_records = 0;
  u64 rows = 0;  // 0 = derive from N (largest feasible c)
  u64 cols = 0;
};

struct ColumnsortGeometry {
  u64 rows = 0;
  u64 cols = 0;
  bool ok = false;
};

/// Finds (r, c) with r*c == n, r <= M, r >= 2(c-1)^2, B | r/c.
inline ColumnsortGeometry columnsort_geometry(u64 n, u64 mem, u64 rpb) {
  for (u64 c = isqrt(mem); c >= 2; --c) {
    if (n % c != 0) continue;
    const u64 r = n / c;
    if (r > mem) continue;
    if (r < 2 * (c - 1) * (c - 1)) continue;
    if ((r % c) != 0 || ((r / c) % rpb) != 0) continue;
    return {r, c, true};
  }
  return {};
}

/// Largest feasible N <= M*sqrt(M/2) for the given geometry constraints.
inline u64 max_columnsort_n(u64 mem, u64 rpb) {
  u64 best = 0;
  for (u64 c = 2; 2 * (c - 1) * (c - 1) <= mem; ++c) {
    const u64 r = round_down(mem, c * rpb);
    if (r == 0 || r < 2 * (c - 1) * (c - 1)) continue;
    best = std::max(best, r * c);
  }
  return best;
}

template <Record R, class Cmp = std::less<R>>
SortResult<R> columnsort_cc_sort(PdmContext& ctx, const StripedRun<R>& input,
                                 const ColumnsortOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 n = input.size();
  ColumnsortGeometry g{opt.rows, opt.cols, opt.rows != 0 && opt.cols != 0};
  if (!g.ok) g = columnsort_geometry(n, mem, rpb);
  PDM_CHECK(g.ok, "no feasible columnsort geometry for this N, M, B");
  const u64 r = g.rows;
  const u64 c = g.cols;
  PDM_CHECK(r * c == n && r <= mem && r >= 2 * (c - 1) * (c - 1),
            "invalid columnsort geometry");
  PDM_CHECK(r % c == 0 && (r / c) % rpb == 0,
            "columnsort parts must be block aligned (B | r/c)");
  const u64 p = r / c;  // part/segment length

  ReportBuilder rb(ctx, "Columnsort-CC", n, mem, rpb);

  TrackedBuffer<R> col(ctx.budget(), static_cast<usize>(r));
  TrackedBuffer<R> gather(ctx.budget(), static_cast<usize>(r));
  TrackedBuffer<R> scratch = kernel_scratch<R>(ctx, col.size());
  auto sort_col = [&](std::span<R> data) {
    internal_sort_budgeted(data, cmp, ctx.cpu_pool(), scratch.span());
  };

  // Part t of column i (a pass-1 part or a pass-2 segment) starts on disk
  // spread_start_disk((i + t) mod c, c, D): each column's c parts fill
  // consecutive disks, and so do the c parts the next pass reads together
  // (part i2 of every column in pass 2, segment i of every column in
  // pass 3; r is a multiple of c, so pass 2's d(q, i2) is i2).
  auto part_start = [&](u64 i, u64 t) {
    return spread_start_disk((i + t) % c, c, ctx.D());
  };

  // Pass 1: steps 1+2.
  std::vector<std::vector<StripedRun<R>>> part1(static_cast<usize>(c));
  for (u64 i = 0; i < c; ++i) {
    input.read_blocks(i * r / rpb, r / rpb, col.data());
    sort_col(col.span());
    // Decimate stride-c: part t = sorted positions congruent t (mod c).
    for (u64 t = 0; t < c; ++t) {
      R* dst = gather.data() + t * p;
      for (u64 j = 0; j < p; ++j) dst[j] = col[j * c + t];
    }
    auto& parts = part1[static_cast<usize>(i)];
    std::vector<WriteReq> reqs;
    for (u64 t = 0; t < c; ++t) {
      parts.emplace_back(ctx, part_start(i, t));
    }
    for (u64 b = 0; b < p / rpb; ++b) {
      for (u64 t = 0; t < c; ++t) {
        reqs.push_back(parts[static_cast<usize>(t)].stage_append_block(
            gather.data() + t * p + b * rpb));
      }
    }
    ctx.io().write(reqs);
    for (auto& part : parts) part.finish();
  }

  // Pass 2: steps 3+4. Transposed column i' = concat over q of part
  // d(q, i') = (i' - q*r) mod c of pass-1 column q.
  std::vector<std::vector<StripedRun<R>>> part2(static_cast<usize>(c));
  for (u64 i2 = 0; i2 < c; ++i2) {
    {
      std::vector<ReadReq> reqs;
      for (u64 q = 0; q < c; ++q) {
        const u64 qr = (q * r) % c;
        const u64 d = (i2 + c - qr) % c;
        const auto& part = part1[static_cast<usize>(q)][static_cast<usize>(d)];
        for (u64 b = 0; b < p / rpb; ++b) {
          reqs.push_back(part.read_req(b, col.data() + q * p + b * rpb));
        }
      }
      ctx.io().read(reqs);
    }
    sort_col(col.span());
    // Write as c contiguous segments (untranspose read pattern).
    auto& segs = part2[static_cast<usize>(i2)];
    std::vector<WriteReq> reqs;
    for (u64 t = 0; t < c; ++t) {
      segs.emplace_back(ctx, part_start(i2, t));
    }
    for (u64 b = 0; b < p / rpb; ++b) {
      for (u64 t = 0; t < c; ++t) {
        reqs.push_back(segs[static_cast<usize>(t)].stage_append_block(
            col.data() + t * p + b * rpb));
      }
    }
    ctx.io().write(reqs);
    for (auto& seg : segs) seg.finish();
  }

  // Pass 3: steps 5-8. Final column i = segment i of every pass-2 column
  // (interleave order irrelevant: the column is sorted next); then the
  // shift/sort/unshift as disjoint r-windows offset r/2.
  SortResult<R> result;
  result.output = StripedRun<R>(ctx, 0);
  TrackedBuffer<R> window(ctx.budget(), static_cast<usize>(r));  // H ∪ lower
  u64 held = 0;  // records carried in window[0..held)
  for (u64 i = 0; i < c; ++i) {
    {
      std::vector<ReadReq> reqs;
      for (u64 y = 0; y < c; ++y) {
        const auto& seg = part2[static_cast<usize>(y)][static_cast<usize>(i)];
        for (u64 b = 0; b < p / rpb; ++b) {
          reqs.push_back(seg.read_req(b, gather.data() + y * p + b * rpb));
        }
      }
      ctx.io().read(reqs);
    }
    sort_col(gather.span());  // step 5 for this column
    if (i == 0) {
      // W'_0: the first half-window is already final.
      result.output.append(std::span<const R>(gather.data(), r / 2));
    } else {
      // Window = held upper half + this column's lower half.
      std::copy(gather.data(), gather.data() + r / 2, window.data() + held);
      sort_col(std::span<R>(window.data(), static_cast<usize>(held + r / 2)));
      result.output.append(
          std::span<const R>(window.data(), static_cast<usize>(held + r / 2)));
    }
    std::copy(gather.data() + r / 2, gather.data() + r, window.data());
    held = r - r / 2;
  }
  result.output.append(std::span<const R>(window.data(), held));
  result.output.finish();
  PDM_ASSERT(result.output.size() == n, "columnsort record count mismatch");

  result.report = rb.finish();
  return result;
}

}  // namespace pdm
