// In-memory stable counting partition by a digit: the CPU kernel inside
// IntegerSort's distribution phase (§7), and the distribution by the top
// varying digit in internal_sort_budgeted's radix path with scratch.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "util/common.h"
#include "util/cpu_pool.h"
#include "util/trace.h"

namespace pdm {

/// Stable counting partition by an arbitrary digit function, parallel when
/// the pool budget allows. Fills `counts` (size num_buckets) with the
/// bucket histogram and groups `recs` into `out` bucket-by-bucket,
/// preserving input order within each bucket.
///
/// Determinism: the serial path is the classic count / prefix / cursor
/// scatter. The parallel path splits the input into a chunk count derived
/// from n ONLY, takes per-chunk histograms, and gives chunk c a
/// precomputed slice [bounds[b] + sum_{c'<c} hist[c'][b], ...) of every
/// bucket b — so record placement is a pure function of the input,
/// byte-identical to the serial cursor scatter at any budget >= 2.
template <class R, class DigitFn>
void partition_stable(std::span<const R> recs, std::span<R> out,
                      usize num_buckets, DigitFn&& digit_fn, CpuPool& pool,
                      std::span<u64> counts) {
  const usize n = recs.size();
  std::fill(counts.begin(), counts.end(), u64{0});
  constexpr usize kParallelThreshold = 1u << 14;
  if (pool.budget() < 2 || n < kParallelThreshold) {
    // Legacy serial kernel: count, exclusive prefix, cursor scatter.
    for (const auto& r : recs) ++counts[digit_fn(r)];
    std::vector<u64> cursor(num_buckets);
    u64 acc = 0;
    for (usize b = 0; b < num_buckets; ++b) {
      cursor[b] = acc;
      acc += counts[b];
    }
    for (const auto& r : recs) out[cursor[digit_fn(r)]++] = r;
    return;
  }
  PDM_TRACE_SPAN_ARG("kernel", "partition_parallel", "records", n);
  const usize chunks = std::clamp<usize>(n >> 14, usize{2}, usize{16});
  auto chunk_lo = [&](usize c) { return n * c / chunks; };
  // Per-chunk digit histograms, then turned in place into per-(chunk,
  // bucket) scatter cursors. Each chunk loop keeps its bound and a copy of
  // the digit function in locals: a store through `h` or `out` may alias
  // what the lambdas capture by reference, so the compiler would otherwise
  // redo the division and reload the digit's constants for every record.
  std::vector<u64> hist(chunks * num_buckets, 0);
  pool.run_chunks(chunks, [&](usize c) {
    u64* h = hist.data() + c * num_buckets;
    const auto digit = digit_fn;
    const usize hi = chunk_lo(c + 1);
    for (usize i = chunk_lo(c); i < hi; ++i) ++h[digit(recs[i])];
  });
  u64 acc = 0;
  for (usize b = 0; b < num_buckets; ++b) {
    u64 total = 0;
    for (usize c = 0; c < chunks; ++c) {
      u64& h = hist[c * num_buckets + b];
      const u64 cnt = h;
      h = acc + total;  // chunk c's first slot in bucket b
      total += cnt;
    }
    counts[b] = total;
    acc += total;
  }
  pool.run_chunks(chunks, [&](usize c) {
    u64* cursor = hist.data() + c * num_buckets;
    const auto digit = digit_fn;
    const usize hi = chunk_lo(c + 1);
    for (usize i = chunk_lo(c); i < hi; ++i) {
      out[cursor[digit(recs[i])]++] = recs[i];
    }
  });
}

}  // namespace pdm
