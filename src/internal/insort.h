// In-memory sorting kernel.
//
// The PDM model charges nothing for local computation, but once a sorter
// takes its few passes the wall clock is mostly this kernel.
// internal_sort_budgeted has three paths, all on the context's kernel
// budget (the thread count is the context's, never a sorter option):
//  - radix with scratch: records whose key is an integer or a
//    padding-free KeyPair of integers, under std::less, with scratch for
//    all n records. An LSD radix sort over the key bits that vary, one
//    partition_stable call per digit, ping-ponging between the data and
//    the scratch.
//  - radix in place: the same records without that scratch, as every
//    budget-1 sorter calls it. An MSD (American flag) radix sort over the
//    same bits, one byte per level, that swaps records into their
//    buckets and recurses into each; serial, and it allocates nothing
//    that grows with n.
//  - comparison: everything else. std::sort for small inputs or a serial
//    budget, and a chunked parallel mergesort through the scratch when
//    the budget allows it.
// merge_budgeted merges two sorted spans, split by merge path so the
// pieces run in parallel; the streamed cleanup uses it to merge each new
// chunk with the sorted records it kept.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "internal/radix_partition.h"
#include "pdm/pdm_context.h"
#include "pdm/record.h"
#include "util/common.h"
#include "util/cpu_pool.h"
#include "util/trace.h"

namespace pdm {

namespace detail {

/// Keys whose built-in KeyTraits projection is injective and keeps
/// std::less's order, stored without padding bytes: two records with
/// equal keys are equal bytes.
template <class R>
inline constexpr bool kRadixKey =
    std::integral<R> && sizeof(R) <= sizeof(u64);

template <class A, class B>
inline constexpr bool kRadixKey<KeyPair<A, B>> =
    kRadixKey<A> && kRadixKey<B> && sizeof(KeyPair<A, B>) <= sizeof(u64) &&
    std::has_unique_object_representations_v<KeyPair<A, B>>;

/// The record_key bits that differ between two records of `data`: one
/// pass takes the keys' OR and AND, and their XOR is returned. Zero when
/// every key is equal.
template <class R>
u64 varying_key_bits(std::span<const R> data, CpuPool& pool) {
  const usize n = data.size();
  const usize chunks = std::clamp<usize>(n >> 14, usize{1}, usize{16});
  std::vector<u64> ors(chunks, 0);
  std::vector<u64> ands(chunks, ~u64{0});
  pool.run_chunks(chunks, [&](usize c) {
    u64 o = 0;
    u64 a = ~u64{0};
    for (usize i = n * c / chunks; i < n * (c + 1) / chunks; ++i) {
      const u64 k = record_key(data[i]);
      o |= k;
      a &= k;
    }
    ors[c] = o;
    ands[c] = a;
  });
  u64 any = 0;
  u64 all = ~u64{0};
  for (usize c = 0; c < chunks; ++c) {
    any |= ors[c];
    all &= ands[c];
  }
  return any ^ all;
}

/// LSD radix sort of `data` by record_key through `scratch` (at least
/// data.size() records). Only the bits where the keys differ are sorted
/// (varying_key_bits), in digits of at most 11 bits, and bits that never
/// vary between two digits are skipped.
template <class R>
void radix_sort_keys(std::span<R> data, std::span<R> scratch, CpuPool& pool) {
  constexpr u32 kMaxDigitBits = 11;
  const usize n = data.size();
  PDM_TRACE_SPAN_ARG("kernel", "insort_radix", "records", n);
  const usize chunks = std::clamp<usize>(n >> 14, usize{1}, usize{16});
  const u64 varying = varying_key_bits(std::span<const R>(data), pool);
  if (varying == 0) return;  // one key: the records are equal bytes

  const u32 lo = static_cast<u32>(std::countr_zero(varying));
  const u32 hi = 64 - static_cast<u32>(std::countl_zero(varying));
  const u32 digits = (hi - lo + kMaxDigitBits - 1) / kMaxDigitBits;
  const u32 bits = (hi - lo + digits - 1) / digits;
  const u64 mask = (u64{1} << bits) - 1;
  std::vector<u64> counts(usize{1} << bits);
  std::span<R> src = data;
  std::span<R> dst = scratch.first(n);
  u32 shift = lo;
  while (true) {
    partition_stable(
        std::span<const R>(src), dst, counts.size(),
        [shift, mask](const R& r) {
          return static_cast<usize>((record_key(r) >> shift) & mask);
        },
        pool, std::span<u64>(counts));
    std::swap(src, dst);
    shift += bits;
    if (shift >= hi) break;
    shift += static_cast<u32>(std::countr_zero(varying >> shift));
  }
  if (src.data() != data.data()) {
    pool.parallel_ranges(0, n, chunks, [&](usize b, usize e) {
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(b),
                src.begin() + static_cast<std::ptrdiff_t>(e),
                data.begin() + static_cast<std::ptrdiff_t>(b));
    });
  }
}

/// Insertion sort of first[0, n) by record_key.
template <class R>
void insertion_sort_by_key(R* first, usize n) {
  for (usize i = 1; i < n; ++i) {
    const R r = first[i];
    const u64 k = record_key(r);
    usize j = i;
    for (; j > 0 && k < record_key(first[j - 1]); --j) first[j] = first[j - 1];
    first[j] = r;
  }
}

/// In-place MSD radix sort of first[0, n) over the key bits in `bits`;
/// the keys agree on every higher varying bit. The digit is the top 8 of
/// those bits (fewer at the lowest one). One pass counts each bucket,
/// then sweeps swap every record that sits outside its bucket to that
/// bucket's next free slot until each bucket's free slots are used up:
/// each swap places one record for good. Each bucket then recurses on the
/// bits below the digit; at most 64 records take insertion sort instead.
/// The two cursor arrays live on the stack, so a sort of 64-bit keys
/// holds at most 8 levels of 4 KiB.
template <class R>
void radix_sort_in_place_below(R* first, usize n, u64 bits) {
  constexpr u32 kDigitBits = 8;
  constexpr usize kSmallBucket = 64;
  if (n <= kSmallBucket) {
    insertion_sort_by_key(first, n);
    return;
  }
  if (bits == 0) return;  // equal keys: equal bytes
  const u32 hi = 64 - static_cast<u32>(std::countl_zero(bits));
  const u32 lo = std::max(hi > kDigitBits ? hi - kDigitBits : 0,
                          static_cast<u32>(std::countr_zero(bits)));
  const u64 rest = bits & ((u64{1} << lo) - 1);
  const usize buckets = usize{1} << (hi - lo);
  const u64 mask = buckets - 1;
  auto digit = [lo, mask](const R& r) {
    return static_cast<usize>((record_key(r) >> lo) & mask);
  };
  // next[b] is bucket b's first free slot, end[b] one past its last.
  usize next[usize{1} << kDigitBits];
  usize end[usize{1} << kDigitBits];
  std::fill(end, end + buckets, usize{0});
  for (usize i = 0; i < n; ++i) ++end[digit(first[i])];
  if (end[digit(first[0])] == n) {  // one bucket: on to the next digit
    radix_sort_in_place_below(first, n, rest);
    return;
  }
  usize sum = 0;
  for (usize b = 0; b < buckets; ++b) {
    next[b] = sum;
    sum += end[b];
    end[b] = sum;
  }
  bool unplaced = true;
  while (unplaced) {
    unplaced = false;
    for (usize b = 0; b < buckets; ++b) {
      for (usize i = next[b]; i < end[b]; ++i) {
        std::swap(first[i], first[next[digit(first[i])]++]);
      }
      unplaced |= next[b] < end[b];
    }
  }
  usize start = 0;
  for (usize b = 0; b < buckets; ++b) {
    if (end[b] - start > 1) {
      radix_sort_in_place_below(first + start, end[b] - start, rest);
    }
    start = end[b];
  }
}

/// In-place MSD radix sort of `data` by record_key, for callers without
/// scratch. Serial; the one pool region is varying_key_bits's pass.
template <class R>
void radix_sort_in_place(std::span<R> data, CpuPool& pool) {
  PDM_TRACE_SPAN_ARG("kernel", "insort_radix_in_place", "records",
                     data.size());
  radix_sort_in_place_below(
      data.data(), data.size(),
      varying_key_bits(std::span<const R>(data), pool));
}

}  // namespace detail

/// True when internal_sort_budgeted may sort R under Cmp by radix. Any
/// correct sort of such records returns std::sort's exact bytes, so the
/// choice of path never shows in the output.
template <class R, class Cmp>
inline constexpr bool kRadixSortable =
    (std::is_same_v<Cmp, std::less<R>> || std::is_same_v<Cmp, std::less<>>) &&
    detail::kRadixKey<R>;

/// Inputs below this size take std::sort even when kRadixSortable holds:
/// there the per-digit bucket arrays cost more than the comparisons.
inline constexpr usize kRadixMinRecords = usize{1} << 9;

/// Sorts `data` on the in-core kernel budget (PdmContext::cpu_pool()).
///
/// Radix paths: when kRadixSortable<R, Cmp> holds and n >=
/// kRadixMinRecords, sorts by radix at any budget. With
/// `scratch.size() >= n` that is the LSD sort (detail::radix_sort_keys);
/// partition_stable takes its chunk count from n only and returns the
/// same bytes at every budget. With less scratch it is the serial
/// in-place MSD sort (detail::radix_sort_in_place). Equal keys are equal
/// bytes, so both return std::sort's output exactly.
///
/// Comparison path: at budget >= 2 with `scratch.size() >= n`, sorts
/// chunks in parallel and merges them pairwise through the scratch. The
/// chunk tree is a function of n ONLY — never of the budget — so every
/// budget >= 2 sorts the same chunks and merges the same pairs, producing
/// identical bytes regardless of how many threads pull chunks. Budget < 2
/// (or a small input, or missing scratch) takes plain std::sort, in place.
/// The two agree byte-for-byte whenever elements that compare equal are
/// indistinguishable. Sorters take the scratch from kernel_scratch().
template <class R, class Cmp = std::less<R>>
void internal_sort_budgeted(std::span<R> data, Cmp cmp, CpuPool& pool,
                            std::span<R> scratch) {
  const usize n = data.size();
  if constexpr (kRadixSortable<R, Cmp>) {
    if (n >= kRadixMinRecords) {
      if (scratch.size() >= n) {
        detail::radix_sort_keys(data, scratch, pool);
      } else {
        detail::radix_sort_in_place(data, pool);
      }
      return;
    }
  }
  constexpr usize kParallelThreshold = 1u << 14;
  if (pool.budget() < 2 || scratch.size() < n || n < kParallelThreshold) {
    std::sort(data.begin(), data.end(), cmp);
    return;
  }
  PDM_TRACE_SPAN_ARG("kernel", "insort_parallel", "records", n);
  // ~8K records per chunk, capped: enough slack that 4 threads stay busy
  // without making the merge tree deep.
  const usize chunks = std::clamp<usize>(n >> 13, usize{2}, usize{16});
  std::vector<usize> bounds(chunks + 1);
  for (usize c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;

  pool.run_chunks(chunks, [&](usize c) {
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(bounds[c]),
              data.begin() + static_cast<std::ptrdiff_t>(bounds[c + 1]), cmp);
  });

  // Pairwise merge rounds, ping-ponging between data and scratch. An odd
  // tail segment merges against an empty range (b == c), i.e. a copy, so
  // every round moves all n records into dst.
  R* src = data.data();
  R* dst = scratch.data();
  while (bounds.size() > 2) {
    const usize last = bounds.size() - 1;
    const usize pairs = last / 2 + last % 2;
    pool.run_chunks(pairs, [&](usize p) {
      const usize a = bounds[2 * p];
      const usize b = bounds[std::min(last, 2 * p + 1)];
      const usize c = bounds[std::min(last, 2 * p + 2)];
      std::merge(src + a, src + b, src + b, src + c, dst + a, cmp);
    });
    std::vector<usize> next_bounds;
    next_bounds.push_back(0);
    for (usize p = 0; p < pairs; ++p) {
      next_bounds.push_back(bounds[std::min(last, 2 * p + 2)]);
    }
    bounds = std::move(next_bounds);
    std::swap(src, dst);
  }
  if (src != data.data()) {
    std::copy(src, src + n, data.data());
  }
}

/// Merges sorted `a` and `b` into `out` (exactly a.size() + b.size()
/// records) on the kernel budget, with std::merge's result: among equal
/// records, a's come first. The output splits into pieces whose count
/// depends on the sizes only; piece p's first record sits at diagonal d,
/// and a binary search along d (the merge path) finds how many of the
/// first d outputs come from a. Each piece is then one std::merge of the
/// input slices that fill it, so every budget returns the same bytes.
template <class R, class Cmp = std::less<R>>
void merge_budgeted(std::span<const R> a, std::span<const R> b,
                    std::span<R> out, Cmp cmp, CpuPool& pool) {
  const usize n = a.size() + b.size();
  PDM_CHECK(out.size() == n, "merge output must hold both inputs");
  // Records of a among the first d outputs: a[i] comes before b[d-1-i]
  // unless b[d-1-i] < a[i], and that test flips once along the diagonal.
  auto a_taken = [&](usize d) {
    usize lo = d > b.size() ? d - b.size() : 0;
    usize hi = std::min(d, a.size());
    while (lo < hi) {
      const usize mid = lo + (hi - lo) / 2;
      if (cmp(b[d - 1 - mid], a[mid])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  const usize pieces = std::clamp<usize>(n >> 14, usize{1}, usize{16});
  pool.run_chunks(pieces, [&](usize p) {
    const usize d0 = n * p / pieces;
    const usize d1 = n * (p + 1) / pieces;
    const usize i0 = a_taken(d0);
    const usize i1 = a_taken(d1);
    std::merge(a.begin() + static_cast<std::ptrdiff_t>(i0),
               a.begin() + static_cast<std::ptrdiff_t>(i1),
               b.begin() + static_cast<std::ptrdiff_t>(d0 - i0),
               b.begin() + static_cast<std::ptrdiff_t>(d1 - i1),
               out.begin() + static_cast<std::ptrdiff_t>(d0), cmp);
  });
}

/// Scratch for internal_sort_budgeted over up to `n` records, charged to
/// the context's memory budget only when its kernel budget is >= 2. At
/// budget 1 it is empty, so a serial sort's footprint carries no extra:
/// radix keys then take the in-place radix path, other records std::sort.
template <class R>
TrackedBuffer<R> kernel_scratch(PdmContext& ctx, usize n) {
  if (ctx.cpu_budget() < 2) return {};
  return TrackedBuffer<R>(ctx.budget(), n);
}

/// Convenience: returns true iff the span is sorted under cmp.
template <class R, class Cmp = std::less<R>>
bool is_sorted_span(std::span<const R> data, Cmp cmp = {}) {
  return std::is_sorted(data.begin(), data.end(), cmp);
}

}  // namespace pdm
