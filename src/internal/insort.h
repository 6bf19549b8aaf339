// In-memory sorting kernel.
//
// The PDM model charges nothing for local computation, but once a sorter
// takes its few passes the wall clock is mostly this kernel.
// internal_sort_budgeted has three paths, all on the context's kernel
// budget (the thread count is the context's, never a sorter option):
//  - radix with scratch: records whose key is an integer or a
//    padding-free KeyPair of integers, under std::less, with scratch for
//    all n records. Over the key bits that vary, one partition_stable
//    call distributes the records into the scratch by the top digit, and
//    one region sorts every bucket back into the data while it stays in
//    cache, by a bucket-local LSD radix sort (radix_sort_bucket).
//  - radix in place: the same records without that scratch, as every
//    budget-1 sorter calls it. An MSD (American flag) radix sort over the
//    same bits, at most one byte per level, that swaps records into their
//    buckets and recurses into each; small buckets with at most two bytes
//    of key left end in the same bucket-local LSD sort through a buffer
//    of constant size. Serial, and it allocates nothing that grows with
//    n.
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
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
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

/// A bucket of radix_sort_keys's top digit with more records than this
/// would not stay in cache: it is distributed again instead.
inline constexpr usize kRadixBigBucket = usize{1} << 14;
/// The in-place path finishes a bucket of at most this many records whose
/// remaining key bits span at most two bytes by radix_sort_bucket through
/// a buffer of this size.
inline constexpr usize kRadixLocalRecords = 4096;

/// LSD radix sort of n records by the key bits in `bits` (the keys agree
/// on every other bit) for a bucket that stays in cache. The records sit
/// in `other` when `in_other` holds, else in `data`; they end sorted in
/// `data`, and `other` (n records) is the second buffer. Digits are at
/// most 8 bits wide. One pass takes every digit's histogram and drops the
/// digits on which all n records agree; the rest alternate between the
/// two buffers, after one copy when their count would leave the records
/// in `other`. At most 32 records take insertion sort. Callers pass
/// buckets of at most kRadixBigBucket records, so 32-bit counts hold them.
template <class R>
void radix_sort_bucket(R* data, R* other, usize n, u64 bits, bool in_other) {
  constexpr u32 kDigitBits = 8;
  constexpr u32 kMaxDigits = 64 / kDigitBits;
  constexpr usize kInsertionRecords = 32;
  R* src = in_other ? other : data;
  R* dst = in_other ? data : other;
  if (n <= kInsertionRecords || bits == 0) {
    if (in_other) std::copy(src, src + n, data);
    if (bits != 0) insertion_sort_by_key(data, n);
    return;
  }
  const u32 lo = static_cast<u32>(std::countr_zero(bits));
  const u32 hi = 64 - static_cast<u32>(std::countl_zero(bits));
  const u32 digits = (hi - lo + kDigitBits - 1) / kDigitBits;
  const u32 width = (hi - lo + digits - 1) / digits;
  const u64 mask = (u64{1} << width) - 1;
  // Digits start at the lowest bit; bits that never vary between two
  // digits are skipped.
  u32 shift[kMaxDigits] = {};
  u32 count = 0;
  for (u32 s = lo;; s += static_cast<u32>(std::countr_zero(bits >> s))) {
    shift[count++] = s;
    s += width;
    if (s >= hi) break;
  }
  u32 hist[kMaxDigits][usize{1} << kDigitBits];
  for (u32 d = 0; d < count; ++d) std::fill_n(hist[d], mask + 1, u32{0});
  for (usize i = 0; i < n; ++i) {
    const u64 k = record_key(src[i]);
    for (u32 d = 0; d < count; ++d) ++hist[d][(k >> shift[d]) & mask];
  }
  u32 kept[kMaxDigits] = {};
  u32 sorts = 0;
  const u64 k0 = record_key(src[0]);
  for (u32 d = 0; d < count; ++d) {
    if (hist[d][(k0 >> shift[d]) & mask] != n) kept[sorts++] = d;
  }
  if ((src == data) == (sorts % 2 == 1)) {
    std::copy(src, src + n, dst);
    std::swap(src, dst);
  }
  for (u32 j = 0; j < sorts; ++j) {
    const u32 d = kept[j];
    const u32 s = shift[d];
    u32* next = hist[d];
    u32 sum = 0;
    for (u64 b = 0; b <= mask; ++b) sum += std::exchange(next[b], sum);
    for (usize i = 0; i < n; ++i) {
      dst[next[(record_key(src[i]) >> s) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
}

/// Radix sort of n records by record_key; internal_sort_budgeted passes
/// its scratch as `other`. The records sit in `other` when `in_other`
/// holds, else in `data`; they end sorted in `data`, and `other` (n
/// records) is the second buffer. The top digit is the top t bits of
/// those where the keys differ (varying_key_bits), t <= 11 chosen from n
/// so that buckets average about 2^9 records. One partition_stable call
/// moves the records into the other buffer by that digit; one region then
/// sorts each bucket back by radix_sort_bucket, threads taking groups of
/// consecutive buckets. A bucket of more than kRadixBigBucket records
/// (skewed keys) is left out of that region and sorted afterwards by this
/// function on its own slices, which finds its own varying bits and
/// distributes it in parallel again.
template <class R>
void radix_sort_keys(R* data, R* other, usize n, bool in_other,
                     CpuPool& pool) {
  constexpr u32 kTopDigitBits = 11;
  constexpr u32 kBucketLog = 9;
  PDM_TRACE_SPAN_ARG("kernel", "insort_radix", "records", n);
  R* src = in_other ? other : data;
  R* dst = in_other ? data : other;
  const u64 varying = varying_key_bits(std::span<const R>(src, n), pool);
  if (varying == 0) {  // one key: any order is sorted
    if (in_other) {
      pool.parallel_ranges(0, n, std::clamp<usize>(n >> 14, 1, 16),
                           [&](usize b, usize e) {
                             std::copy(src + b, src + e, data + b);
                           });
    }
    return;
  }
  const u32 hi = 64 - static_cast<u32>(std::countl_zero(varying));
  const u32 span = hi - static_cast<u32>(std::countr_zero(varying));
  const u32 log_n = static_cast<u32>(std::bit_width(n)) - 1;
  const u32 t = std::min(
      {kTopDigitBits, span, std::max(log_n, kBucketLog + 1) - kBucketLog});
  const u32 shift = hi - t;
  const u64 mask = (u64{1} << t) - 1;
  const u64 rest = varying & ((u64{1} << shift) - 1);
  const usize buckets = usize{1} << t;
  // bounds[b] is bucket b's first record, bounds[buckets] == n.
  std::vector<u64> bounds(buckets + 1);
  partition_stable(
      std::span<const R>(src, n), std::span<R>(dst, n), buckets,
      [shift, mask](const R& r) {
        return static_cast<usize>((record_key(r) >> shift) & mask);
      },
      pool, std::span<u64>(bounds).first(buckets));
  u64 sum = 0;
  for (u64& b : bounds) sum += std::exchange(b, sum);
  // Group g takes the buckets that start in [n*g/groups, n*(g+1)/groups).
  const usize groups = std::clamp<usize>(n >> 12, 1, 64);
  auto first_bucket = [&](usize g) {
    return static_cast<usize>(
        std::lower_bound(bounds.begin(), bounds.end() - 1, n * g / groups) -
        bounds.begin());
  };
  pool.run_chunks(groups, [&](usize g) {
    const usize last = first_bucket(g + 1);
    for (usize b = first_bucket(g); b < last; ++b) {
      const usize len = bounds[b + 1] - bounds[b];
      if (len <= kRadixBigBucket) {
        radix_sort_bucket(data + bounds[b], other + bounds[b], len, rest,
                          !in_other);
      }
    }
  });
  for (usize b = 0; b < buckets; ++b) {
    const usize len = bounds[b + 1] - bounds[b];
    if (len > kRadixBigBucket) {
      radix_sort_keys(data + bounds[b], other + bounds[b], len, !in_other,
                      pool);
    }
  }
}

/// In-place MSD radix sort of first[0, n) over the key bits in `bits`;
/// the keys agree on every higher varying bit. A bucket of at most
/// kRadixLocalRecords records whose bits span at most two bytes is
/// finished by radix_sort_bucket through `buf`. Otherwise the digit is
/// the top bits of `bits`: 8, or fewer when n is small, and fewer at the
/// lowest bit. One pass counts each bucket, then sweeps swap every record
/// that sits outside its bucket to that bucket's next free slot until each
/// bucket's free slots are used up: each swap places one record for good.
/// Each bucket then recurses on the bits below the digit; at most 64
/// records take insertion sort instead. The two cursor arrays live on the
/// stack, so a sort of 64-bit keys holds at most 8 levels of 4 KiB.
template <class R>
void radix_sort_in_place_below(R* first, usize n, u64 bits, R* buf) {
  constexpr u32 kDigitBits = 8;
  constexpr usize kSmallBucket = 64;
  if (n <= kSmallBucket) {
    insertion_sort_by_key(first, n);
    return;
  }
  if (bits == 0) return;  // equal keys: equal bytes
  const u32 hi = 64 - static_cast<u32>(std::countl_zero(bits));
  const u32 low = static_cast<u32>(std::countr_zero(bits));
  if (n <= kRadixLocalRecords && hi - low <= 2 * kDigitBits) {
    radix_sort_bucket(first, buf, n, bits, false);
    return;
  }
  // Below 2^10 records, 4 to 8 records per bucket.
  const u32 width =
      std::min(kDigitBits, static_cast<u32>(std::bit_width(n)) - 3);
  const u32 lo = std::max(hi > width ? hi - width : 0, low);
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
    radix_sort_in_place_below(first, n, rest, buf);
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
      radix_sort_in_place_below(first + start, end[b] - start, rest, buf);
    }
    start = end[b];
  }
}

/// In-place MSD radix sort of `data` by record_key, for callers without
/// scratch. Serial; the one pool region is varying_key_bits's pass. The
/// buffer for the buckets it finishes by LSD holds at most
/// kRadixLocalRecords records, whatever n is.
template <class R>
void radix_sort_in_place(std::span<R> data, CpuPool& pool) {
  PDM_TRACE_SPAN_ARG("kernel", "insort_radix_in_place", "records",
                     data.size());
  const auto buf = std::make_unique_for_overwrite<R[]>(
      std::min(data.size(), kRadixLocalRecords));
  radix_sort_in_place_below(
      data.data(), data.size(),
      varying_key_bits(std::span<const R>(data), pool), buf.get());
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
/// `scratch.size() >= n` that is one parallel distribution by the top
/// varying digit followed by bucket-local LSD sorts
/// (detail::radix_sort_keys); partition_stable takes its chunk count from
/// n only, and each bucket's sort is serial, so every budget returns the
/// same bytes. With less scratch it is the serial in-place MSD sort
/// (detail::radix_sort_in_place). Equal keys are equal bytes, so both
/// return std::sort's output exactly.
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
        detail::radix_sort_keys(data.data(), scratch.data(), n, false, pool);
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
