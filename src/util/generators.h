// Workload generators for tests, examples and benches.
//
// The paper's probability space is "random permutations of N keys"; the
// uniform generators below sample that space. The skewed and structured
// generators exercise correctness on non-random inputs (where only the
// deterministic algorithms give guarantees) and the adversarial generators
// deliberately construct inputs that defeat the expected-pass algorithms'
// displacement bound, forcing the documented fallback path.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "pdm/block.h"
#include "pdm/record.h"
#include "util/common.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace pdm {

/// A sortable record with a payload, for tests/examples that need to verify
/// that payloads travel with their keys.
struct KV64 {
  u64 key;
  u64 value;

  friend bool operator==(const KV64&, const KV64&) = default;
  friend auto operator<=>(const KV64& a, const KV64& b) {
    return a.key <=> b.key;
  }
};
static_assert(sizeof(KV64) == 16);

template <>
struct KeyTraits<KV64> {
  static constexpr u64 key(const KV64& r) noexcept { return r.key; }
};

enum class Dist {
  kUniform,       // i.i.d. uniform u64 keys
  kPermutation,   // random permutation of 0..n-1 (the paper's input model)
  kSorted,        // already sorted
  kReverse,       // reverse sorted
  kFewDistinct,   // keys drawn from a tiny alphabet
  kZipf,          // zipf(1.0)-skewed keys
  kAllEqual,      // one key value
  kNearlySorted,  // sorted with a few random swaps
  kNearSortedDisplaced,  // sorted, shuffled within windows of n/32 (bounded
                         // displacement: replacement selection -> 1 run
                         // whenever the window is at most M/2)
  kClustered,     // 16 ascending key bands, random values within each band
};

inline const char* dist_name(Dist d) {
  switch (d) {
    case Dist::kUniform: return "uniform";
    case Dist::kPermutation: return "permutation";
    case Dist::kSorted: return "sorted";
    case Dist::kReverse: return "reverse";
    case Dist::kFewDistinct: return "few-distinct";
    case Dist::kZipf: return "zipf";
    case Dist::kAllEqual: return "all-equal";
    case Dist::kNearlySorted: return "nearly-sorted";
    case Dist::kNearSortedDisplaced: return "near-sorted-displaced";
    case Dist::kClustered: return "clustered";
  }
  return "?";
}

/// Generates n u64 keys from the given distribution.
inline std::vector<u64> make_keys(usize n, Dist d, Rng& rng) {
  std::vector<u64> v(n);
  switch (d) {
    case Dist::kUniform:
      for (auto& x : v) x = rng.next();
      break;
    case Dist::kPermutation:
      std::iota(v.begin(), v.end(), u64{0});
      shuffle(v, rng);
      break;
    case Dist::kSorted:
      std::iota(v.begin(), v.end(), u64{0});
      break;
    case Dist::kReverse:
      for (usize i = 0; i < n; ++i) v[i] = static_cast<u64>(n - i);
      break;
    case Dist::kFewDistinct:
      for (auto& x : v) x = rng.below(7) * 1000003ULL;
      break;
    case Dist::kZipf: {
      // Approximate zipf(1.0) over 1..n via inverse-power transform.
      for (auto& x : v) {
        double u = rng.uniform01();
        double rank = std::exp(u * std::log(static_cast<double>(n) + 1.0));
        x = static_cast<u64>(rank);
      }
      break;
    }
    case Dist::kAllEqual:
      std::fill(v.begin(), v.end(), u64{42});
      break;
    case Dist::kNearlySorted: {
      std::iota(v.begin(), v.end(), u64{0});
      const usize swaps = std::max<usize>(1, n / 64);
      for (usize i = 0; i < swaps; ++i) {
        usize a = static_cast<usize>(rng.below(n));
        usize b = static_cast<usize>(rng.below(n));
        std::swap(v[a], v[b]);
      }
      break;
    }
    case Dist::kNearSortedDisplaced: {
      // k-displaced permutation: sorted order shuffled within disjoint
      // windows of k = n/32, so no key sits more than k positions from
      // its sorted slot. Unlike kNearlySorted's sparse global swaps, the
      // disorder here is dense but *bounded* — exactly the structure a
      // replacement-selection heap of M >= 2k absorbs into a single run.
      std::iota(v.begin(), v.end(), u64{0});
      const usize k = std::max<usize>(2, n / 32);
      for (usize w = 0; w < n; w += k) {
        const usize hi = std::min(n, w + k);
        for (usize i = hi - 1; i > w; --i) {  // Fisher-Yates on [w, hi)
          const usize j = w + static_cast<usize>(rng.below(i - w + 1));
          std::swap(v[i], v[j]);
        }
      }
      break;
    }
    case Dist::kClustered: {
      // 16 coarse key bands in ascending order, values uniform within
      // each band: globally ordered structure with local randomness
      // (time-partitioned log ingest). Not a permutation — duplicates
      // can occur within a band.
      const usize clusters = 16;
      const usize per = std::max<usize>(1, ceil_div(n, clusters));
      for (usize i = 0; i < n; ++i) {
        const u64 c = i / per;
        v[i] = (c << 40) | rng.below(u64{1} << 30);
      }
      break;
    }
  }
  return v;
}

/// Generates n KV64 records; the value field encodes the original index so
/// tests can verify payload integrity and stability-agnostic permutation.
inline std::vector<KV64> make_kv(usize n, Dist d, Rng& rng) {
  auto keys = make_keys(n, d, rng);
  std::vector<KV64> v(n);
  for (usize i = 0; i < n; ++i) v[i] = KV64{keys[i], static_cast<u64>(i)};
  return v;
}

/// Integer keys uniform in [0, range) — the §7 IntegerSort input model.
inline std::vector<u64> make_int_keys(usize n, u64 range, Rng& rng) {
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.below(range);
  return v;
}

/// Integer keys with zipf-like skew over [0, range) — stress-tests the
/// bucket-occupancy analysis of Theorem 7.1.
inline std::vector<u64> make_skewed_int_keys(usize n, u64 range, Rng& rng) {
  std::vector<u64> v(n);
  for (auto& x : v) {
    double u = rng.uniform01();
    double r = std::exp(u * std::log(static_cast<double>(range)));
    x = std::min<u64>(range - 1, static_cast<u64>(r) - 1);
  }
  return v;
}

/// Adversarial input for the expected-pass algorithms: a rotation by `shift`
/// of the sorted order. Every key's displacement after run formation +
/// shuffle exceeds any chunk bound when shift is large, so the on-line
/// check must fire and the fallback path must run.
inline std::vector<u64> make_rotated(usize n, usize shift) {
  std::vector<u64> v(n);
  for (usize i = 0; i < n; ++i) v[i] = static_cast<u64>((i + shift) % n);
  return v;
}

/// All zeros except a block of ones at the front: maximal displacement 0-1
/// pattern (useful for cleanup failure-detection tests).
inline std::vector<u64> make_ones_block_first(usize n, usize ones) {
  std::vector<u64> v(n, 0);
  for (usize i = 0; i < std::min(n, ones); ++i) v[i] = 1;
  return v;
}

/// Merge adversary: input whose sorted runs force a k-way merge to
/// consume blocks in "waves" that all live on the same disk, defeating
/// forecasting prefetch at ANY lookahead depth.
///
/// Layout assumption: run i starts on disk spread_start_disk(i, num_runs,
/// D) and its block b sits on disk (start_i + b) mod D — the layout
/// form_sorted_runs gives the runs of one call. Construction: run r first
/// consumes a prologue of (D - start_r) mod D blocks of globally-tiny
/// keys, aligning every run's next block on disk 0; thereafter keys
/// interleave round-robin by wave, so in wave k all runs need their block
/// on disk k mod D simultaneously — a 1-block-per-op schedule no prefetch
/// policy can avoid. Oblivious algorithms are unaffected by construction.
inline std::vector<u64> make_merge_adversary(u64 num_runs, u64 run_len,
                                             usize records_per_block,
                                             u32 num_disks) {
  const u64 rpb = records_per_block;
  PDM_CHECK(run_len % rpb == 0, "run_len must be block aligned");
  const u64 blocks_per_run = run_len / rpb;
  std::vector<u64> v;
  v.reserve(static_cast<usize>(num_runs * run_len));
  const u64 main_offset = num_runs * num_disks * rpb * 2;
  for (u64 r = 0; r < num_runs; ++r) {
    const u32 start = spread_start_disk(r, num_runs, num_disks);
    const u64 prologue = (num_disks - start) % num_disks;
    for (u64 b = 0; b < blocks_per_run; ++b) {
      for (u64 t = 0; t < rpb; ++t) {
        if (b < prologue) {
          v.push_back((r * num_disks + b) * rpb + t);  // tiny, per-run
        } else {
          const u64 wave = b - prologue;
          v.push_back(main_offset + (wave * num_runs + r) * rpb + t);
        }
      }
    }
  }
  return v;
}

}  // namespace pdm
