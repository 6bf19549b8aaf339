#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "internal/radix_partition.h"
#include "util/generators.h"
#include "util/rng.h"

namespace pdm {
namespace {

// An 8-byte record keyed on one field by a user-written KeyTraits: its
// projection is not injective, so it must stay on the comparison path.
struct FieldKeyed {
  u32 key = 0;
  u32 payload = 0;
};

}  // namespace

template <>
struct KeyTraits<FieldKeyed> {
  static constexpr u64 key(const FieldKeyed& r) noexcept { return r.key; }
};

namespace {

// ---------------------------------------------------------------- insort

class InternalSortDist : public ::testing::TestWithParam<Dist> {};

TEST_P(InternalSortDist, MatchesStdSort) {
  Rng rng(42);
  auto v = make_keys(5000, GetParam(), rng);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  CpuPool serial(1);
  internal_sort_budgeted(std::span<u64>(v), std::less<u64>{}, serial, {});
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(AllDists, InternalSortDist,
                         ::testing::Values(Dist::kUniform, Dist::kPermutation,
                                           Dist::kSorted, Dist::kReverse,
                                           Dist::kFewDistinct, Dist::kZipf,
                                           Dist::kAllEqual,
                                           Dist::kNearlySorted),
                         [](const auto& info) {
                           std::string s = dist_name(info.param);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

TEST(InternalSort, ParallelPathMatchesSerial) {
  CpuPool pool(4);
  Rng rng(7);
  for (usize n : {usize{1} << 15, usize{1} << 17, (usize{1} << 16) + 12345}) {
    auto v = make_keys(n, Dist::kUniform, rng);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    std::vector<u64> scratch(n);
    internal_sort_budgeted(std::span<u64>(v), std::less<u64>{}, pool,
                           std::span<u64>(scratch));
    EXPECT_EQ(v, expect) << "n=" << n;
  }
}

TEST(InternalSort, ParallelWithCustomComparator) {
  CpuPool pool(4);
  Rng rng(9);
  auto v = make_keys(usize{1} << 16, Dist::kUniform, rng);
  auto expect = v;
  std::sort(expect.begin(), expect.end(), std::greater<u64>{});
  std::vector<u64> scratch(v.size());
  internal_sort_budgeted(std::span<u64>(v), std::greater<u64>{}, pool,
                         std::span<u64>(scratch));
  EXPECT_EQ(v, expect);
}

TEST(InternalSort, EmptyAndSingle) {
  CpuPool pool(4);
  std::vector<u64> v;
  internal_sort_budgeted(std::span<u64>(v), std::less<u64>{}, pool, {});
  EXPECT_TRUE(v.empty());
  v = {42};
  internal_sort_budgeted(std::span<u64>(v), std::less<u64>{}, pool, {});
  EXPECT_EQ(v[0], 42u);
}

// ------------------------------------------------------ insort radix path

using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;

constexpr auto kLambdaLess = [](u64 a, u64 b) { return a < b; };
static_assert(kRadixSortable<u64, std::less<u64>>);
static_assert(kRadixSortable<i8, std::less<>>);
static_assert(kRadixSortable<KeyPair<i32, u32>, std::less<KeyPair<i32, u32>>>);
static_assert(!kRadixSortable<KeyPair<u8, u32>, std::less<KeyPair<u8, u32>>>,
              "padding bytes: equal keys need not be equal bytes");
static_assert(!kRadixSortable<KeyPair<u64, u64>, std::less<KeyPair<u64, u64>>>,
              "wider than one u64 key");
static_assert(!kRadixSortable<FieldKeyed, std::less<FieldKeyed>>,
              "a user-written KeyTraits may drop fields");
static_assert(!kRadixSortable<u64, std::greater<u64>>);
static_assert(!kRadixSortable<u64, decltype(kLambdaLess)>);

// Builds a T from the low 8*sizeof(T) bits of x. A KeyPair takes its first
// member from the bits above its second, as its KeyTraits packs them, so
// bit 8*sizeof(T)-1 of x is the top bit of T's key.
template <class T>
struct FromBits {
  static T make(u64 x) { return static_cast<T>(x); }
};

template <class A, class B>
struct FromBits<KeyPair<A, B>> {
  static KeyPair<A, B> make(u64 x) {
    return {FromBits<A>::make(x >> (8 * sizeof(B))), FromBits<B>::make(x)};
  }
};

enum class KeySet {
  kAllEqual,
  kFewDistinct,
  kSorted,
  kReverse,
  kPermutation,
  kUniform,
  kTopBit,  // only the key's top bit varies: bit 63 for u64, the sign of i8
  kOddWidth,  // only bits 3..15 vary (bits 3..7 for 8-bit types)
  kDeep,      // every key byte is 0x00 or 0xff: each radix level splits in 2
  kOutlier,   // keys in the low quarter of the bits, one at the top bit
  kSparseWide,  // 16-bit keys, 1% of them full-width
};

template <class T>
std::vector<T> radix_keys(usize n, KeySet set, Rng& rng) {
  constexpr u32 width = 8 * sizeof(T);
  const u64 few[3] = {rng.next(), rng.next(), rng.next()};
  const u64 fixed = 0x0123456789abcdefULL & ~(u64{1} << (width - 1));
  std::vector<T> v(n);
  for (usize i = 0; i < n; ++i) {
    u64 x = 0;
    switch (set) {
      case KeySet::kAllEqual: x = fixed; break;
      case KeySet::kFewDistinct: x = few[rng.below(3)]; break;
      case KeySet::kPermutation: x = i; break;
      case KeySet::kTopBit: x = fixed | (rng.below(2) << (width - 1)); break;
      case KeySet::kOddWidth: {
        const u64 bits = u64{0x1fff} << 3;
        x = (fixed & ~bits) | (rng.next() & bits);
        break;
      }
      case KeySet::kDeep:
        for (u32 byte = 0; byte < 8; ++byte) {
          x |= rng.below(2) * (u64{0xff} << (8 * byte));
        }
        break;
      case KeySet::kOutlier:
        x = i == n / 2 ? u64{1} << (width - 1)
                       : rng.next() & ((u64{1} << (width / 4)) - 1);
        break;
      case KeySet::kSparseWide:
        x = rng.below(100) == 0 ? rng.next() : rng.next() & 0xffff;
        break;
      default: x = rng.next(); break;
    }
    v[i] = FromBits<T>::make(x);
  }
  if (set == KeySet::kSorted || set == KeySet::kReverse) {
    std::sort(v.begin(), v.end());
  }
  if (set == KeySet::kReverse) std::reverse(v.begin(), v.end());
  if (set == KeySet::kPermutation) shuffle(v, rng);
  return v;
}

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <class T>
class RadixKernel : public ::testing::Test {};

using RadixKeyTypes =
    ::testing::Types<u8, u16, u32, u64, i8, i16, i32, i64, char,
                     KeyPair<i32, u32>, KeyPair<KeyPair<u16, u16>, u32>>;
TYPED_TEST_SUITE(RadixKernel, RadixKeyTypes);

// Above the threshold, every budget with full scratch takes the
// distributing radix path, and budget 1 or 4 with no scratch or scratch one
// record short the in-place radix path. All must return std::sort's bytes.
// kOddWidth's last digit is narrower than a byte; kDeep keeps every bucket
// above the insertion-sort cutoff down to the last byte of the key.
// kOutlier and kSparseWide put more than kRadixBigBucket records into one
// top-digit bucket (32- and 64-bit keys from 2^15 records up, and kOutlier
// at the largest size for every type), which is then distributed again
// from the scratch into the data. The sizes kRadixLocalRecords and one
// more put a permutation's whole input on either side of the in-place
// path's bucket-local finish.
TYPED_TEST(RadixKernel, MatchesStdSortBytes) {
  using T = TypeParam;
  static_assert(kRadixSortable<T, std::less<T>>);
  static_assert((usize{1} << 15) * 99 / 100 > detail::kRadixBigBucket);
  CpuPool pool1(1);
  CpuPool pool2(2);
  CpuPool pool4(4);
  enum class Scratch { kFull, kOneShort, kNone };
  struct Config {
    CpuPool* pool;
    Scratch scratch;
  };
  const Config configs[] = {{&pool1, Scratch::kFull},
                            {&pool2, Scratch::kFull},
                            {&pool4, Scratch::kFull},
                            {&pool4, Scratch::kOneShort},
                            {&pool1, Scratch::kNone},
                            {&pool4, Scratch::kNone}};
  const usize sizes[] = {0,
                         1,
                         kRadixMinRecords - 1,
                         kRadixMinRecords,
                         detail::kRadixLocalRecords,
                         detail::kRadixLocalRecords + 1,
                         (usize{1} << 14) - 1,
                         (usize{1} << 14) + 1,
                         usize{1} << 15,
                         usize{1} << 16,
                         (usize{1} << 17) + 12345};
  Rng rng(11);
  for (KeySet set : {KeySet::kAllEqual, KeySet::kFewDistinct, KeySet::kSorted,
                     KeySet::kReverse, KeySet::kPermutation, KeySet::kUniform,
                     KeySet::kTopBit, KeySet::kOddWidth, KeySet::kDeep,
                     KeySet::kOutlier, KeySet::kSparseWide}) {
    for (usize n : sizes) {
      const auto input = radix_keys<T>(n, set, rng);
      auto expect = input;
      std::sort(expect.begin(), expect.end());
      for (const Config& c : configs) {
        auto got = input;
        usize len = 0;
        if (c.scratch == Scratch::kFull) len = n;
        if (c.scratch == Scratch::kOneShort && n > 0) len = n - 1;
        std::vector<T> scratch(len);
        internal_sort_budgeted(std::span<T>(got), std::less<T>{}, *c.pool,
                               std::span<T>(scratch));
        ASSERT_TRUE(same_bytes(got, expect))
            << "set " << static_cast<int>(set) << " n " << n << " budget "
            << c.pool->budget() << " scratch " << len;
      }
    }
  }
}

// ------------------------------------------------------------ merge path

// Records carry (input, position) in .second and compare on .first only,
// so the output shows which input's record came first among equal keys.
TEST(MergeBudgeted, MatchesStdMergeIncludingTies) {
  using Rec = KeyPair<u64, u64>;
  auto key_less = [](const Rec& x, const Rec& y) { return x.first < y.first; };
  CpuPool pool1(1);
  CpuPool pool2(2);
  CpuPool pool4(4);
  Rng rng(21);
  const std::pair<usize, usize> sizes[] = {
      {0, 0},     {0, 40000}, {40000, 0},     {1, 70000},
      {70000, 1}, {3, 5},     {50000, 30000}, {30001, 50003}};
  for (u64 alphabet : {u64{4}, u64{1} << 40}) {
    for (const auto& [na, nb] : sizes) {
      auto side = [&](usize len, u64 input) {
        std::vector<Rec> v(len);
        for (auto& r : v) r.first = rng.below(alphabet);
        std::sort(v.begin(), v.end());
        for (usize i = 0; i < len; ++i) v[i].second = (input << 32) | i;
        return v;
      };
      const auto a = side(na, 0);
      const auto b = side(nb, 1);
      std::vector<Rec> expect(na + nb);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), expect.begin(),
                 key_less);
      for (CpuPool* pool : {&pool1, &pool2, &pool4}) {
        std::vector<Rec> got(na + nb);
        merge_budgeted(std::span<const Rec>(a), std::span<const Rec>(b),
                       std::span<Rec>(got), key_less, *pool);
        EXPECT_EQ(got, expect) << "alphabet " << alphabet << " sizes " << na
                               << "+" << nb << " budget " << pool->budget();
      }
    }
  }
}

// ------------------------------------------------------------ loser tree

TEST(LoserTree, MergesTwoSources) {
  std::vector<std::vector<u64>> src{{1, 4, 7}, {2, 3, 9}};
  LoserTree<u64> tree(2);
  std::vector<usize> pos(2, 1);
  tree.set_initial(0, src[0][0]);
  tree.set_initial(1, src[1][0]);
  tree.build();
  std::vector<u64> out;
  while (!tree.empty()) {
    const usize s = tree.min_source();
    out.push_back(tree.min_value());
    if (pos[s] < src[s].size()) {
      tree.replace_min(src[s][pos[s]++]);
    } else {
      tree.exhaust_min();
    }
  }
  EXPECT_EQ(out, (std::vector<u64>{1, 2, 3, 4, 7, 9}));
}

class LoserTreeK : public ::testing::TestWithParam<usize> {};

TEST_P(LoserTreeK, MatchesStdMerge) {
  const usize k = GetParam();
  Rng rng(k * 31 + 1);
  std::vector<std::vector<u64>> src(k);
  std::vector<u64> all;
  for (usize i = 0; i < k; ++i) {
    const usize len = static_cast<usize>(rng.below(50));
    src[i] = make_keys(len, Dist::kUniform, rng);
    std::sort(src[i].begin(), src[i].end());
    all.insert(all.end(), src[i].begin(), src[i].end());
  }
  std::sort(all.begin(), all.end());

  LoserTree<u64> tree(k);
  std::vector<usize> pos(k, 0);
  for (usize i = 0; i < k; ++i) {
    if (!src[i].empty()) {
      tree.set_initial(i, src[i][0]);
      pos[i] = 1;
    }
  }
  tree.build();
  std::vector<u64> out;
  while (!tree.empty()) {
    const usize s = tree.min_source();
    out.push_back(tree.min_value());
    if (pos[s] < src[s].size()) {
      tree.replace_min(src[s][pos[s]++]);
    } else {
      tree.exhaust_min();
    }
  }
  EXPECT_EQ(out, all);
}

INSTANTIATE_TEST_SUITE_P(Fanins, LoserTreeK,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 31, 64));

// Regression for the replay() tie-break: better(cur, other) used to prefer
// the incumbent path on ties, so after the first replacement equal keys
// could surface from a higher source index first. With ties broken by
// lower source index, a duplicate-heavy merge must drain equal keys in
// (source, position) order: whenever heads tie, the lowest source pops,
// and since each source is internally ordered, every equal-key group in
// the output is sorted by source index, then by position within source.
TEST(LoserTree, StableBySourceIndexUnderHeavyDuplicates) {
  struct Tagged {
    u64 key = 0;
    u32 src = 0;
    u32 pos = 0;
  };
  struct KeyLess {
    bool operator()(const Tagged& a, const Tagged& b) const {
      return a.key < b.key;
    }
  };
  for (u64 seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const usize k = 2 + static_cast<usize>(rng.below(14));
    std::vector<std::vector<Tagged>> src(k);
    for (usize i = 0; i < k; ++i) {
      const usize len = 20 + static_cast<usize>(rng.below(60));
      std::vector<u64> keys(len);
      for (auto& x : keys) x = rng.below(5);  // ~len/5 duplicates per key
      std::sort(keys.begin(), keys.end());
      for (usize p = 0; p < len; ++p) {
        src[i].push_back(
            Tagged{keys[p], static_cast<u32>(i), static_cast<u32>(p)});
      }
    }
    LoserTree<Tagged, KeyLess> tree(k);
    std::vector<usize> pos(k, 1);
    for (usize i = 0; i < k; ++i) tree.set_initial(i, src[i][0]);
    tree.build();
    std::vector<Tagged> out;
    while (!tree.empty()) {
      const usize s = tree.min_source();
      out.push_back(tree.min_value());
      if (pos[s] < src[s].size()) {
        tree.replace_min(src[s][pos[s]++]);
      } else {
        tree.exhaust_min();
      }
    }
    for (usize i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1].key, out[i].key) << "disorder at " << i;
      if (out[i - 1].key == out[i].key) {
        const bool stable =
            out[i - 1].src < out[i].src ||
            (out[i - 1].src == out[i].src && out[i - 1].pos < out[i].pos);
        ASSERT_TRUE(stable) << "unstable tie at " << i << ": ("
                            << out[i - 1].src << "," << out[i - 1].pos
                            << ") before (" << out[i].src << "," << out[i].pos
                            << ")";
      }
    }
  }
}

TEST(LoserTree, AllSourcesEmpty) {
  LoserTree<u64> tree(4);
  tree.build();
  EXPECT_TRUE(tree.empty());
}

TEST(LoserTree, StableOnTies) {
  // Equal keys: the lower source index must win (stability by source).
  LoserTree<u64> tree(3);
  tree.set_initial(0, 5);
  tree.set_initial(1, 5);
  tree.set_initial(2, 5);
  tree.build();
  EXPECT_EQ(tree.min_source(), 0u);
  tree.exhaust_min();
  EXPECT_EQ(tree.min_source(), 1u);
  tree.exhaust_min();
  EXPECT_EQ(tree.min_source(), 2u);
}

// Tree contract: a single source still plays (the tree pads to two
// leaves) and drains to empty.
TEST(LoserTree, SingleSource) {
  LoserTree<u64> tree(1);
  tree.set_initial(0, 7);
  tree.build();
  ASSERT_FALSE(tree.empty());
  EXPECT_EQ(tree.min_source(), 0u);
  EXPECT_EQ(tree.min_value(), 7u);
  tree.replace_min(9);
  EXPECT_EQ(tree.min_source(), 0u);
  EXPECT_EQ(tree.min_value(), 9u);
  tree.exhaust_min();
  EXPECT_TRUE(tree.empty());
}

// Tree contract: with k short of a power of two, the padding leaves never
// surface, even when every live key is the largest representable one, and
// equal keys leave in source order.
TEST(LoserTree, NonPowerOfTwoFaninNeverSurfacesPadding) {
  for (usize k : {3, 5, 6, 7, 9, 12}) {
    LoserTree<u64> tree(k);
    for (usize i = 0; i < k; ++i) tree.set_initial(i, ~u64{0});
    tree.build();
    for (usize i = 0; i < k; ++i) {
      ASSERT_FALSE(tree.empty()) << "k " << k;
      EXPECT_EQ(tree.min_source(), i) << "k " << k;
      EXPECT_EQ(tree.min_value(), ~u64{0});
      tree.exhaust_min();
    }
    EXPECT_TRUE(tree.empty()) << "k " << k;
  }
}

// Tree contract: a source exhausted mid-merge never surfaces again, although
// its last key stays smaller than every key the other sources still hold.
TEST(LoserTree, ExhaustedSourceNeverResurfaces) {
  const usize k = 6;
  LoserTree<u64> tree(k);
  for (usize i = 0; i < k; ++i) tree.set_initial(i, i == 2 ? 0 : 10 + i);
  tree.build();
  ASSERT_EQ(tree.min_source(), 2u);
  tree.exhaust_min();
  std::vector<usize> order;
  u64 next_key = 100;
  while (!tree.empty()) {
    const usize s = tree.min_source();
    order.push_back(s);
    if (order.size() < 20) {
      tree.replace_min(next_key++);
    } else {
      tree.exhaust_min();
    }
  }
  EXPECT_EQ(order.size(), 19u + (k - 1));
  EXPECT_EQ(std::count(order.begin(), order.end(), usize{2}), 0);
}

// Tree contract: entries order by tag before record, so a lower tag wins
// against a smaller key, and a tag-aware comparator orders each tag its
// own way (here: odd tags descend).
TEST(LoserTree, LowerTagBeatsSmallerKey) {
  LoserTree<u64> tree(3);
  tree.set_initial(0, 1, 2);
  tree.set_initial(1, 50, 1);
  tree.set_initial(2, 40, 1);
  tree.build();
  EXPECT_EQ(tree.min_source(), 2u);
  EXPECT_EQ(tree.min_tag(), 1u);
  tree.replace_min(5, 3);
  EXPECT_EQ(tree.min_source(), 1u);
  tree.replace_min(60, 1);
  EXPECT_EQ(tree.min_source(), 1u);
  EXPECT_EQ(tree.min_value(), 60u);
  tree.exhaust_min();
  EXPECT_EQ(tree.min_source(), 0u);
  EXPECT_EQ(tree.min_tag(), 2u);

  auto odd_descends = [](u32 tag, u64 a, u64 b) {
    return (tag & 1) != 0 ? b < a : a < b;
  };
  LoserTree<u64, decltype(odd_descends)> updown(4, odd_descends);
  for (usize i = 0; i < 4; ++i) {
    updown.set_initial(i, 10 * (i + 1), static_cast<u32>(i / 2));
  }
  updown.build();
  std::vector<u64> out;
  while (!updown.empty()) {
    out.push_back(updown.min_value());
    updown.exhaust_min();
  }
  EXPECT_EQ(out, (std::vector<u64>{10, 20, 40, 30}));
}

// -------------------------------------------------------- radix partition

TEST(RadixPartition, CountsSumToN) {
  Rng rng(3);
  auto v = make_int_keys(1000, 256, rng);
  std::vector<u64> out(v.size());
  std::vector<u64> counts(16);
  CpuPool serial(1);
  partition_stable(
      std::span<const u64>(v), std::span<u64>(out), counts.size(),
      [](const u64& k) { return static_cast<usize>((k >> 4) & 15); }, serial,
      std::span<u64>(counts));
  u64 total = 0;
  for (u64 c : counts) total += c;
  EXPECT_EQ(total, 1000u);
}

TEST(RadixPartition, PartitionGroupsByDigit) {
  Rng rng(4);
  auto v = make_int_keys(4096, 1u << 12, rng);
  std::vector<u64> out(v.size());
  std::vector<u64> counts(16);
  auto digit = [](const u64& k) { return static_cast<usize>((k >> 8) & 15); };
  CpuPool serial(1);
  partition_stable(std::span<const u64>(v), std::span<u64>(out), counts.size(),
                   digit, serial, std::span<u64>(counts));
  u64 lo = 0;
  for (usize d = 0; d < 16; ++d) {
    for (u64 i = lo; i < lo + counts[d]; ++i) EXPECT_EQ(digit(out[i]), d);
    lo += counts[d];
  }
  EXPECT_EQ(lo, v.size());
  // Multiset preserved.
  auto a = v;
  auto b = out;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(RadixPartition, ScatterIsStableWithinDigit) {
  std::vector<u64> v{0x10, 0x20, 0x11, 0x21, 0x12};
  std::vector<u64> out(v.size());
  std::vector<u64> counts(16);
  CpuPool serial(1);
  partition_stable(
      std::span<const u64>(v), std::span<u64>(out), counts.size(),
      [](const u64& k) { return static_cast<usize>((k >> 4) & 15); }, serial,
      std::span<u64>(counts));
  // digit = high nibble; digit 1 comes first and keeps 0x10, 0x11, 0x12.
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(out[0], 0x10u);
  EXPECT_EQ(out[1], 0x11u);
  EXPECT_EQ(out[2], 0x12u);
}

}  // namespace
}  // namespace pdm
