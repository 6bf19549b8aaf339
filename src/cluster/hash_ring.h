// Consistent-hash ring with virtual nodes: the placement structure that
// makes cluster topology changes cheap.
//
// Each shard owns kVnodesPerShard points on a u64 ring (splitmix64 of the
// (shard, replica) pair — deterministic across processes, so tests can
// script exact topologies). A key routes to the shard owning the first
// point clockwise from the key's hash. Adding a shard claims only the
// arcs its new points cut out of existing owners — every remapped key
// moves TO the new shard, nothing else moves at all — and the claimed
// fraction concentrates around kVnodesPerShard independent draws of arc
// length, i.e. ~1/N of the keyspace with relative spread
// ~1/sqrt(kVnodesPerShard) (1/16 at 256 vnodes, for O(256 * shards) ring
// memory).
// Removing a shard is the mirror image: only its own keys move, released
// to the clockwise survivors. That is the property the elastic cluster
// leans on: a topology change disturbs ~1/N of the locality keys (plan
// caches, page caches, sticky pins) instead of rehashing everybody, and
// tests/cluster_scenarios_test.cpp asserts it exactly.
#pragma once

#include <algorithm>
#include <vector>

#include "util/common.h"

namespace pdm {

class HashRing {
 public:
  static constexpr u32 kVnodesPerShard = 256;

  bool empty() const noexcept { return points_.empty(); }
  usize size() const noexcept { return points_.size(); }

  /// Inserts `shard`'s virtual nodes (no-op guard: a shard must not be
  /// added twice — the points would double and skew its arc share).
  void add(u32 shard) {
    PDM_CHECK(!contains(shard), "hash ring: shard already present");
    points_.reserve(points_.size() + kVnodesPerShard);
    for (u32 r = 0; r < kVnodesPerShard; ++r) {
      points_.push_back(Point{point_hash(shard, r), shard});
    }
    std::sort(points_.begin(), points_.end());
  }

  /// Removes every point of `shard`; its arcs fall to the clockwise
  /// neighbors, which is exactly the keys that remap.
  void remove(u32 shard) {
    std::erase_if(points_, [&](const Point& p) { return p.shard == shard; });
  }

  bool contains(u32 shard) const {
    return std::any_of(points_.begin(), points_.end(),
                       [&](const Point& p) { return p.shard == shard; });
  }

  /// The shard owning `hash`: first ring point at or clockwise of it,
  /// wrapping at the top of the u64 range. The hash is finalized through
  /// splitmix64 first — ring position compares full-width u64s, and
  /// caller hashes with weak high-bit avalanche (FNV-1a of short keys)
  /// would otherwise cluster on a few arcs.
  u32 route(u64 hash) const {
    PDM_CHECK(!points_.empty(), "hash ring: no shards");
    auto it = std::lower_bound(points_.begin(), points_.end(),
                               Point{finalize(hash), 0});
    if (it == points_.end()) it = points_.begin();
    return it->shard;
  }

 private:
  struct Point {
    u64 where = 0;
    u32 shard = 0;
    friend bool operator<(const Point& a, const Point& b) {
      return a.where != b.where ? a.where < b.where : a.shard < b.shard;
    }
  };

  /// splitmix64 finalizer: stateless, stable, full-avalanche.
  static u64 finalize(u64 x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Ring position of a shard's replica: well-mixed and a pure function
  /// of the ids, never of insertion order.
  static u64 point_hash(u32 shard, u32 replica) {
    return finalize((u64{shard} << 32) | u64{replica});
  }

  std::vector<Point> points_;  // sorted by ring position
};

}  // namespace pdm
