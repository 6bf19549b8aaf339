// ShardRouter: decides which SortService shard serves a job.
//
// Placement is the whole game once I/O bandwidth is the bottleneck
// (Rahn/Sanders/Singler, "Scalable Distributed-Memory External Sorting"):
// throughput tracks how evenly work spreads over independent disk groups,
// while per-job pass counts stay the paper-optimal ones no matter where a
// job lands. Three policies cover the classic tradeoffs:
//
//  - kRoundRobin: perfectly even job counts, blind to job size and to
//    shard state. The baseline the benches compare against.
//  - kLeastLoaded: power-of-two-choices — sample two random shards, take
//    the one with the lower ShardLoad::score() (queue depth + reserved-
//    memory fraction). Near-optimal balance at O(1) cost, and sampling
//    avoids the stampede of every router chasing one idle shard.
//  - kLocalityHash: stable placement by SortJobSpec::locality_key on a
//    consistent-hash ring (HashRing, virtual nodes), so a returning
//    tenant lands where its plan-cache entries and (for file backends)
//    page-cache pages are still warm. Jobs without a key fall back to
//    round-robin.
//
// The router owns the cluster's live topology: shards are added and
// removed at runtime (add_shard / remove_shard) and every policy places
// over the *active* set only. The locality ring is the reason this is
// cheap — a topology change remaps only the ~1/N of keys whose arcs the
// joining shard claims (or the leaving shard releases); everyone else
// keeps their warm shard. Load snapshots stay indexed by shard id (slot),
// covering retired slots with placeholders, so ids never shift under a
// drain.
//
// Sticky spill-back: a keyed tenant whose preferred shard keeps refusing
// its jobs (admission carve above the shard budget) spills on every
// submission — a full load scan each time, landing wherever happens to be
// lightest. After kSpillPromoteAfter consecutive spills of one key the
// router pins that key to its latest spill target: subsequent placements
// go there directly (any policy), no re-scan — the spill target becomes
// the tenant's new preferred home. If the pinned shard later stops
// fitting, the next spill re-pins to the new target; if it is drained
// from the cluster, the pin dissolves and the tenant re-learns. A streak
// that has not yet promoted resets when the tenant fits its
// policy-preferred shard. The owning Cluster reports spills/successes via
// note_spill()/note_preferred_ok().
//
// The router is a placement function over a loads snapshot plus a little
// mixing state (round-robin cursor, RNG, sticky map, ring); it is NOT
// thread-safe — the owning Cluster serializes placement and topology
// changes under its own mutex.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "service/service_stats.h"
#include "service/sort_job.h"
#include "util/rng.h"

namespace pdm {

enum class RoutePolicy {
  kRoundRobin,
  kLeastLoaded,
  kLocalityHash,
};

inline const char* route_policy_name(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin: return "round_robin";
    case RoutePolicy::kLeastLoaded: return "least_loaded";
    case RoutePolicy::kLocalityHash: return "locality_hash";
  }
  return "?";
}

/// Parses a policy name as printed by route_policy_name (CLI flags);
/// throws pdm::Error on anything else.
RoutePolicy route_policy_from_name(const std::string& name);

/// FNV-1a of the locality key; exposed so tests can pick keys that land
/// on specific shards.
u64 locality_hash(const std::string& key);

class ShardRouter {
 public:
  /// "No shard" sentinel returned by the scans below.
  static constexpr u32 kNone = 0xffffffffu;

  /// Consecutive spills of one locality key before its placement sticks
  /// to the spill target (sticky spill-back).
  static constexpr u32 kSpillPromoteAfter = 3;

  /// Starts with shards 0..shards-1 active. The least-loaded policy's
  /// sampling RNG is seeded with 1, so placement is reproducible.
  ShardRouter(usize shards, RoutePolicy policy);

  RoutePolicy policy() const noexcept { return policy_; }

  /// Topology: shard ids are slot indices assigned by the cluster and
  /// never reused. Adding inserts the id into the active set and the
  /// ring; removing drops it (and dissolves sticky pins that target it).
  void add_shard(u32 id);
  void remove_shard(u32 id);
  bool is_active(u32 id) const;
  const std::vector<u32>& active() const noexcept { return active_; }
  usize num_active() const noexcept { return active_.size(); }
  const HashRing& ring() const noexcept { return ring_; }

  /// Preferred shard for `spec` given the current loads. `loads` is
  /// indexed by shard id and must cover every active id (retired slots
  /// may hold placeholders). A hard pin (SortJobSpec::target_shard, used
  /// by distributed range jobs) overrides everything while its target is
  /// active; below that, a key pinned by sticky spill-back overrides the
  /// policy while its target is active.
  u32 place(const SortJobSpec& spec, std::span<const ShardLoad> loads);

  /// Records that a keyed job spilled from its preferred shard to
  /// `to_shard`; promotes the key after kSpillPromoteAfter consecutive
  /// spills. Unkeyed jobs (empty key) are ignored.
  void note_spill(const std::string& key, u32 to_shard);

  /// Records a successful placement on the key's policy-preferred shard:
  /// resets its spill streak and clears any pin.
  void note_preferred_ok(const std::string& key);

  /// The active shard `key` is currently pinned to, if any (a pin whose
  /// target was drained reads as no pin).
  std::optional<u32> pinned_shard(const std::string& key) const;

  /// Lowest-score active shard for which `admissible(shard)` holds,
  /// excluding `exclude` (pass kNone to exclude nothing). Returns kNone
  /// when no shard qualifies. This is the overflow-spill / work-steal
  /// scan: a full scan, not a sample — these are rare and worth the
  /// extra looks.
  template <class Pred>
  u32 least_loaded_where(std::span<const ShardLoad> loads, u32 exclude,
                         Pred admissible) const {
    u32 best = kNone;
    for (u32 i : active_) {
      if (i == exclude || !admissible(i)) continue;
      if (best == kNone || loads[i].score() < loads[best].score()) {
        best = i;
      }
    }
    return best;
  }

 private:
  struct Sticky {
    u32 streak = 0;       // consecutive spills
    u32 target = 0;       // latest spill destination
    bool pinned = false;  // streak reached kSpillPromoteAfter
  };

  u32 round_robin();

  std::vector<u32> active_;  // sorted ascending
  RoutePolicy policy_;
  HashRing ring_;
  u64 rr_ = 0;
  Rng rng_;
  std::map<std::string, Sticky> sticky_;
  static constexpr usize kStickyCap = 4096;  // bound on tracked tenants
};

}  // namespace pdm
