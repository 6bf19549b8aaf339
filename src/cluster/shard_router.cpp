#include "cluster/shard_router.h"

#include <algorithm>

namespace pdm {

RoutePolicy route_policy_from_name(const std::string& name) {
  if (name == "round_robin") return RoutePolicy::kRoundRobin;
  if (name == "least_loaded") return RoutePolicy::kLeastLoaded;
  if (name == "locality_hash") return RoutePolicy::kLocalityHash;
  fail("unknown routing policy: " + name +
       " (want round_robin | least_loaded | locality_hash)");
}

u64 locality_hash(const std::string& key) {
  u64 h = 14695981039346656037ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

ShardRouter::ShardRouter(usize shards, RoutePolicy policy)
    : policy_(policy), rng_(1) {
  PDM_CHECK(shards > 0, "router needs at least one shard");
  active_.reserve(shards);
  for (u32 i = 0; i < shards; ++i) {
    active_.push_back(i);
    ring_.add(i);
  }
}

void ShardRouter::add_shard(u32 id) {
  PDM_CHECK(!is_active(id), "router: shard already active");
  active_.insert(std::lower_bound(active_.begin(), active_.end(), id), id);
  ring_.add(id);
}

void ShardRouter::remove_shard(u32 id) {
  PDM_CHECK(is_active(id), "router: shard not active");
  PDM_CHECK(active_.size() > 1, "router: cannot remove the last shard");
  active_.erase(std::lower_bound(active_.begin(), active_.end(), id));
  ring_.remove(id);
  // Pins and streaks aimed at the leaving shard dissolve; the tenants
  // re-learn their homes on the shrunken topology.
  std::erase_if(sticky_,
                [&](const auto& kv) { return kv.second.target == id; });
}

bool ShardRouter::is_active(u32 id) const {
  return std::binary_search(active_.begin(), active_.end(), id);
}

u32 ShardRouter::round_robin() {
  return active_[static_cast<usize>(rr_++ % active_.size())];
}

void ShardRouter::note_spill(const std::string& key, u32 to_shard) {
  if (key.empty()) return;
  if (sticky_.size() >= kStickyCap && !sticky_.contains(key)) {
    // Bounded tenant tracking: drop an arbitrary entry (re-promotion only
    // costs the evicted tenant kSpillPromoteAfter more scans).
    sticky_.erase(sticky_.begin());
  }
  Sticky& s = sticky_[key];
  s.target = to_shard;
  if (!s.pinned && ++s.streak >= kSpillPromoteAfter) s.pinned = true;
}

void ShardRouter::note_preferred_ok(const std::string& key) {
  if (key.empty()) return;
  sticky_.erase(key);
}

std::optional<u32> ShardRouter::pinned_shard(const std::string& key) const {
  auto it = sticky_.find(key);
  if (it == sticky_.end() || !it->second.pinned) return std::nullopt;
  if (!is_active(it->second.target)) return std::nullopt;
  return it->second.target;
}

u32 ShardRouter::place(const SortJobSpec& spec,
                       std::span<const ShardLoad> loads) {
  PDM_CHECK(!active_.empty(), "router: no active shards");
  PDM_CHECK(loads.size() > active_.back(),
            "router: loads snapshot does not cover the active shards");
  // A hard pin (SortJobSpec::target_shard) overrides every policy while
  // its target is active; a pin on a drained shard dissolves to normal
  // placement.
  if (spec.target_shard != SortJobSpec::kAnyShard &&
      is_active(spec.target_shard)) {
    return spec.target_shard;
  }
  if (auto pinned = pinned_shard(spec.locality_key)) return *pinned;
  if (active_.size() == 1) return active_.front();
  switch (policy_) {
    case RoutePolicy::kRoundRobin:
      return round_robin();
    case RoutePolicy::kLeastLoaded: {
      // Power of two choices over the active list; distinct samples,
      // ties to the first.
      const usize n = active_.size();
      const usize ia = static_cast<usize>(rng_.below(n));
      usize ib = static_cast<usize>(rng_.below(n - 1));
      if (ib >= ia) ++ib;
      const u32 a = active_[ia];
      const u32 b = active_[ib];
      return loads[b].score() < loads[a].score() ? b : a;
    }
    case RoutePolicy::kLocalityHash:
      if (spec.locality_key.empty()) return round_robin();
      return ring_.route(locality_hash(spec.locality_key));
  }
  return active_.front();
}

}  // namespace pdm
