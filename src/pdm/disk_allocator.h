// Extent-based disk-space allocator.
//
// Historically this was a pure bump allocator: one next-free-block cursor
// per disk, every caller interleaved block-by-block. That is exactly the
// layout that defeats large transfers — two concurrent jobs' runs end up
// zipped together on every disk, so no two logically consecutive blocks of
// a run are physically adjacent. The allocator now hands out *extents*
// (spans of physically contiguous blocks) from per-region arenas:
//
//  - alloc_extent(disk, count, region) returns `count` contiguous blocks.
//    Region-scoped allocations carve from that region's private arena on
//    the disk (refilled in arena_blocks-sized chunks from the shared
//    cursor), so different jobs' extents occupy disjoint disk regions
//    instead of interleaving — which is what keeps a run's blocks
//    syscall-coalescible and a tenant's working set within a disk's
//    stream cache (see MemoryDiskBackend::StreamModel).
//  - free_extent() returns a span to a per-disk free list (adjacent spans
//    coalesce); alloc_extent reuses free spans before bumping the cursor.
//    Reuse is size-indexed: alongside the address-ordered map (the source
//    of truth for coalescing) each disk keeps power-of-two size buckets of
//    free-span addresses. A request scans at most kMaxFreeScan candidates
//    in its own size octave (same-octave spans may still be too small),
//    then takes the lowest-addressed span from any higher octave — a
//    guaranteed fit — so a big span stays findable behind any number of
//    small fragments (the old bounded first-fit leaked it to the cursor).
//    Runs release their unused extent tails at finish(), so tail
//    fragmentation is transient.
//  - open_region()/close_region() bracket a job's lifetime (PdmContext
//    does this automatically); close recycles the region's arena tails.
//    Region 0 is the always-open default region with no arena: it
//    allocates exact-size spans straight from the free list / cursor, for
//    direct callers outside any context (PdmContext always allocates in
//    its own region).
//
// Thread-safe: one allocator is shared by every job context of a sort
// service, so two concurrent sorts can never be handed the same block.
//
// reset() forgets all allocations and is only legal on a quiescent
// allocator: calling it while regions are open (i.e. job contexts are
// live) or extents are outstanding is a bug — live runs would be handed
// out again to the next caller. It asserts that no region is open; use
// used_by()/open_regions() to probe a live allocator instead.
#pragma once

#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "pdm/block.h"
#include "util/common.h"

namespace pdm {

class DiskAllocator {
 public:
  /// Arena refill size for regions opened with arena_blocks = 0.
  static constexpr u64 kDefaultArenaBlocks = 256;

  /// Same-octave free spans examined per allocation before falling back
  /// to a higher size bucket / the cursor (bounds allocation cost under
  /// fragmentation, as the old whole-list first-fit cap did).
  static constexpr usize kMaxFreeScan = 64;

  explicit DiskAllocator(u32 num_disks);

  u32 num_disks() const noexcept { return static_cast<u32>(num_disks_); }

  /// Allocates one fresh block on `disk` (an extent of one).
  BlockRef alloc(u32 disk, u32 region = 0);

  /// Allocates `count` consecutive blocks on `disk`; returns the first.
  BlockRef alloc_contiguous(u32 disk, u64 count);

  /// Allocates `count` physically contiguous blocks on `disk`. Region-
  /// scoped calls carve from the region's arena; region 0 allocates an
  /// exact-size span (free list first, then the bump cursor).
  Extent alloc_extent(u32 disk, u64 count, u32 region = 0);

  /// Returns a span to the per-disk free list for reuse (coalescing with
  /// adjacent free spans). `region` credits the books of the region the
  /// span was allocated under.
  void free_extent(const Extent& e, u32 region = 0);

  /// Opens a tenant region: subsequent region-scoped extents come from
  /// private arena chunks of `arena_blocks` blocks (0 = default), so the
  /// region's data is physically separated from other tenants'.
  u32 open_region(u64 arena_blocks = 0);

  /// Closes a region, recycling its unconsumed arena tails to the free
  /// list. Blocks already handed out stay allocated (a finished job's
  /// output may outlive its context).
  void close_region(u32 region);

  /// Blocks ever claimed from `disk`'s bump cursor (high-water mark; the
  /// backing store beyond it has never been touched).
  u64 used(u32 disk) const;

  /// Total high-water blocks across all disks.
  u64 total_used() const;

  /// Live blocks currently held by `region` (allocated minus freed):
  /// the probe for "does this region still own disk space".
  u64 used_by(u32 region) const;

  /// Spans currently sitting in `disk`'s free list, in blocks.
  u64 free_blocks(u32 disk) const;

  /// Regions currently open (excluding the default region 0).
  usize open_regions() const;

  /// Forgets all allocations (the backing store is not cleared; stale
  /// reads of reused blocks will read old bytes, as on a real disk).
  /// Asserts that no region is open: resetting under outstanding
  /// reservations would hand live blocks out twice.
  void reset();

 private:
  struct Region {
    u64 arena_blocks = kDefaultArenaBlocks;
    std::vector<Extent> arena;  // per-disk unconsumed arena tail
    u64 live = 0;               // blocks handed out minus blocks freed
  };

  using FreeList = std::map<u64, u64>;  // index -> count, address order

  /// Takes a span of >= `want` blocks on `disk` from the free list
  /// (size-bucketed best-octave fit, remainder returned) or the bump
  /// cursor. Caller holds mu_.
  Extent take_span_locked(u32 disk, u64 want);
  void insert_free_locked(u32 disk, u64 index, u64 count);

  /// The only two mutation points of a disk's free list: keep the
  /// address-ordered map and the size-bucket index in lockstep.
  FreeList::iterator fl_add_locked(u32 disk, u64 index, u64 count);
  void fl_remove_locked(u32 disk, FreeList::iterator it);

  mutable std::mutex mu_;
  usize num_disks_;
  std::vector<u64> next_;               // bump cursors
  std::vector<FreeList> free_;          // per disk, source of truth
  // Per disk: size octave (bit_width(count) - 1) -> addresses of free
  // spans whose count is in [2^b, 2^(b+1)). Counts live in free_.
  std::vector<std::map<u32, std::set<u64>>> free_by_size_;
  std::map<u32, Region> regions_;
  u32 next_region_ = 1;
  u64 default_live_ = 0;  // live blocks of the default region 0
};

}  // namespace pdm
