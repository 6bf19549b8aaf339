// StripedRun: a logical sequence of records striped block-round-robin over
// the disks, the standard PDM layout (Rajasekaran [23]). Block k of a run
// that starts at disk s lives on disk (s + k) mod D, so any D consecutive
// blocks of a run — and any batch of single blocks taken from D runs with
// staggered start disks — occupy distinct disks and move in one parallel
// I/O.
//
// Physically, each disk's share of the stripe is carved from extents (up
// to PdmContext::kExtentBlocks contiguous blocks at a time, inside the
// context's allocator region), so logical blocks k, k+D, k+2D, ... of a
// run sit at consecutive disk addresses: a bulk read or write of the run
// coalesces into one extent-sized syscall per disk (see IoScheduler).
// This is the only allocation path; concurrent jobs' runs never
// interleave block-by-block. finish() — and, for runs abandoned by a
// cancelled or failed pass, the destructor — returns the unconsumed
// extent tails to the allocator's free list, so tail fragmentation is
// transient. Runs must not outlive their context (the destructor relies
// on it).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "pdm/pdm_context.h"
#include "pdm/record.h"
#include "util/math_util.h"

namespace pdm {

template <Record R>
class StripedRun {
 public:
  StripedRun() = default;

  explicit StripedRun(PdmContext& ctx, u32 start_disk = 0)
      : ctx_(&ctx), start_disk_(start_disk % ctx.D()) {
    rpb_ = ctx.rpb<R>();
  }

  /// Releases unconsumed extent tails even when the run never reached
  /// finish() — a cancelled or failed pass must not strand disk space.
  ~StripedRun() {
    if (ctx_ != nullptr) release_extent_tails();
  }

  // Move-only: a copy would duplicate extent-tail ownership and the
  // destructor would return the same spans to the free list twice.
  StripedRun(StripedRun&& o) noexcept
      : ctx_(o.ctx_),
        blocks_(std::move(o.blocks_)),
        extents_(std::move(o.extents_)),
        grow_(std::move(o.grow_)),
        tail_(std::move(o.tail_)),
        size_(o.size_),
        rpb_(o.rpb_),
        start_disk_(o.start_disk_),
        finished_(o.finished_) {
    o.extents_.clear();  // moved-from source owns no tails
  }

  StripedRun& operator=(StripedRun&& o) noexcept {
    if (this != &o) {
      if (ctx_ != nullptr) release_extent_tails();
      ctx_ = o.ctx_;
      blocks_ = std::move(o.blocks_);
      extents_ = std::move(o.extents_);
      grow_ = std::move(o.grow_);
      tail_ = std::move(o.tail_);
      size_ = o.size_;
      rpb_ = o.rpb_;
      start_disk_ = o.start_disk_;
      finished_ = o.finished_;
      o.extents_.clear();
    }
    return *this;
  }

  /// Copies are metadata aliases: block refs are shared (fine — reads
  /// only), but extent-tail ownership is unique and never duplicated, so
  /// only runs with settled tails (finished, or never allocated) may be
  /// copied — copying a mid-append run would strand or double-free its
  /// tails.
  StripedRun(const StripedRun& o)
      : ctx_(o.ctx_),
        blocks_(o.blocks_),
        tail_(o.tail_),
        size_(o.size_),
        rpb_(o.rpb_),
        start_disk_(o.start_disk_),
        finished_(o.finished_) {
    PDM_ASSERT(!o.owns_tails(), "copy of a StripedRun with live extent tails");
  }

  StripedRun& operator=(const StripedRun& o) {
    if (this != &o) {
      PDM_ASSERT(!o.owns_tails(),
                 "copy of a StripedRun with live extent tails");
      if (ctx_ != nullptr) release_extent_tails();
      ctx_ = o.ctx_;
      blocks_ = o.blocks_;
      extents_.clear();
      grow_.clear();
      tail_ = o.tail_;
      size_ = o.size_;
      rpb_ = o.rpb_;
      start_disk_ = o.start_disk_;
      finished_ = o.finished_;
    }
    return *this;
  }

  PdmContext& ctx() const { return *ctx_; }
  u64 size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  usize rpb() const noexcept { return rpb_; }
  u64 num_blocks() const noexcept { return blocks_.size(); }
  u32 start_disk() const noexcept { return start_disk_; }

  BlockRef block_ref(u64 i) const {
    PDM_CHECK(i < blocks_.size(), "block index out of range");
    return blocks_[i];
  }

  /// Logical records stored in block i (the final block may be partial).
  usize records_in_block(u64 i) const {
    PDM_CHECK(i < blocks_.size(), "block index out of range");
    const u64 start = i * rpb_;
    return static_cast<usize>(std::min<u64>(rpb_, size_ - start));
  }

  /// Allocates the next block of the stripe and returns a write request for
  /// it. `src` must stay alive until the caller submits the request. Used
  /// by multi-run writers that batch blocks across runs into one parallel
  /// write. Advances the logical size by a full block.
  WriteReq stage_append_block(const R* src) {
    PDM_CHECK(tail_.empty(), "stage_append_block with buffered tail");
    PDM_CHECK(!finished_, "append after finish()");
    BlockRef ref = alloc_next_block();
    size_ += rpb_;
    return WriteReq{ref, reinterpret_cast<const std::byte*>(src)};
  }

  /// Appends records with write combining: the run is written in whole
  /// stripes of D blocks, and whatever does not fill one is carried in the
  /// tail buffer (fewer than D blocks) until a later append completes the
  /// stripe or finish() writes it. Every write but the last then moves
  /// exactly one block per disk, so a run's writes cost ceil(blocks / D)
  /// parallel ops however its appends are sliced. Writes go through the
  /// context's write-behind ring, so with the async pipeline enabled the
  /// caller's buffer is copied and the transfer overlaps with whatever the
  /// caller does next.
  void append(std::span<const R> recs) {
    PDM_CHECK(!finished_, "append after finish()");
    if (recs.empty()) return;
    size_ += recs.size();
    const usize stripe = stripe_records();
    // Fast path: with an empty tail, whole stripes are written directly
    // from the caller's memory without the staging copy.
    if (tail_.empty() && recs.size() >= stripe) {
      const usize direct = round_down(recs.size(), stripe);
      write_blocks(recs.data(), direct / rpb_);
      tail_.assign(recs.begin() + static_cast<std::ptrdiff_t>(direct),
                   recs.end());
      return;
    }
    tail_.insert(tail_.end(), recs.begin(), recs.end());
    if (tail_.size() >= stripe) {
      const usize whole = round_down(tail_.size(), stripe);
      write_blocks(tail_.data(), whole / rpb_);
      tail_.erase(tail_.begin(),
                  tail_.begin() + static_cast<std::ptrdiff_t>(whole));
    }
  }

  /// Writes the carried blocks and the zero-padded partial last block (the
  /// logical size excludes the padding) as one batch — fewer than D + 1
  /// blocks, so one parallel op — and recycles unconsumed extent tails to
  /// the allocator. Idempotent.
  void finish() {
    if (finished_) return;
    finished_ = true;
    if (!tail_.empty()) {
      tail_.resize(static_cast<usize>(round_up(tail_.size(), rpb_)), R{});
      write_blocks(tail_.data(), tail_.size() / rpb_);
      tail_.clear();
    }
    release_extent_tails();
  }

  /// Reverses the block order in place — pure metadata, no I/O. Used by
  /// up/down run formation: a descending run is written with the records
  /// of each block reversed, then the block list is flipped here, which
  /// yields an ascending run. Requires a finished run of whole blocks
  /// (a partial tail block would land in the middle of the record order).
  /// The stripe then walks the disks downward, which is still D-distinct
  /// per D consecutive blocks, so batched reads keep full parallelism.
  void reverse_blocks() {
    PDM_CHECK(finished_, "reverse_blocks before finish()");
    PDM_CHECK(size_ % rpb_ == 0,
              "reverse_blocks requires whole blocks (no partial tail)");
    std::reverse(blocks_.begin(), blocks_.end());
    if (!blocks_.empty()) start_disk_ = blocks_.front().disk;
  }

  /// Read request for block i into caller memory (rpb records of space).
  ReadReq read_req(u64 i, R* dst) const {
    return ReadReq{block_ref(i), reinterpret_cast<std::byte*>(dst)};
  }

  /// Reads `count` consecutive blocks starting at `first` into dst (which
  /// must hold count*rpb records) with one batched parallel read.
  void read_blocks(u64 first, u64 count, R* dst) const {
    ctx_->aio().wait(read_blocks_async(first, count, dst));
  }

  /// Asynchronous variant: stages the batch and returns its completion
  /// ticket (0 when the pipeline is disabled and the read already
  /// happened). dst must stay alive until the ticket completes.
  IoTicket read_blocks_async(u64 first, u64 count, R* dst) const {
    PDM_CHECK(first + count <= blocks_.size(), "read_blocks out of range");
    std::vector<ReadReq> reqs;
    reqs.reserve(static_cast<usize>(count));
    for (u64 b = 0; b < count; ++b) {
      reqs.push_back(read_req(first + b, dst + b * rpb_));
    }
    return ctx_->aio().read_async(reqs);
  }

  /// Reads the entire run (convenience for tests; counts I/O normally).
  std::vector<R> read_all() const {
    PDM_CHECK(tail_.empty(), "read_all before finish(): tail not flushed");
    std::vector<R> out(blocks_.size() * rpb_);
    if (!blocks_.empty()) read_blocks(0, blocks_.size(), out.data());
    out.resize(static_cast<usize>(size_));
    return out;
  }

 private:
  usize stripe_records() const { return usize{ctx_->D()} * rpb_; }

  /// Writes `count` whole blocks from `src` as the run's next blocks, in
  /// one batch.
  void write_blocks(const R* src, usize count) {
    std::vector<WriteReq> reqs;
    reqs.reserve(count);
    for (usize b = 0; b < count; ++b) {
      reqs.push_back(WriteReq{
          alloc_next_block(),
          reinterpret_cast<const std::byte*>(src + b * rpb_)});
    }
    ctx_->write_batch(reqs);
  }

  BlockRef alloc_next_block() {
    const u32 disk =
        static_cast<u32>((start_disk_ + blocks_.size()) % ctx_->D());
    constexpr u64 eb = PdmContext::kExtentBlocks;
    if (extents_.empty()) {
      extents_.assign(ctx_->D(), Extent{});
      grow_.assign(ctx_->D(), kInitialExtentBlocks);
    }
    Extent& cur = extents_[disk];
    if (cur.count == 0) {
      // Adaptive sizing: short runs (an unshuffle part may own a single
      // block per disk) waste at most a few tail blocks, long runs ramp
      // up to the context's full extent size within a few refills.
      const u64 want = std::min<u64>(eb, grow_[disk]);
      grow_[disk] = static_cast<u32>(std::min<u64>(eb, u64{grow_[disk]} * 2));
      cur = ctx_->alloc().alloc_extent(disk, want, ctx_->alloc_region());
    }
    BlockRef ref{disk, cur.index};
    ++cur.index;
    --cur.count;
    blocks_.push_back(ref);
    return ref;
  }

  bool owns_tails() const {
    for (const Extent& e : extents_) {
      if (e.count > 0) return true;
    }
    return false;
  }

  void release_extent_tails() {
    for (Extent& e : extents_) {
      if (e.count > 0) {
        ctx_->alloc().free_extent(e, ctx_->alloc_region());
        e.count = 0;
      }
    }
  }

  static constexpr u32 kInitialExtentBlocks = 4;

  PdmContext* ctx_ = nullptr;
  std::vector<BlockRef> blocks_;
  std::vector<Extent> extents_;  // per-disk unconsumed allocation tail
  std::vector<u32> grow_;        // per-disk next extent size (doubling)
  std::vector<R> tail_;
  u64 size_ = 0;
  usize rpb_ = 0;
  u32 start_disk_ = 0;
  bool finished_ = false;
};

/// Writes in-memory data as a striped run. Used to stage experiment inputs;
/// callers that do not want the staging I/O charged to the algorithm should
/// reset the context stats afterwards.
template <Record R>
StripedRun<R> write_input_run(PdmContext& ctx, std::span<const R> data,
                              u32 start_disk = 0) {
  StripedRun<R> run(ctx, start_disk);
  run.append(data);
  run.finish();
  return run;
}

}  // namespace pdm
