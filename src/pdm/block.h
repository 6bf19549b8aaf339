// Block-level addressing for the Parallel Disk Model.
//
// A PDM instance has D independent disks; each disk is an array of
// fixed-size blocks. One *parallel I/O operation* transfers at most one
// block per disk. All higher layers (runs, matrices, sorters) reduce their
// access patterns to vectors of block requests; the IoScheduler groups those
// into parallel operations and charges them to the statistics.
//
// Requests are extent-capable: a request may span `count` physically
// contiguous blocks of one disk (one backend call — one pread/pwrite or
// preadv/pwritev — moves the whole span), with the per-block memory
// buffers laid out at a uniform byte stride. The paper's parallel-op
// accounting is unaffected: a span of c blocks on one disk still counts as
// c block-transfers on that disk (see IoScheduler).
#pragma once

#include <cstddef>
#include <span>

#include "util/common.h"

namespace pdm {

/// Address of one block: which disk, and the block index within that disk.
struct BlockRef {
  u32 disk = 0;
  u64 index = 0;

  friend bool operator==(const BlockRef&, const BlockRef&) = default;
};

/// A span of physically contiguous blocks on one disk, the unit the extent
/// allocator hands out and the free list recycles.
struct Extent {
  u32 disk = 0;
  u64 index = 0;  // first block
  u64 count = 0;  // blocks [index, index + count)

  friend bool operator==(const Extent&, const Extent&) = default;
};

/// A read of `count` contiguous blocks starting at `where` into
/// caller-owned memory: block k lands at dst + k * stride bytes, where
/// stride is `dst_stride_bytes` (or block_bytes when 0, i.e. a contiguous
/// buffer). Single-block requests leave count/stride at their defaults.
struct ReadReq {
  BlockRef where;
  std::byte* dst = nullptr;
  u64 count = 1;
  i64 dst_stride_bytes = 0;  // 0 = contiguous (block_bytes)

  /// The effective buffer stride: the single place the "0 means
  /// contiguous" convention is interpreted.
  i64 stride_or(usize block_bytes) const noexcept {
    return dst_stride_bytes != 0 ? dst_stride_bytes
                                 : static_cast<i64>(block_bytes);
  }
};

/// A write of `count` contiguous blocks from caller-owned memory; block k
/// is taken from src + k * stride bytes (stride as in ReadReq).
struct WriteReq {
  BlockRef where;
  const std::byte* src = nullptr;
  u64 count = 1;
  i64 src_stride_bytes = 0;  // 0 = contiguous (block_bytes)

  i64 stride_or(usize block_bytes) const noexcept {
    return src_stride_bytes != 0 ? src_stride_bytes
                                 : static_cast<i64>(block_bytes);
  }
};

/// Start disk of run i (i < k) when a later pass reads k runs together:
/// floor(i * D / k). Any c consecutive disks (cyclically) then hold the
/// starts of at most ceil(k * c / D) runs, so a pass that reads c
/// consecutive blocks of every run puts at most ceil(k * c / D) blocks on
/// any disk — the minimum, for every c. This is the layout rule for runs
/// formed, merged or written for a pass that reads them side by side.
constexpr u32 spread_start_disk(u64 i, u64 k, u32 num_disks) {
  return static_cast<u32>(i * num_disks / k);
}

}  // namespace pdm
