// Groups arbitrary block-request vectors into parallel I/O operations.
//
// Batching rule: requests are queued per disk in arrival order; round t
// executes the t-th request of every non-empty queue. Thus one call with
// requests totalling `n` blocks costs max_d(blocks bound for disk d)
// parallel operations — an algorithm only achieves one-op-per-D-blocks if
// its *layout* spreads each batch evenly over the disks. This is exactly
// the accounting the paper uses when it credits oblivious algorithms with
// guaranteed parallelism, and it is deliberately block-granular: the
// extent coalescing below changes how many backend requests (syscalls)
// move those blocks, never how many paper ops they cost.
//
// Extent coalescing: before execution, adjacent same-disk requests of a
// batch whose block indices are physically contiguous and whose buffers
// sit at a uniform stride merge into one multi-block request — one
// pread/pwrite (or preadv/pwritev) on the file backend, one seek plus
// `count` sequential transfers under the memory backend's StreamModel.
// IoStats keeps both books exact: read_ops/write_ops and per-disk block
// counts from the raw batch (pass counts, schedule hash), read_calls/
// write_calls and per-disk call counts from the coalesced batch
// (coalesced_ratio = blocks per syscall). Every batch executes coalesced;
// tests/extent_io_test.cpp pins a sort's ops, blocks and calls.
//
// Accounting and execution are split so that the asynchronous pipeline
// (async_io.h) can charge a batch at submission time — in submission
// order, with exactly the same round arithmetic — while deferring the
// actual backend transfers to its per-disk worker queues. When a pipeline
// is attached and enabled, read()/write() route through it so that every
// legacy synchronous call site still observes the pipeline's per-disk FIFO
// order (a read issued after a buffered write of the same block sees the
// new data).
#pragma once

#include <span>
#include <vector>

#include "pdm/disk_backend.h"
#include "pdm/io_stats.h"

namespace pdm {

class AsyncIoScheduler;

class IoScheduler {
 public:
  /// Longest span one coalesced request may cover (preadv/pwritev build at
  /// most this many iovecs; IOV_MAX is the OS bound).
  static constexpr u64 kMaxCoalesceBlocks = 1024;

  explicit IoScheduler(DiskBackend& backend, CostModel cost = {});

  /// Executes all reads; returns the number of parallel operations used.
  u64 read(std::span<const ReadReq> reqs);

  /// Executes all writes; returns the number of parallel operations used.
  u64 write(std::span<const WriteReq> reqs);

  /// Stats-only halves of read()/write(): charge the batch exactly as the
  /// synchronous path would (request hashes in submission order, rounds =
  /// max per-disk block load) without touching the backend, and leave the
  /// coalesced batch in last_coalesced_reads()/writes() (valid until the
  /// next account call). Used by the async pipeline; calling them and then
  /// executing the coalesced requests in any per-disk FIFO order yields
  /// byte- and stats-identical results.
  u64 account_read(std::span<const ReadReq> reqs);
  u64 account_write(std::span<const WriteReq> reqs);

  /// The coalesced form of the last account_read()/account_write() batch.
  std::span<const ReadReq> last_coalesced_reads() const { return co_reads_; }
  std::span<const WriteReq> last_coalesced_writes() const {
    return co_writes_;
  }

  IoStats& stats() noexcept { return stats_; }
  const IoStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_.reset(backend_->num_disks()); }

  const CostModel& cost() const noexcept { return cost_; }
  void set_cost(CostModel c) { cost_ = c; }

  DiskBackend& backend() noexcept { return *backend_; }

  /// Wires the asynchronous pipeline in front of this scheduler. Owned by
  /// PdmContext; read()/write() delegate to it while it is enabled.
  void attach_pipeline(AsyncIoScheduler* pipeline) { pipeline_ = pipeline; }
  AsyncIoScheduler* pipeline() const noexcept { return pipeline_; }

  /// Wires a shared aggregate: every accounting charge is mirrored into
  /// `totals` (thread-safely) at the same submission points, so a service
  /// holding one aggregate over many job schedulers sees per-job stats sum
  /// exactly to its totals. Not owned; must outlive this scheduler.
  void attach_totals(SharedIoTotals* totals) { totals_ = totals; }

 private:
  DiskBackend* backend_;
  CostModel cost_;
  IoStats stats_;
  AsyncIoScheduler* pipeline_ = nullptr;
  SharedIoTotals* totals_ = nullptr;
  std::vector<ReadReq> co_reads_;    // coalesced form of the last batch
  std::vector<WriteReq> co_writes_;
  u64 co_read_rounds_ = 0;   // rounds of the coalesced batch (execution)
  u64 co_write_rounds_ = 0;
};

}  // namespace pdm
