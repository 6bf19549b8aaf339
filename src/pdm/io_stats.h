// Parallel-I/O accounting: the figures of merit for every experiment.
//
// A "pass" over N records is N/(D*B) parallel reads plus N/(D*B) parallel
// writes (paper, §1). The scheduler counts every parallel operation and
// every block moved, so utilization (blocks per op / D) and pass counts are
// exact, not assumed.
#pragma once

#include <mutex>
#include <vector>

#include "util/common.h"

namespace pdm {

/// Cost model for simulated time: a parallel I/O costs one seek plus one
/// block transfer (disks work in parallel, so a round costs the max over
/// its members, which is this same constant).
struct CostModel {
  double seek_s = 0.004;           // average positioning time
  double bytes_per_s = 100.0e6;    // sustained transfer rate per disk

  double round_cost(usize block_bytes) const {
    return seek_s + static_cast<double>(block_bytes) / bytes_per_s;
  }
};

struct IoStats {
  u64 read_ops = 0;        // parallel read operations
  u64 write_ops = 0;       // parallel write operations
  u64 blocks_read = 0;
  u64 blocks_written = 0;
  // Physical-transfer accounting: backend requests actually issued after
  // extent coalescing — one per syscall on the file backend. The paper's
  // op counts above are block-granular and unaffected by coalescing, so
  // pass counts stay exact while calls shrink as transfers grow.
  u64 read_calls = 0;
  u64 write_calls = 0;
  double sim_time_s = 0.0;  // simulated elapsed time under CostModel
  std::vector<u64> disk_reads;   // blocks read per disk
  std::vector<u64> disk_writes;  // blocks written per disk
  std::vector<u64> disk_read_calls;   // coalesced requests per disk
  std::vector<u64> disk_write_calls;

  /// FNV-1a hash of the full I/O schedule (disk, index, r/w per request in
  /// order). Two runs of an oblivious algorithm on same-sized inputs must
  /// produce identical hashes; this is how the obliviousness tests work.
  u64 schedule_hash = 14695981039346656037ULL;

  void reset(u32 num_disks) {
    *this = IoStats{};
    disk_reads.assign(num_disks, 0);
    disk_writes.assign(num_disks, 0);
    disk_read_calls.assign(num_disks, 0);
    disk_write_calls.assign(num_disks, 0);
  }

  void hash_request(u32 disk, u64 index, bool is_write) {
    auto mix = [this](u64 v) {
      schedule_hash ^= v;
      schedule_hash *= 1099511628211ULL;
    };
    mix(disk);
    mix(index);
    mix(is_write ? 0x77 : 0x52);
  }

  u64 total_ops() const { return read_ops + write_ops; }
  u64 total_blocks() const { return blocks_read + blocks_written; }

  /// Pass count as defined in the paper: ops normalized by N/(D*B) reads
  /// plus the same number of writes.
  double passes(u64 n_records, u64 records_per_block, u32 num_disks) const {
    const double per_pass =
        static_cast<double>(n_records) /
        (static_cast<double>(records_per_block) * num_disks);
    return static_cast<double>(total_ops()) / (2.0 * per_pass);
  }

  double read_passes(u64 n, u64 rpb, u32 d) const {
    return static_cast<double>(read_ops) /
           (static_cast<double>(n) / (static_cast<double>(rpb) * d));
  }

  double write_passes(u64 n, u64 rpb, u32 d) const {
    return static_cast<double>(write_ops) /
           (static_cast<double>(n) / (static_cast<double>(rpb) * d));
  }

  /// Mean blocks moved per parallel op, in [1, D]: the disk utilization.
  double utilization() const {
    return total_ops() == 0
               ? 0.0
               : static_cast<double>(total_blocks()) /
                     static_cast<double>(total_ops());
  }

  u64 total_calls() const { return read_calls + write_calls; }

  /// Mean blocks moved per backend request (>= 1): how well the extent
  /// layer coalesced the logical block stream into physical transfers.
  /// 1.0 = block-at-a-time; PdmContext::kExtentBlocks is the ceiling.
  double coalesced_ratio() const {
    return total_calls() == 0
               ? 0.0
               : static_cast<double>(total_blocks()) /
                     static_cast<double>(total_calls());
  }

  /// Per-disk coalescing ratio (0 when the disk saw no requests).
  double coalesced_ratio(u32 disk) const {
    if (disk >= disk_read_calls.size()) return 0.0;
    const u64 calls = disk_read_calls[disk] + disk_write_calls[disk];
    const u64 blocks = disk_reads[disk] + disk_writes[disk];
    return calls == 0 ? 0.0
                      : static_cast<double>(blocks) /
                            static_cast<double>(calls);
  }
};

/// Difference of two snapshots (for per-phase reporting). Per-disk counts
/// are subtracted when both snapshots carry them.
inline IoStats delta(const IoStats& after, const IoStats& before) {
  IoStats d;
  d.read_ops = after.read_ops - before.read_ops;
  d.write_ops = after.write_ops - before.write_ops;
  d.blocks_read = after.blocks_read - before.blocks_read;
  d.blocks_written = after.blocks_written - before.blocks_written;
  d.read_calls = after.read_calls - before.read_calls;
  d.write_calls = after.write_calls - before.write_calls;
  d.sim_time_s = after.sim_time_s - before.sim_time_s;
  if (after.disk_reads.size() == before.disk_reads.size()) {
    d.disk_reads.resize(after.disk_reads.size());
    d.disk_writes.resize(after.disk_writes.size());
    for (usize i = 0; i < after.disk_reads.size(); ++i) {
      d.disk_reads[i] = after.disk_reads[i] - before.disk_reads[i];
      d.disk_writes[i] = after.disk_writes[i] - before.disk_writes[i];
    }
  }
  if (after.disk_read_calls.size() == before.disk_read_calls.size()) {
    d.disk_read_calls.resize(after.disk_read_calls.size());
    d.disk_write_calls.resize(after.disk_write_calls.size());
    for (usize i = 0; i < after.disk_read_calls.size(); ++i) {
      d.disk_read_calls[i] =
          after.disk_read_calls[i] - before.disk_read_calls[i];
      d.disk_write_calls[i] =
          after.disk_write_calls[i] - before.disk_write_calls[i];
    }
  }
  return d;
}

/// Thread-safe aggregate of accounting deltas from many IoSchedulers.
///
/// A sort service gives every job its own context (hence its own
/// IoScheduler and IoStats) and attaches one SharedIoTotals to all of
/// them, so the service-wide totals are maintained live, at the same
/// submission-time points as the per-job stats — per-job deltas sum
/// exactly to these totals. The order-sensitive schedule_hash is not
/// aggregated: interleaving across jobs is scheduler-dependent by design.
class SharedIoTotals {
 public:
  explicit SharedIoTotals(u32 num_disks = 0) { total_.reset(num_disks); }

  void reset(u32 num_disks) {
    std::lock_guard g(mu_);
    total_.reset(num_disks);
  }

  IoStats snapshot() const {
    std::lock_guard g(mu_);
    return total_;
  }

  /// Runs `fn(IoStats&)` under the lock; used by IoScheduler accounting.
  template <class Fn>
  void update(Fn&& fn) {
    std::lock_guard g(mu_);
    fn(total_);
  }

 private:
  mutable std::mutex mu_;
  IoStats total_;
};

}  // namespace pdm
