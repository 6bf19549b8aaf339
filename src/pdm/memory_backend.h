// In-memory disk array: the default backend for tests and model-level
// benches. Reads of never-written blocks throw, which catches allocator and
// layout bugs early.
//
// Thread-safe: a sort service shares one backend across concurrent job
// contexts, each with its own async pipeline workers, so transfers on the
// same disk can race. Each disk has its own mutex; the simulated latency
// sleep stays outside the locks so overlapping jobs overlap their delays
// (which is the whole point of measuring the service's throughput win).
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "pdm/disk_backend.h"

namespace pdm {

/// Locality-dependent service-time model. A real disk serves a
/// couple of sequential streams at full bandwidth — its cache is
/// segmented for a read stream here, a write stream there — but cycling
/// between more distant regions than that pays a positioning delay on
/// every alternation. Each disk keeps an LRU of `streams` recent
/// positions: a request within `window_blocks` of one of them is a
/// stream hit (seq_us) and advances that stream; anything else is a seek
/// (seek_us) and replaces the oldest stream. Service time is charged
/// against a per-disk busy-until clock, so a disk is a serial server:
/// concurrent jobs queue behind each other on shared disks, and the
/// seeks from interleaving several tenants' working regions show up as
/// real elapsed time. A sort job alone on a disk group needs ~2 streams
/// (its input region and its output frontier) and runs at seq_us; four
/// tenants cycling 4+ distant regions through a 2-stream cache thrash it
/// and run at seek_us. This is the contention that cluster sharding
/// removes (bench_e16); the flat set_simulated_latency_us model is
/// work-conserving by design and cannot show it.
///
/// Extent requests are priced as one positioning decision plus `count`
/// sequential transfers: the first block classifies against the stream
/// cache (seq_us or seek_us), the remaining count-1 blocks are charged
/// seq_us and counted as stream hits — so even under a thrashing cache,
/// extent-sized transfers amortize the seek over the whole span. This is
/// how the coalescing win shows up in the simulator (17.5x over
/// block-at-a-time I/O in BENCH_PR6.json).
struct StreamModel {
  u64 seq_us = 0;         // per-block service time on a stream hit
  u64 seek_us = 0;        // per-block service time on a stream miss
  u32 streams = 2;        // per-disk stream-cache capacity (LRU)
  u64 window_blocks = 8;  // |index - stream head| <= window => same stream

  bool enabled() const noexcept { return seq_us > 0 || seek_us > 0; }
};

class MemoryDiskBackend final : public DiskBackend {
 public:
  MemoryDiskBackend(u32 num_disks, usize block_bytes);

  u32 num_disks() const noexcept override { return num_disks_; }
  usize block_bytes() const noexcept override { return block_bytes_; }

  void read_batch(std::span<const ReadReq> reqs) override;
  void write_batch(std::span<const WriteReq> reqs) override;
  u64 disk_blocks(u32 disk) const override;

  /// Total bytes currently held across all disks (for reporting).
  usize resident_bytes() const;

  /// Simulated per-op latency: every read_batch/write_batch call sleeps
  /// this long, modelling one positioning delay per parallel-op visit to a
  /// disk. A synchronous pipeline pays it serially on the caller thread;
  /// the async pipeline overlaps it with computation and across disks —
  /// which is what bench_e13 measures. 0 (default) disables the sleep.
  /// Set before any concurrent use; the sleep itself is lock-free.
  void set_simulated_latency_us(u64 micros) { latency_us_ = micros; }
  u64 simulated_latency_us() const noexcept { return latency_us_; }

  /// Enables the locality-aware occupancy model above (replaces the flat
  /// per-op sleep while enabled). Set before any concurrent use.
  void set_stream_model(const StreamModel& m) { stream_ = m; }
  const StreamModel& stream_model() const noexcept { return stream_; }

  /// Stream-cache hits/misses under the stream model (for benches).
  u64 stream_hits() const;
  u64 stream_misses() const;

 private:
  // Per-disk simulator state, guarded by that disk's mutex.
  struct DiskSim {
    std::vector<u64> lru;   // stream head positions, front = most recent
    i64 busy_until_us = 0;  // serial-server clock, relative to epoch_
    u64 hits = 0;
    u64 misses = 0;
  };

  void simulate_latency() const;
  /// Classifies the extent [index, index+count) against disk `d`'s stream
  /// cache (first block decides seek vs hit, the rest stream sequentially)
  /// and advances its busy-until clock; returns the completion time.
  /// Caller holds the disk's mutex.
  i64 charge_stream_locked(u32 d, u64 index, u64 count);
  i64 now_us() const;
  void wait_until_us(i64 target) const;

  u32 num_disks_;
  usize block_bytes_;
  u64 latency_us_ = 0;
  StreamModel stream_{};
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<std::mutex[]> disk_mu_;
  std::vector<std::vector<std::byte>> disks_;
  std::vector<DiskSim> sims_;
};

}  // namespace pdm
