#include "pdm/io_scheduler.h"

#include <functional>
#include <type_traits>
#include <vector>

#include "pdm/async_io.h"

namespace pdm {

IoScheduler::IoScheduler(DiskBackend& backend, CostModel cost)
    : backend_(&backend), cost_(cost) {
  stats_.reset(backend_->num_disks());
}

namespace {

template <class Req>
auto req_buf(const Req& r) {
  if constexpr (std::is_same_v<Req, ReadReq>) {
    return r.dst;
  } else {
    return r.src;
  }
}

template <class Req>
i64 req_stride(const Req& r, usize block_bytes) {
  return r.stride_or(block_bytes);
}

template <class Req>
void set_stride(Req& r, i64 stride) {
  if constexpr (std::is_same_v<Req, ReadReq>) {
    r.dst_stride_bytes = stride;
  } else {
    r.src_stride_bytes = stride;
  }
}

// Merges adjacent same-disk requests with physically contiguous block
// indices and a uniform buffer stride into multi-block extent requests.
// Per-disk submission order is preserved (merging only ever fuses a
// request into the *latest* open request of its disk, and an intervening
// non-adjacent request on that disk closes the chain), so executing the
// coalesced batch through any per-disk FIFO is equivalent to executing
// the raw one.
template <class Req>
void coalesce_batch(std::span<const Req> reqs, usize block_bytes,
                    u32 num_disks, std::vector<Req>& out) {
  out.clear();
  out.reserve(reqs.size());
  static thread_local std::vector<i64> open;  // per-disk index into out
  open.assign(num_disks, -1);
  for (const Req& r : reqs) {
    const u32 d = r.where.disk;
    if (open[d] >= 0) {
      Req& o = out[static_cast<usize>(open[d])];
      if (o.where.index + o.count == r.where.index &&
          o.count + r.count <= IoScheduler::kMaxCoalesceBlocks) {
        // The merged request's uniform buffer stride: declared by either
        // multi-block side, else inferred from the pair's buffer gap
        // (a striped run's load buffer gives D * block_bytes here).
        i64 stride;
        if (o.count > 1) {
          stride = req_stride(o, block_bytes);
        } else if (r.count > 1) {
          stride = req_stride(r, block_bytes);
        } else {
          stride = req_buf(r) - req_buf(o);
        }
        const bool adjacent =
            stride != 0 &&
            req_buf(r) == req_buf(o) + static_cast<i64>(o.count) * stride &&
            (o.count == 1 || req_stride(o, block_bytes) == stride) &&
            (r.count == 1 || req_stride(r, block_bytes) == stride);
        if (adjacent) {
          o.count += r.count;
          set_stride(o, stride);
          continue;
        }
      }
    }
    open[d] = static_cast<i64>(out.size());
    out.push_back(r);
  }
}

// Builds per-disk FIFO queues and executes round t = the t-th request of
// every non-empty queue, until all queues drain. Returns the round count.
template <class Req>
u64 run_rounds(std::span<const Req> reqs, u32 num_disks,
               const std::function<void(std::span<const Req>)>& exec) {
  static thread_local std::vector<Req> round_buf;
  static thread_local std::vector<std::vector<u32>> queues;
  if (queues.size() < num_disks) queues.resize(num_disks);
  for (auto& q : queues) q.clear();
  for (usize i = 0; i < reqs.size(); ++i) {
    queues[reqs[i].where.disk].push_back(static_cast<u32>(i));
  }
  u64 rounds = 0;
  for (usize t = 0;; ++t) {
    round_buf.clear();
    for (u32 d = 0; d < num_disks; ++d) {
      if (t < queues[d].size()) round_buf.push_back(reqs[queues[d][t]]);
    }
    if (round_buf.empty()) break;
    exec(std::span<const Req>(round_buf));
    ++rounds;
  }
  return rounds;
}

// Paper ops of a batch without executing it: the longest per-disk queue in
// *blocks* (one parallel op moves at most one block per disk, so a c-block
// extent request still costs c ops' worth of load on its disk).
template <class Req>
u64 count_block_rounds(std::span<const Req> reqs, u32 num_disks) {
  static thread_local std::vector<u64> load;
  load.assign(num_disks, 0);
  u64 rounds = 0;
  for (const auto& r : reqs) {
    load[r.where.disk] += r.count;
    rounds = std::max(rounds, load[r.where.disk]);
  }
  return rounds;
}

// Rounds of the coalesced batch in *requests* per disk: what run_rounds
// will execute. Must agree with run_rounds above.
template <class Req>
u64 count_req_rounds(std::span<const Req> reqs, u32 num_disks) {
  static thread_local std::vector<u64> load;
  load.assign(num_disks, 0);
  u64 rounds = 0;
  for (const auto& r : reqs) {
    rounds = std::max(rounds, ++load[r.where.disk]);
  }
  return rounds;
}

}  // namespace

u64 IoScheduler::account_read(std::span<const ReadReq> reqs) {
  if (reqs.empty()) {
    co_reads_.clear();
    co_read_rounds_ = 0;
    return 0;
  }
  u64 blocks = 0;
  for (const auto& r : reqs) {
    PDM_CHECK(r.where.disk < backend_->num_disks(), "read: bad disk");
    PDM_CHECK(r.count > 0, "read: empty request");
    blocks += r.count;
    for (u64 b = 0; b < r.count; ++b) {
      stats_.hash_request(r.where.disk, r.where.index + b, /*is_write=*/false);
    }
    stats_.disk_reads[r.where.disk] += r.count;
  }
  const u64 rounds = count_block_rounds<ReadReq>(reqs, backend_->num_disks());
  const double sim = static_cast<double>(rounds) *
                     cost_.round_cost(backend_->block_bytes());
  stats_.read_ops += rounds;
  stats_.blocks_read += blocks;
  stats_.sim_time_s += sim;
  coalesce_batch<ReadReq>(reqs, backend_->block_bytes(), backend_->num_disks(),
                          co_reads_);
  co_read_rounds_ = count_req_rounds<ReadReq>(co_reads_, backend_->num_disks());
  stats_.read_calls += co_reads_.size();
  for (const auto& c : co_reads_) ++stats_.disk_read_calls[c.where.disk];
  if (totals_ != nullptr) {
    const usize nd = backend_->num_disks();
    const usize calls = co_reads_.size();
    totals_->update([&](IoStats& t) {
      if (t.disk_reads.size() < nd) {  // default-constructed aggregate
        t.disk_reads.resize(nd, 0);
        t.disk_writes.resize(nd, 0);
      }
      if (t.disk_read_calls.size() < nd) {
        t.disk_read_calls.resize(nd, 0);
        t.disk_write_calls.resize(nd, 0);
      }
      t.read_ops += rounds;
      t.blocks_read += blocks;
      t.read_calls += calls;
      t.sim_time_s += sim;
      for (const auto& r : reqs) t.disk_reads[r.where.disk] += r.count;
      for (const auto& c : co_reads_) ++t.disk_read_calls[c.where.disk];
    });
  }
  return rounds;
}

u64 IoScheduler::account_write(std::span<const WriteReq> reqs) {
  if (reqs.empty()) {
    co_writes_.clear();
    co_write_rounds_ = 0;
    return 0;
  }
  u64 blocks = 0;
  for (const auto& w : reqs) {
    PDM_CHECK(w.where.disk < backend_->num_disks(), "write: bad disk");
    PDM_CHECK(w.count > 0, "write: empty request");
    blocks += w.count;
    for (u64 b = 0; b < w.count; ++b) {
      stats_.hash_request(w.where.disk, w.where.index + b, /*is_write=*/true);
    }
    stats_.disk_writes[w.where.disk] += w.count;
  }
  const u64 rounds = count_block_rounds<WriteReq>(reqs, backend_->num_disks());
  const double sim = static_cast<double>(rounds) *
                     cost_.round_cost(backend_->block_bytes());
  stats_.write_ops += rounds;
  stats_.blocks_written += blocks;
  stats_.sim_time_s += sim;
  coalesce_batch<WriteReq>(reqs, backend_->block_bytes(),
                           backend_->num_disks(), co_writes_);
  co_write_rounds_ =
      count_req_rounds<WriteReq>(co_writes_, backend_->num_disks());
  stats_.write_calls += co_writes_.size();
  for (const auto& c : co_writes_) ++stats_.disk_write_calls[c.where.disk];
  if (totals_ != nullptr) {
    const usize nd = backend_->num_disks();
    const usize calls = co_writes_.size();
    totals_->update([&](IoStats& t) {
      if (t.disk_writes.size() < nd) {  // default-constructed aggregate
        t.disk_reads.resize(nd, 0);
        t.disk_writes.resize(nd, 0);
      }
      if (t.disk_write_calls.size() < nd) {
        t.disk_read_calls.resize(nd, 0);
        t.disk_write_calls.resize(nd, 0);
      }
      t.write_ops += rounds;
      t.blocks_written += blocks;
      t.write_calls += calls;
      t.sim_time_s += sim;
      for (const auto& w : reqs) t.disk_writes[w.where.disk] += w.count;
      for (const auto& c : co_writes_) ++t.disk_write_calls[c.where.disk];
    });
  }
  return rounds;
}

u64 IoScheduler::read(std::span<const ReadReq> reqs) {
  if (reqs.empty()) return 0;
  if (pipeline_ != nullptr && pipeline_->enabled()) {
    return pipeline_->read(reqs);
  }
  const u64 rounds = account_read(reqs);
  const u64 executed = run_rounds<ReadReq>(
      co_reads_, backend_->num_disks(),
      [this](std::span<const ReadReq> round) { backend_->read_batch(round); });
  PDM_ASSERT(executed == co_read_rounds_, "round accounting mismatch");
  return rounds;
}

u64 IoScheduler::write(std::span<const WriteReq> reqs) {
  if (reqs.empty()) return 0;
  if (pipeline_ != nullptr && pipeline_->enabled()) {
    return pipeline_->write(reqs);
  }
  const u64 rounds = account_write(reqs);
  const u64 executed = run_rounds<WriteReq>(
      co_writes_, backend_->num_disks(),
      [this](std::span<const WriteReq> round) { backend_->write_batch(round); });
  PDM_ASSERT(executed == co_write_rounds_, "round accounting mismatch");
  return rounds;
}

}  // namespace pdm
