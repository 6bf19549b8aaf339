// IntegerSort (paper §7, Theorem 7.1): single-digit distribution sort for
// keys in [0, R) with R <= M/B buckets.
//
// Each phase reads M records, partitions them by value in memory, and
// writes every bucket's blocks in as few parallel write steps as possible.
// The final block of each bucket per phase is partial (zero padded); those
// pads are the (mu < 1) extra write fraction of Theorem 7.1. The optional
// placement pass (step A) rereads the buckets and writes the records
// contiguously — doubling the cost to 2(1+mu) passes, as the paper states.
//
// Extension (benched as an ablation in E8): "staged" mode keeps each
// bucket's partial block in memory across phases, eliminating nearly all
// pad blocks at the price of one extra M of staging memory.
#pragma once

#include <functional>
#include <vector>

#include "core/sort_report.h"
#include "internal/radix_partition.h"
#include "pdm/ragged_run.h"
#include "primitives/stream.h"

namespace pdm {

/// Streaming block-batched reader (striped or ragged source).
template <Record R>
class RecordReader {
 public:
  virtual ~RecordReader() = default;
  /// Reads up to max_records (whole blocks; compacting any padding);
  /// returns the number of valid records delivered.
  virtual usize read_up_to(R* dst, usize max_records) = 0;

  /// Asynchronous variant: stages the reads without blocking, stores the
  /// completion ticket in *ticket (0 = already done) and returns the
  /// record count dst will hold once finalize(dst) has been called after
  /// the ticket completes. Default: synchronous read, nothing to finalize.
  virtual usize read_up_to_async(R* dst, usize max_records, IoTicket* ticket) {
    *ticket = 0;
    return read_up_to(dst, max_records);
  }

  /// Post-completion fixup for a buffer staged by read_up_to_async (e.g.
  /// compaction of ragged blocks). Must be called after the ticket
  /// completes and before the data is consumed. Default: no-op.
  virtual void finalize(R* dst) { (void)dst; }

  virtual bool exhausted() const = 0;
  virtual u64 total() const = 0;
};

template <Record R>
class StripedRunReader final : public RecordReader<R> {
 public:
  explicit StripedRunReader(const StripedRun<R>& run) : run_(&run) {}

  usize read_up_to(R* dst, usize max_records) override {
    IoTicket t = 0;
    const usize valid = read_up_to_async(dst, max_records, &t);
    run_->ctx().aio().wait(t);
    return valid;
  }

  usize read_up_to_async(R* dst, usize max_records,
                         IoTicket* ticket) override {
    const usize rpb = run_->rpb();
    const u64 nb = std::min<u64>(max_records / rpb,
                                 run_->num_blocks() - next_block_);
    *ticket = 0;
    if (nb == 0) return 0;
    *ticket = run_->read_blocks_async(next_block_, nb, dst);
    usize valid = 0;
    for (u64 b = 0; b < nb; ++b) {
      valid += run_->records_in_block(next_block_ + b);
    }
    next_block_ += nb;
    return valid;  // only the final block can be partial, pad is at the end
  }

  bool exhausted() const override { return next_block_ >= run_->num_blocks(); }
  u64 total() const override { return run_->size(); }

 private:
  const StripedRun<R>* run_;
  u64 next_block_ = 0;
};

template <Record R>
class RaggedRunReader final : public RecordReader<R> {
 public:
  explicit RaggedRunReader(const RaggedRun<R>& run) : run_(&run) {}

  usize read_up_to(R* dst, usize max_records) override {
    const usize rpb = run_->rpb();
    const u64 nb = std::min<u64>(max_records / rpb,
                                 run_->num_segments() - next_seg_);
    if (nb == 0) return 0;
    const usize valid = run_->read_segments(next_seg_, nb, dst);
    next_seg_ += nb;
    return valid;
  }

  usize read_up_to_async(R* dst, usize max_records,
                         IoTicket* ticket) override {
    const usize rpb = run_->rpb();
    const u64 nb = std::min<u64>(max_records / rpb,
                                 run_->num_segments() - next_seg_);
    *ticket = 0;
    if (nb == 0) return 0;
    *ticket = run_->read_segments_async(next_seg_, nb, dst);
    pending_.push_back(Pending{dst, next_seg_, nb});
    const usize valid = run_->valid_in_segments(next_seg_, nb);
    next_seg_ += nb;
    return valid;
  }

  void finalize(R* dst) override {
    for (usize i = 0; i < pending_.size(); ++i) {
      if (pending_[i].dst == dst) {
        run_->compact_segments(pending_[i].first, pending_[i].count, dst);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    PDM_ASSERT(false, "finalize for a buffer with no staged ragged read");
  }

  bool exhausted() const override {
    return next_seg_ >= run_->num_segments();
  }
  u64 total() const override { return run_->size(); }

 private:
  struct Pending {
    R* dst;
    u64 first;
    u64 count;
  };

  const RaggedRun<R>* run_;
  u64 next_seg_ = 0;
  std::vector<Pending> pending_;
};

/// Bucket block placement policy. kRotation keeps each bucket's blocks on
/// consecutive disks (sequential reads of one bucket hit all disks — the
/// striping of [23]); kBalancedBatch balances every phase's write batch
/// perfectly instead, at the price of scattered reads. bench_e8 ablates
/// the two; rotation wins overall because every distribution round's
/// output is reread by the next round.
enum class BucketPlacement { kRotation, kBalancedBatch };

template <Record R>
struct DistributeOutcome {
  std::vector<RaggedRun<R>> buckets;
  u64 data_blocks = 0;  // ceil-free count of blocks that carry data
  u64 pad_records = 0;  // padding written (the mu overhead, in records)
  u64 phases = 0;
};

/// One distribution pass: reads the input in M-record phases and appends
/// each record to bucket digit_fn(record) (must be < num_buckets). All of
/// a phase's blocks are written in one batched parallel operation.
template <Record R, class DigitFn>
DistributeOutcome<R> distribute_pass(
    PdmContext& ctx, RecordReader<R>& in, u32 num_buckets, u64 mem_records,
    bool staged, DigitFn digit_fn,
    BucketPlacement placement = BucketPlacement::kRotation) {
  const usize rpb = ctx.rpb<R>();
  PDM_CHECK(num_buckets > 0 && static_cast<u64>(num_buckets) * rpb <=
                                    mem_records,
            "bucket staging exceeds M (need R <= M/B)");
  const u64 load_sz =
      staged ? std::max<u64>(rpb, round_down(mem_records / 2, rpb))
             : round_down(mem_records, rpb);
  trace::TraceSpan trace_span("pass", "distribute_pass", "buckets",
                              num_buckets);

  DistributeOutcome<R> out;
  out.buckets.reserve(num_buckets);
  for (u32 i = 0; i < num_buckets; ++i) {
    out.buckets.emplace_back(ctx, i % ctx.D());
  }

  TrackedBuffer<R> load(ctx.budget(), static_cast<usize>(load_sz));
  // Double-buffered input when the async pipeline is on: the next phase's
  // load streams in while this phase partitions and scatters.
  const bool async = ctx.aio().enabled();
  TrackedBuffer<R> load2;
  if (async) load2 = TrackedBuffer<R>(ctx.budget(), load.size());
  // Only used by kBalancedBatch: rotates across each phase's whole batch.
  u64 disk_cursor = 0;
  TrackedBuffer<R> grouped(ctx.budget(), static_cast<usize>(load_sz));
  // Per-bucket one-block staging: pad assembly (paper mode) or carry-over
  // (staged mode).
  TrackedBuffer<R> staging(ctx.budget(),
                           static_cast<usize>(num_buckets) * rpb);
  std::vector<usize> staged_cnt(num_buckets, 0);
  std::vector<u64> counts(num_buckets);
  std::vector<u64> bounds(num_buckets + 1);
  // After every buffer an in-flight read could target.
  PipelineDrainGuard drain_guard(ctx.aio());

  auto stage = [&](RaggedRun<R>& bucket, const R* buf, usize count) {
    if (placement == BucketPlacement::kBalancedBatch) {
      return bucket.stage_block_on(static_cast<u32>(disk_cursor++), buf,
                                   count);
    }
    return bucket.stage_block(buf, count);
  };

  auto flush_phase = [&](std::span<const R> recs) {
    ctx.check_cancelled();
    // Group in memory: the stable counting partition runs across the
    // kernel budget when granted (>= 2), byte-identically to the serial
    // count + cursor scatter it replaces. The write batch below is built
    // from `grouped`/`counts` alone, so its request order is untouched.
    partition_stable(recs, grouped.span(), num_buckets, digit_fn,
                     ctx.cpu_pool(), std::span<u64>(counts));
    bounds[0] = 0;
    for (u32 i = 0; i < num_buckets; ++i) bounds[i + 1] = bounds[i] + counts[i];
    // Emit: one batched parallel write for the whole phase.
    std::vector<WriteReq> reqs;
    for (u32 i = 0; i < num_buckets; ++i) {
      const R* g = grouped.data() + bounds[i];
      u64 cnt = counts[i];
      R* carry = staging.data() + static_cast<usize>(i) * rpb;
      if (staged) {
        // Top up the carried partial block first.
        if (staged_cnt[i] > 0) {
          const usize take =
              std::min<u64>(rpb - staged_cnt[i], cnt);
          std::copy(g, g + take, carry + staged_cnt[i]);
          staged_cnt[i] += take;
          g += take;
          cnt -= take;
          if (staged_cnt[i] == rpb) {
            reqs.push_back(stage(out.buckets[i], carry, rpb));
            ++out.data_blocks;
            staged_cnt[i] = 0;
          } else {
            continue;  // still partial; nothing else to write
          }
        }
        const u64 full = cnt / rpb;
        for (u64 b = 0; b < full; ++b) {
          reqs.push_back(stage(out.buckets[i], g + b * rpb, rpb));
          ++out.data_blocks;
        }
        const u64 rest = cnt - full * rpb;
        if (rest > 0) {
          std::copy(g + full * rpb, g + cnt, carry);
          staged_cnt[i] = static_cast<usize>(rest);
        }
      } else {
        // Paper mode: ceil(cnt/B) blocks, last one zero padded.
        const u64 full = cnt / rpb;
        for (u64 b = 0; b < full; ++b) {
          reqs.push_back(stage(out.buckets[i], g + b * rpb, rpb));
          ++out.data_blocks;
        }
        const u64 rest = cnt - full * rpb;
        if (rest > 0) {
          std::copy(g + full * rpb, g + cnt, carry);
          std::fill(carry + rest, carry + rpb, R{});
          reqs.push_back(
              stage(out.buckets[i], carry, static_cast<usize>(rest)));
          ++out.data_blocks;
          out.pad_records += rpb - rest;
        }
      }
    }
    ctx.write_batch(reqs);
    ++out.phases;
  };

  if (async) {
    // Ping-pong: issue the next load before partitioning the current one.
    R* bufs[2] = {load.data(), load2.data()};
    IoTicket tickets[2] = {0, 0};
    usize cur = 0;
    usize got = in.exhausted()
                    ? usize{0}
                    : in.read_up_to_async(bufs[0], static_cast<usize>(load_sz),
                                          &tickets[0]);
    while (got > 0) {
      const usize next = cur ^ 1;
      const usize next_got =
          in.exhausted() ? usize{0}
                         : in.read_up_to_async(
                               bufs[next], static_cast<usize>(load_sz),
                               &tickets[next]);
      ctx.aio().wait(tickets[cur]);
      in.finalize(bufs[cur]);
      flush_phase(std::span<const R>(bufs[cur], got));
      cur = next;
      got = next_got;
    }
  } else {
    while (!in.exhausted()) {
      const usize got =
          in.read_up_to(load.data(), static_cast<usize>(load_sz));
      if (got == 0) break;
      flush_phase(std::span<const R>(load.data(), got));
    }
  }

  if (staged) {
    // Final flush of the carried partial blocks (zero padded).
    std::vector<WriteReq> reqs;
    for (u32 i = 0; i < num_buckets; ++i) {
      if (staged_cnt[i] == 0) continue;
      R* carry = staging.data() + static_cast<usize>(i) * rpb;
      std::fill(carry + staged_cnt[i], carry + rpb, R{});
      reqs.push_back(stage(out.buckets[i], carry, staged_cnt[i]));
      ++out.data_blocks;
      out.pad_records += rpb - staged_cnt[i];
      staged_cnt[i] = 0;
    }
    ctx.write_batch(reqs);
  }
  return out;
}

struct IntegerSortOptions {
  u64 mem_records = 0;
  u64 range = 0;            // keys are in [0, range); range <= M/B
  bool placement_pass = true;  // paper's step A
  bool staged = false;         // extension: carry partial blocks in memory
  BucketPlacement placement = BucketPlacement::kRotation;
};

template <Record R>
struct IntegerSortResult {
  StripedRun<R> output;                 // only if placement_pass
  std::vector<RaggedRun<R>> buckets;    // the per-value runs
  SortReport report;
  u64 pad_records = 0;
};

/// Theorem 7.1. Records must have keys (via KeyTraits) in [0, range).
template <Record R>
IntegerSortResult<R> integer_sort(PdmContext& ctx, const StripedRun<R>& input,
                                  const IntegerSortOptions& opt) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  PDM_CHECK(opt.range > 0 && opt.range * rpb <= mem,
            "IntegerSort needs range <= M/B");
  ReportBuilder rb(ctx, "IntegerSort", input.size(), mem, rpb);

  IntegerSortResult<R> result;
  StripedRunReader<R> reader(input);
  auto dist = distribute_pass<R>(
      ctx, reader, static_cast<u32>(opt.range), mem, opt.staged,
      [range = opt.range](const R& r) {
        const u64 k = record_key(r);
        PDM_CHECK(k < range, "key out of declared range");
        return static_cast<usize>(k);
      },
      opt.placement);
  result.pad_records = dist.pad_records;

  if (opt.placement_pass) {
    // Step A: reread the buckets in order, write contiguously.
    result.output = StripedRun<R>(ctx, 0);
    TrackedBuffer<R> buf(ctx.budget(), static_cast<usize>(round_down(mem, rpb)));
    for (auto& bucket : dist.buckets) {
      RaggedRunReader<R> br(bucket);
      while (!br.exhausted()) {
        const usize got = br.read_up_to(buf.data(), buf.size());
        if (got == 0) break;
        result.output.append(std::span<const R>(buf.data(), got));
      }
    }
    result.output.finish();
    PDM_ASSERT(result.output.size() == input.size(),
               "IntegerSort record count mismatch");
  }
  result.buckets = std::move(dist.buckets);
  result.report = rb.finish();
  return result;
}

}  // namespace pdm
