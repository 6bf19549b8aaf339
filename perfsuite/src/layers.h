// Per-layer measurements for one sort shape, taken from outside each
// layer: ceiling probes on the shape's own disk array and distribution,
// and a phase replay that calls the planner's algorithm step by step
// through the public primitives and checks it against pdm_sort.
#pragma once

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "pdm/file_backend.h"
#include "primitives/cleanup.h"
#include "primitives/lmm_merge.h"
#include "primitives/multiway.h"
#include "primitives/run_formation.h"
#include "support.h"
#include "util/generators.h"

namespace suite {

/// One sort job's geometry and input: D files of `block_bytes` blocks,
/// M = `mem` records of memory, N = `n` u64 records from `dist`.
struct Shape {
  u32 disks;
  usize block_bytes;
  u64 mem;
  u64 n;
  pdm::Dist dist;
  bool probe;  // the planner probes presortedness first
  usize cpu;   // in-core kernel budget (threads)

  double mbytes() const { return static_cast<double>(n * sizeof(u64)) / 1e6; }
};

inline std::vector<u64> make_input(const Shape& s, u64 seed) {
  pdm::Rng rng(seed);
  return pdm::make_keys(static_cast<usize>(s.n), s.dist, rng);
}

/// The shape's disk array: D files, created once per run.
inline std::shared_ptr<pdm::DiskBackend> open_array(const Shape& s,
                                                    const std::string& dir) {
  return std::make_shared<pdm::FileDiskBackend>(s.disks, s.block_bytes, dir);
}

/// A fresh context with its own block allocator over the array: no rep
/// inherits another's layout, and a rep's set-up does not create files,
/// whose cost tracks the filesystem's state more than this program.
struct RepContext {
  pdm::DiskAllocator alloc;
  pdm::PdmContext ctx;  // after alloc, which it allocates from

  RepContext(const Shape& s, std::shared_ptr<pdm::DiskBackend> array)
      : alloc(s.disks),
        ctx(std::move(array), alloc, std::numeric_limits<usize>::max()) {
    ctx.set_cpu_budget(s.cpu);
  }
};

struct SortRep {
  double setup_s = 0;  // context creation + write_input_run + drain
  double sort_s = 0;   // the pdm_sort call
  pdm::SortReport report;
  std::string error;  // empty when the output verified
};

/// One pdm_sort of the input on a fresh, freshly staged context, as a
/// user of the library runs it, with its output verified afterwards.
inline SortRep sort_rep(const Shape& s, const std::vector<u64>& keys,
                        const Fingerprint& fp,
                        const std::shared_ptr<pdm::DiskBackend>& array,
                        SpanLog& log, u64 id) {
  const auto a = Clock::now();
  RepContext rc(s, array);
  const auto in = pdm::write_input_run<u64>(rc.ctx, keys);
  rc.ctx.aio().drain();
  const auto b = Clock::now();
  pdm::AdaptiveOptions opt;
  opt.mem_records = s.mem;
  opt.probe = s.probe;
  const auto out = pdm::pdm_sort<u64>(rc.ctx, in, opt);
  const auto c = Clock::now();
  log.add("pdm.stage", id, a, b);
  log.add("core.pdm_sort", id, b, c);
  return SortRep{seconds_between(a, b), seconds_between(b, c), out.report,
                 verify_sorted_permutation(out.output, fp)};
}

// --- ceilings -----------------------------------------------------------

struct Ceilings {
  double backend_write_mbps = 0;
  double backend_read_mbps = 0;
  double memcpy_mbps = 0;
  double sort_mbps_1 = 0;
  double sort_mbps_n = 0;
};

/// What each layer could at best deliver on this shape: D-wide batches of
/// 32-block extents straight to its array, memcpy of M records, and the
/// in-core sort of M records of the input at budget 1 and at 4.
inline Ceilings measure_ceilings(const Shape& s, const std::vector<u64>& keys,
                                 pdm::DiskBackend& backend, SpanLog& log) {
  Ceilings c;
  constexpr u64 kExtent = 32;
  {
    const usize batch_bytes = s.disks * kExtent * s.block_bytes;
    const u64 batches = std::max<u64>(
        1, std::min<u64>(s.n * sizeof(u64), u64{64} << 20) / batch_bytes);
    std::vector<std::byte> buf(batch_bytes);
    std::memcpy(buf.data(), keys.data(),
                std::min(buf.size(), keys.size() * sizeof(u64)));
    std::vector<pdm::WriteReq> writes(s.disks);
    std::vector<pdm::ReadReq> reads(s.disks);
    // Batch b moves blocks [32b, 32b + 32) of every disk, one extent each.
    auto transfer = [&](auto& reqs, auto&& submit) {
      for (u64 b = 0; b < batches; ++b) {
        for (u32 d = 0; d < s.disks; ++d) {
          reqs[d] = {{d, b * kExtent},
                     buf.data() + d * kExtent * s.block_bytes,
                     kExtent};
        }
        submit(reqs);
      }
    };
    const double mb = static_cast<double>(batches * batch_bytes) / 1e6;
    std::vector<double> w_s, r_s;
    for (int round = 0; round < 3; ++round) {
      w_s.push_back(timed(log, "pdm.backend_write", 0, [&] {
        transfer(writes, [&](const auto& r) { backend.write_batch(r); });
      }));
      r_s.push_back(timed(log, "pdm.backend_read", 0, [&] {
        transfer(reads, [&](const auto& r) { backend.read_batch(r); });
      }));
    }
    c.backend_write_mbps = mb / median(w_s);
    c.backend_read_mbps = mb / median(r_s);
  }

  const usize m = static_cast<usize>(std::min<u64>(s.mem, keys.size()));
  const double m_mb = static_cast<double>(m * sizeof(u64)) / 1e6;
  std::vector<u64> work(m), scratch(m);
  {
    std::vector<double> cp_s;
    for (int rep = 0; rep < 9; ++rep) {
      cp_s.push_back(timed(log, "internal.memcpy", 0, [&] {
        std::memcpy(work.data(), keys.data(), m * sizeof(u64));
      }));
    }
    c.memcpy_mbps = m_mb / median(cp_s);
  }
  for (const usize budget : {usize{1}, usize{4}}) {
    pdm::CpuPool pool(budget);
    std::vector<double> sort_s;
    for (int rep = 0; rep < 3; ++rep) {
      std::copy(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(m),
                work.begin());
      sort_s.push_back(timed(log, "internal.sort", budget, [&] {
        pdm::internal_sort_budgeted(std::span<u64>(work), std::less<u64>{},
                                    pool, std::span<u64>(scratch));
      }));
    }
    (budget == 1 ? c.sort_mbps_1 : c.sort_mbps_n) = m_mb / median(sort_s);
  }
  return c;
}

// --- phase replay -------------------------------------------------------

struct Replay {
  double wall_s = 0;  // what pdm_sort's wall covers: probe only if it probes
  double probe_s = 0;
  u64 est_runs = 0;
  double plan_passes = 0;
  double formation_s = 0;
  double finish_s = 0;  // cleanup (ExpectedTwoPass) or merge levels
  u64 runs = 0;
  pdm::IoStats io;  // formation + finish, as SortReport::io counts it
  pdm::StripedRun<u64> output;
};

/// Runs the algorithm pdm_sort would pick for `in`, phase by phase, on a
/// context staged exactly like pdm_sort's. The presortedness probe is
/// always timed (it is the core layer's cost on this input) but only feeds
/// the planner when the shape probes, as pdm_sort does.
inline Replay replay_sort(pdm::PdmContext& ctx,
                          const pdm::StripedRun<u64>& in, const Shape& s,
                          SpanLog& log, u64 id) {
  using namespace pdm;
  Replay r;
  const usize rpb = ctx.rpb<u64>();
  const auto t_probe = Clock::now();
  r.probe_s = timed(log, "core.probe", id, [&] {
    r.est_runs = probe_presortedness<u64>(ctx, in, s.mem).est_runs;
  });
  const auto t_plan = Clock::now();
  const PlanEntry plan = choose_plan(in.size(), s.mem, rpb, 1.0,
                                     s.probe ? r.est_runs : 0);
  r.plan_passes = plan.expected_passes;

  if (plan.algo != Algo::kExpectedTwoPass &&
      plan.algo != Algo::kOrderAdaptive) {
    throw Error(std::string("phase replay covers ExpectedTwoPass and "
                            "OrderAdaptive; the planner chose ") +
                algo_name(plan.algo));
  }

  const IoStats before = ctx.stats();
  RunFormationOptions fopt;
  fopt.run_len = s.mem;
  if (plan.algo == Algo::kOrderAdaptive) {
    fopt.mode = RunFormationMode::kReplacementSelection;
  }
  std::vector<StripedRun<u64>> runs;
  r.formation_s = timed(log, "primitives.run_formation", id,
                        [&] { runs = form_runs_flat<u64>(ctx, in, fopt); });
  r.runs = runs.size();
  if (plan.algo == Algo::kExpectedTwoPass) {
    r.finish_s = timed(log, "primitives.cleanup", id, [&] {
      const std::span<const StripedRun<u64>> rs(runs.data(), runs.size());
      bool ok = false;
      {
        StripedRun<u64> attempt(ctx, 0);
        RunSink<u64> sink(attempt);
        const u64 chunk = round_down(s.mem, runs.size() * rpb);
        ShuffleChunkSource<u64> source(ctx, rs, chunk);
        CleanupOptions copt;
        copt.chunk_records = chunk;
        copt.abort_on_violation = true;
        ok = streamed_cleanup<u64>(ctx, source, sink, copt).ok;
        if (ok) r.output = std::move(attempt);
      }
      if (!ok) {  // the same +3-pass fallback pdm_sort takes
        r.output = StripedRun<u64>(ctx, 0);
        RunSink<u64> sink(r.output);
        LmmOptions lopt;
        lopt.mem_records = s.mem;
        lmm_merge<u64>(ctx, rs, sink, lopt);
      }
      ctx.aio().drain();
    });
  } else {
    r.finish_s = timed(log, "primitives.merge", id, [&] {
      const u64 fan = order_adaptive_fan_in(s.mem, rpb, ctx.D());
      while (runs.size() > 1) {
        std::vector<StripedRun<u64>> next;
        for (usize g = 0; g < runs.size(); g += fan) {
          const usize cnt = std::min<usize>(fan, runs.size() - g);
          StripedRun<u64> merged(ctx, static_cast<u32>(g % ctx.D()));
          RunSink<u64> sink(merged);
          MergePassOptions mopt;
          mopt.mem_records = s.mem;
          multiway_merge_pass<u64>(
              ctx, std::span<const StripedRun<u64>>(runs.data() + g, cnt),
              sink, mopt);
          next.push_back(std::move(merged));
        }
        runs = std::move(next);
      }
      r.output = std::move(runs[0]);
      ctx.aio().drain();
    });
  }
  r.io = delta(ctx.stats(), before);
  r.wall_s = seconds_between(s.probe ? t_probe : t_plan, Clock::now());
  return r;
}

/// Empty when the replay moved exactly the I/O pdm_sort moved (ops,
/// blocks, backend calls) and produced as many records; else what differs.
inline std::string replay_mismatch(const Replay& r,
                                   const pdm::SortReport& rep) {
  const pdm::IoStats& a = r.io;
  const pdm::IoStats& b = rep.io;
  if (a.read_ops != b.read_ops || a.write_ops != b.write_ops) {
    return "phase replay differs from pdm_sort in parallel ops";
  }
  if (a.blocks_read != b.blocks_read || a.blocks_written != b.blocks_written) {
    return "phase replay differs from pdm_sort in blocks";
  }
  if (a.read_calls != b.read_calls || a.write_calls != b.write_calls) {
    return "phase replay differs from pdm_sort in backend calls";
  }
  if (r.output.size() != rep.n) {
    return "phase replay differs from pdm_sort in output records";
  }
  return {};
}

/// Median walls of the two sorts the traced run compares.
struct LayerWalls {
  double sort_s = 0;    // untraced pdm_sort
  double replay_s = 0;  // the traced phase replay
};

/// The pdm, internal, primitives and core metrics of one shape. Each rep
/// stages the input twice on fresh contexts: once for an untraced
/// pdm_sort, once for the traced phase replay, which must move exactly the
/// same I/O. Reps repeat until `seconds` pass (at least two).
inline LayerWalls measure_layers(const Shape& s, const std::vector<u64>& keys,
                                 const Fingerprint& fp, double seconds,
                                 const std::string& dir, SpanLog& log,
                                 Result& res) {
  const auto array = open_array(s, dir);
  const Ceilings c = measure_ceilings(s, keys, *array, log);
  std::vector<double> stage_s, read_s, sort_s, replay_s, probe_s, form_s,
      finish_s;
  pdm::IoStats io;
  u64 runs = 0, est_runs = 0;
  double plan_passes = 0;
  repeat_for(seconds, 2, res, [&](u64 rep) {
    const SortRep ref = sort_rep(s, keys, fp, array, log, rep);
    if (!ref.error.empty()) return res.fail(ref.error);
    RepContext rc(s, array);
    const auto in = pdm::write_input_run<u64>(rc.ctx, keys);
    rc.ctx.aio().drain();
    const double read = timed(log, "pdm.read", rep, [&] {
      const u64 per = s.mem / in.rpb();
      std::vector<u64> buf(static_cast<usize>(s.mem));
      for (u64 b = 0; b < in.num_blocks(); b += per) {
        in.read_blocks(b, std::min(per, in.num_blocks() - b), buf.data());
      }
    });
    const Replay r = replay_sort(rc.ctx, in, s, log, rep);
    if (auto bad = replay_mismatch(r, ref.report); !bad.empty()) {
      return res.fail(bad);
    }
    if (auto bad = verify_sorted_permutation(r.output, fp); !bad.empty()) {
      return res.fail("phase replay: " + bad);
    }
    stage_s.push_back(ref.setup_s);
    sort_s.push_back(ref.sort_s);
    read_s.push_back(read);
    replay_s.push_back(r.wall_s);
    probe_s.push_back(r.probe_s);
    form_s.push_back(r.formation_s);
    finish_s.push_back(r.finish_s);
    io = ref.report.io;
    runs = r.runs;
    est_runs = r.est_runs;
    plan_passes = r.plan_passes;
  });

  const double mb = s.mbytes();
  res.add("pdm.stage_mbps", mb / median(stage_s), "MB/s");
  res.add("pdm.read_mbps", mb / median(read_s), "MB/s");
  res.add("pdm.backend_read_mbps", c.backend_read_mbps, "MB/s");
  res.add("pdm.backend_write_mbps", c.backend_write_mbps, "MB/s");
  res.add("pdm.io_ops", static_cast<double>(io.total_ops()), "ops");
  res.add("pdm.calls", static_cast<double>(io.total_calls()), "calls");
  res.add("pdm.coalesced_ratio", io.coalesced_ratio(), "blocks/call");
  res.add("pdm.utilization", io.utilization(), "blocks/op");
  res.add("internal.sort_mbps_1", c.sort_mbps_1, "MB/s");
  res.add("internal.sort_mbps_n", c.sort_mbps_n, "MB/s");
  res.add("internal.memcpy_mbps", c.memcpy_mbps, "MB/s");
  res.add("primitives.run_formation_s", median(form_s), "s");
  res.add("primitives.run_formation_mbps", mb / median(form_s), "MB/s");
  res.add("primitives.runs", static_cast<double>(runs), "runs");
  res.add("primitives.finish_s", median(finish_s), "s");
  const double phases = (s.probe ? median(probe_s) : 0.0) + median(form_s) +
                        median(finish_s);
  res.add("primitives.phase_closure", phases / median(sort_s), "ratio");
  res.add("core.probe_s", median(probe_s), "s");
  res.add("core.est_runs", static_cast<double>(est_runs), "runs");
  res.add("core.plan_passes", plan_passes, "passes");
  return LayerWalls{median(sort_s), median(replay_s)};
}

}  // namespace suite
