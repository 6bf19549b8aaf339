// SortReport: what every sorter returns — the paper's figures of merit
// (pass counts under the PDM definition), plus utilization, simulated
// time, wall time, peak memory and whether the expected-case algorithm had
// to take its fallback.
#pragma once

#include <string>

#include "pdm/pdm_context.h"
#include "pdm/striped_run.h"
#include "util/jobtrace.h"
#include "util/timer.h"
#include "util/trace.h"

namespace pdm {

struct SortReport {
  std::string algorithm;
  u64 n = 0;             // records sorted
  u64 mem_records = 0;   // M
  usize rpb = 0;         // B in records
  u32 disks = 0;         // D
  IoStats io;            // delta for this sort only
  double passes = 0;     // (reads+writes) / (2 N / (D B))
  double read_passes = 0;
  double write_passes = 0;
  double utilization = 0;  // mean blocks per parallel op (in [1, D])
  bool fallback_taken = false;
  usize peak_memory_bytes = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
};

/// RAII-ish collector: snapshot at construction, finalize with finish().
class ReportBuilder {
 public:
  ReportBuilder(PdmContext& ctx, std::string algorithm, u64 n,
                u64 mem_records, usize rpb)
      : ctx_(&ctx),
        before_(ctx.stats()),
        report_() {
    report_.algorithm = std::move(algorithm);
    report_.n = n;
    report_.mem_records = mem_records;
    report_.rpb = rpb;
    report_.disks = ctx.D();
    ctx.budget().reset_peak();
    trace_start_ns_ = trace::TraceLog::now_ns();
    // Every sorter passes through here once per sort, so this is the one
    // chokepoint that tells the flight ring (and hence introspection's
    // "current phase") which algorithm the job is executing.
    jobtrace::FlightRecorder::instance().record(
        ctx.trace_id(), jobtrace::EventKind::kPhase,
        report_.algorithm.c_str(), n);
  }

  SortReport finish() {
    // The async pipeline may still be executing write-behind batches that
    // were already charged to the stats; finishing a sort means its data
    // is on disk, so the drain belongs inside the wall-clock measurement.
    ctx_->aio().drain();
    const IoStats d = delta(ctx_->stats(), before_);
    report_.io = d;
    report_.passes = d.passes(report_.n, report_.rpb, report_.disks);
    report_.read_passes = d.read_passes(report_.n, report_.rpb, report_.disks);
    report_.write_passes =
        d.write_passes(report_.n, report_.rpb, report_.disks);
    report_.utilization = d.utilization();
    report_.peak_memory_bytes = ctx_->budget().peak();
    report_.wall_seconds = timer_.seconds();
    report_.sim_seconds = d.sim_time_s;
    // Whole-sort span named after the algorithm; child phase spans (run
    // formation, merge passes, cleanup) nest under it in the trace viewer.
    trace::TraceLog::instance().complete_dyn(
        "sort", "sort." + report_.algorithm, trace_start_ns_,
        trace::TraceLog::now_ns() - trace_start_ns_, "n", report_.n);
    return report_;
  }

  void set_fallback() { report_.fallback_taken = true; }

 private:
  PdmContext* ctx_;
  IoStats before_;
  SortReport report_;
  Timer timer_;
  u64 trace_start_ns_ = 0;
};

/// Output run + report pair returned by every sorter.
template <Record R>
struct SortResult {
  StripedRun<R> output;
  SortReport report;
};

}  // namespace pdm
