// pdm::jobtrace — job-scoped causal tracing and the failure flight
// recorder.
//
// Every submitted job gets a TraceId minted at admission (cluster or
// service, whichever sees it first) and carried in its SortJobSpec. A
// jobtrace::Scope installed around any code running on the job's behalf
// stamps the id (and the parent id, for distributed range sub-jobs) into
// every pdm::trace event recorded on that thread — so one Chrome trace
// reconstructs the full causal tree of a distributed sort by id alone:
// parent job -> per-range sub-jobs -> their phase spans and I/O tickets.
//
// The FlightRecorder is the always-on half: a small per-job ring of the
// job's last K lifecycle events (admitted, parked, dispatched, stolen,
// started, phase, finished...), kept even when the full tracer
// is disabled or compiled out (-DPDMSORT_TRACING=OFF), and dumped as
// structured text/JSON when a job ends badly (kFailed / kCancelled /
// deadline-missed) or on demand. Rings are bounded two ways: K events per
// job and a FIFO-evicted cap on tracked jobs, so a long-lived service
// pays a fixed memory cost. Its runtime flag is independent of the
// tracer's (on by default; a disabled recorder costs one relaxed load).
//
// This header depends on nothing but <cstdint>/<string>/<vector>, so
// util/trace can include it to stamp ids without a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pdm::jobtrace {

/// Process-unique job trace id; 0 = "no job" (events stay unstamped).
using TraceId = std::uint64_t;

/// Mints a fresh non-zero id (one relaxed atomic increment).
TraceId mint();

namespace detail {
// Thread-local current job identity. Inline so the accessors compile to a
// TLS load — cheap enough to sit on every trace push path.
inline thread_local TraceId t_current = 0;
inline thread_local TraceId t_parent = 0;
}  // namespace detail

/// The job id work on this thread is currently attributed to (0 = none).
inline TraceId current() { return detail::t_current; }
/// The parent id (the distributed job, for range sub-jobs; else 0).
inline TraceId current_parent() { return detail::t_parent; }

/// RAII attribution: everything recorded on this thread while the scope
/// lives is stamped with (id, parent). Nests; restores on destruction.
class Scope {
 public:
  explicit Scope(TraceId id, TraceId parent = 0)
      : saved_id_(detail::t_current), saved_parent_(detail::t_parent) {
    detail::t_current = id;
    detail::t_parent = parent;
  }
  ~Scope() {
    detail::t_current = saved_id_;
    detail::t_parent = saved_parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TraceId saved_id_;
  TraceId saved_parent_;
};

/// Lifecycle events a job's flight ring collects.
enum class EventKind : std::uint8_t {
  kAdmitted,      // accepted by a service/cluster (arg0 = shard)
  kRejected,      // admission or pump rejection (detail = why)
  kParked,        // entered the cluster hold queue (detail = park reason)
  kDispatched,    // left the hold queue for a shard (arg0 = shard)
  kStolen,        // dispatched off-home (arg0 = home, arg1 = target)
  kStarted,       // began executing on a worker (arg0 = shard)
  kPhase,         // sorter phase transition (detail = phase name)
  kFinished,      // terminal (detail = final state name)
  kCancelled,     // cancelled (queued or running)
  kDeadlineMiss,  // finished past its deadline
};

const char* event_kind_name(EventKind k);

/// One flight-ring entry. `detail` is a truncated inline copy (the ring
/// must not hold pointers into job state that dies before the dump).
struct FlightEvent {
  static constexpr std::size_t kDetailBuf = 48;
  std::uint64_t ts_ns = 0;  // monotonic ns since process start
  EventKind kind = EventKind::kAdmitted;
  char detail[kDetailBuf] = {0};
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

/// Per-job bounded event rings, process-global. All methods are
/// thread-safe; record() with id 0 is a no-op.
class FlightRecorder {
 public:
  static constexpr std::size_t kEventsPerJob = 32;
  static constexpr std::size_t kMaxJobs = 1024;  // FIFO-evicted

  static FlightRecorder& instance();

  /// Runtime gate, independent of the tracer's (default ON — the recorder
  /// is the always-on black box; disable it only to shave the last cycles
  /// off admission paths).
  void set_enabled(bool on);
  bool enabled() const;

  /// Sink invoked (synchronously, on the recording thread) with the text
  /// dump of any job finished via note_end() with bad=true. Default null:
  /// dumps are pull-only. Exposed for servers that want crash-log style
  /// emission on failures/deadline misses.
  using DumpSink = void (*)(TraceId id, const std::string& dump);
  void set_dump_on_bad_end(DumpSink sink);

  void record(TraceId id, EventKind kind, const char* detail = nullptr,
              std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// record() + (when `bad`) the dump-on-bad-end sink. Terminal commit
  /// paths call this exactly once per job.
  void note_end(TraceId id, EventKind kind, const char* detail, bool bad,
                std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// The job's retained events, oldest first (empty for unknown ids).
  std::vector<FlightEvent> events(TraceId id) const;
  /// Name of the job's most recent event ("" for unknown ids) — the
  /// introspection "current phase" (the detail of a kPhase, else the
  /// kind name).
  std::string last_event_name(TraceId id) const;

  /// Structured dumps of one job's ring ("" / "{}" for unknown ids).
  std::string dump_text(TraceId id) const;
  std::string dump_json(TraceId id) const;

  /// Drops one job's ring / every ring (tests; long-lived servers rely on
  /// the FIFO cap instead).
  void forget(TraceId id);
  void clear();

 private:
  FlightRecorder();
  struct Impl;
  Impl* impl_;
};

}  // namespace pdm::jobtrace
