#include "util/jobtrace.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>

namespace pdm::jobtrace {

namespace {

std::atomic<TraceId> g_next_id{1};

// The recorder keeps its own epoch so flight timestamps work even in
// builds where the tracer (and its clock) is compiled out.
std::chrono::steady_clock::time_point flight_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

[[maybe_unused]] const auto g_epoch_init = flight_epoch();

std::uint64_t flight_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - flight_epoch())
          .count());
}

void write_json_string(std::ostringstream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

TraceId mint() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kAdmitted: return "admitted";
    case EventKind::kRejected: return "rejected";
    case EventKind::kParked: return "parked";
    case EventKind::kDispatched: return "dispatched";
    case EventKind::kStolen: return "stolen";
    case EventKind::kStarted: return "started";
    case EventKind::kPhase: return "phase";
    case EventKind::kFinished: return "finished";
    case EventKind::kCancelled: return "cancelled";
    case EventKind::kDeadlineMiss: return "deadline_miss";
  }
  return "?";
}

/// One job's ring: a fixed array cycled by a head counter (same shape as
/// the tracer's per-thread rings, scaled down to K lifecycle events).
struct FlightRing {
  FlightEvent events[FlightRecorder::kEventsPerJob];
  std::uint64_t head = 0;  // total ever pushed; slot = head % K

  void push(const FlightEvent& ev) {
    events[head % FlightRecorder::kEventsPerJob] = ev;
    ++head;
  }
};

struct FlightRecorder::Impl {
  std::atomic<bool> enabled{true};
  std::atomic<DumpSink> sink{nullptr};
  mutable std::mutex mu;
  std::map<TraceId, FlightRing> rings;
  std::deque<TraceId> fifo;  // insertion order, for the kMaxJobs cap

  FlightRing& ring_locked(TraceId id) {
    auto [it, inserted] = rings.try_emplace(id);
    if (inserted) {
      fifo.push_back(id);
      // FIFO entries may be stale after forget(); popping one just
      // advances the cursor.
      while (rings.size() > kMaxJobs && !fifo.empty()) {
        rings.erase(fifo.front());
        fifo.pop_front();
      }
    }
    return it->second;
  }

  std::vector<FlightEvent> snapshot(TraceId id) const {
    std::lock_guard lock(mu);
    auto it = rings.find(id);
    if (it == rings.end()) return {};
    const FlightRing& r = it->second;
    const std::uint64_t n = std::min<std::uint64_t>(r.head, kEventsPerJob);
    std::vector<FlightEvent> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = r.head - n; i < r.head; ++i) {
      out.push_back(r.events[i % kEventsPerJob]);
    }
    return out;
  }
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* rec = new FlightRecorder();  // leaked: static-dtor safe
  return *rec;
}

void FlightRecorder::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void FlightRecorder::set_dump_on_bad_end(DumpSink sink) {
  impl_->sink.store(sink, std::memory_order_release);
}

void FlightRecorder::record(TraceId id, EventKind kind, const char* detail,
                            std::uint64_t arg0, std::uint64_t arg1) {
  if (id == 0 || !enabled()) return;
  FlightEvent ev;
  ev.ts_ns = flight_now_ns();
  ev.kind = kind;
  if (detail != nullptr) {
    std::strncpy(ev.detail, detail, FlightEvent::kDetailBuf - 1);
  }
  ev.arg0 = arg0;
  ev.arg1 = arg1;
  std::lock_guard lock(impl_->mu);
  impl_->ring_locked(id).push(ev);
}

void FlightRecorder::note_end(TraceId id, EventKind kind, const char* detail,
                              bool bad, std::uint64_t arg0,
                              std::uint64_t arg1) {
  record(id, kind, detail, arg0, arg1);
  if (!bad || id == 0 || !enabled()) return;
  if (DumpSink sink = impl_->sink.load(std::memory_order_acquire)) {
    sink(id, dump_text(id));
  }
}

std::vector<FlightEvent> FlightRecorder::events(TraceId id) const {
  return impl_->snapshot(id);
}

std::string FlightRecorder::last_event_name(TraceId id) const {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->rings.find(id);
  if (it == impl_->rings.end() || it->second.head == 0) return "";
  const FlightEvent& ev =
      it->second.events[(it->second.head - 1) % kEventsPerJob];
  if (ev.kind == EventKind::kPhase && ev.detail[0] != '\0') return ev.detail;
  return event_kind_name(ev.kind);
}

std::string FlightRecorder::dump_text(TraceId id) const {
  const auto evs = impl_->snapshot(id);
  if (evs.empty()) return "";
  std::ostringstream os;
  os << "flight job=" << id << " events=" << evs.size() << '\n';
  for (const FlightEvent& ev : evs) {
    os << "  +" << ev.ts_ns / 1000000 << '.' << (ev.ts_ns / 1000) % 1000
       << "ms " << event_kind_name(ev.kind);
    if (ev.detail[0] != '\0') os << " \"" << ev.detail << '"';
    if (ev.arg0 != 0 || ev.arg1 != 0) {
      os << " [" << ev.arg0 << ", " << ev.arg1 << ']';
    }
    os << '\n';
  }
  return os.str();
}

std::string FlightRecorder::dump_json(TraceId id) const {
  const auto evs = impl_->snapshot(id);
  std::ostringstream os;
  os << "{\"job\":" << id << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& ev : evs) {
    if (!first) os << ',';
    first = false;
    os << "{\"ts_ns\":" << ev.ts_ns << ",\"kind\":";
    write_json_string(os, event_kind_name(ev.kind));
    if (ev.detail[0] != '\0') {
      os << ",\"detail\":";
      write_json_string(os, ev.detail);
    }
    if (ev.arg0 != 0 || ev.arg1 != 0) {
      os << ",\"arg0\":" << ev.arg0 << ",\"arg1\":" << ev.arg1;
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void FlightRecorder::forget(TraceId id) {
  std::lock_guard lock(impl_->mu);
  impl_->rings.erase(id);
}

void FlightRecorder::clear() {
  std::lock_guard lock(impl_->mu);
  impl_->rings.clear();
  impl_->fifo.clear();
}

}  // namespace pdm::jobtrace
