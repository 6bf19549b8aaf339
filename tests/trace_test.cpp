// PR 7: phase tracer + metrics registry.
//
//  - TraceLog: span nesting, instants/counters with args, disabled-mode
//    silence, ring wraparound accounting, structurally valid Chrome
//    trace_event JSON, and a concurrent-span stress (the TSan job runs
//    this binary — per-ring mutexes must keep writer/snapshot races out).
//  - metrics::LogHistogram: exact small values, exact max, nearest-rank
//    quantiles within the log-bucket resolution against a sorted ground
//    truth.
//  - The observability invariant: IoStats (op/block counts and the
//    order-sensitive schedule hash) are byte-identical with tracing on
//    and off — the tracer reads clocks, never the accounting.
//  - util/logging: concurrent PDM_INFO lines never interleave mid-line.
//  - Cluster pump deadline admission: a parked job whose calibrated
//    estimate cannot meet its remaining deadline is rejected at the pump
//    (held_rejected_deadline), not dispatched to miss; one that dispatches
//    during its own submit meets only the shard's check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/expected_two_pass.h"
#include "pdm/backend_factory.h"
#include "test_support.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pdm {
namespace {

using test::Geometry;

#if PDMSORT_TRACING

// Fresh, enabled tracer for each test; restores disabled on scope exit so
// unrelated tests in this binary are unaffected.
struct TracerScope {
  TracerScope() {
    trace::TraceLog::instance().clear();
    trace::TraceLog::instance().set_enabled(true);
  }
  ~TracerScope() {
    trace::TraceLog::instance().set_enabled(false);
    trace::TraceLog::instance().clear();
  }
};

std::vector<trace::TraceEvent> events_named(const char* name) {
  std::vector<trace::TraceEvent> out;
  for (const auto& ev : trace::TraceLog::instance().snapshot()) {
    if (std::string(ev.name_str()) == name) out.push_back(ev);
  }
  return out;
}

TEST(TraceTest, SpanNestingRecordsCompleteEvents) {
  TracerScope scope;
  {
    trace::TraceSpan outer("test", "outer_span", "n", 42);
    {
      trace::TraceSpan inner("test", "inner_span");
    }
  }
  const auto outer = events_named("outer_span");
  const auto inner = events_named("inner_span");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].ph, 'X');
  EXPECT_STREQ(outer[0].cat, "test");
  ASSERT_NE(outer[0].arg0_name, nullptr);
  EXPECT_STREQ(outer[0].arg0_name, "n");
  EXPECT_EQ(outer[0].arg0, 42u);
  // Nesting: the inner span lies within [start, end] of the outer one.
  EXPECT_LE(outer[0].ts_ns, inner[0].ts_ns);
  EXPECT_GE(outer[0].ts_ns + outer[0].dur_ns,
            inner[0].ts_ns + inner[0].dur_ns);
}

TEST(TraceTest, EndIsIdempotentAndStopsTheClock) {
  TracerScope scope;
  trace::TraceSpan span("test", "ended_early");
  span.end();
  span.end();  // second end must not emit a second event
  const auto evs = events_named("ended_early");
  ASSERT_EQ(evs.size(), 1u);
}

TEST(TraceTest, InstantCounterAndDynamicNames) {
  TracerScope scope;
  PDM_TRACE_INSTANT_ARG("test", "an_instant", "job", 7);
  PDM_TRACE_COUNTER("test", "a_counter", 13);
  trace::TraceLog::instance().counter_dyn("test", "disk3.queue", 5);
  trace::TraceLog::instance().complete_dyn("test", "sort.dyn_algo", 100, 50,
                                           "n", 9);
  const auto inst = events_named("an_instant");
  ASSERT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst[0].ph, 'i');
  EXPECT_EQ(inst[0].arg0, 7u);
  const auto ctr = events_named("a_counter");
  ASSERT_EQ(ctr.size(), 1u);
  EXPECT_EQ(ctr[0].ph, 'C');
  EXPECT_EQ(ctr[0].arg0, 13u);
  const auto dyn_ctr = events_named("disk3.queue");
  ASSERT_EQ(dyn_ctr.size(), 1u);
  EXPECT_EQ(dyn_ctr[0].ph, 'C');
  const auto dyn = events_named("sort.dyn_algo");
  ASSERT_EQ(dyn.size(), 1u);
  EXPECT_EQ(dyn[0].ts_ns, 100u);
  EXPECT_EQ(dyn[0].dur_ns, 50u);
}

TEST(TraceTest, DisabledModeRecordsNothing) {
  trace::TraceLog::instance().set_enabled(false);
  trace::TraceLog::instance().clear();
  {
    trace::TraceSpan span("test", "ghost_span");
    PDM_TRACE_INSTANT("test", "ghost_instant");
    PDM_TRACE_COUNTER("test", "ghost_counter", 1);
  }
  EXPECT_TRUE(trace::TraceLog::instance().snapshot().empty());
  // A span constructed while disabled stays silent even if tracing turns
  // on before it ends (enabled-at-construction semantics).
  trace::TraceSpan late("test", "late_span");
  trace::TraceLog::instance().set_enabled(true);
  late.end();
  EXPECT_TRUE(events_named("late_span").empty());
  trace::TraceLog::instance().set_enabled(false);
  trace::TraceLog::instance().clear();
}

TEST(TraceTest, RingWraparoundCountsDrops) {
  TracerScope scope;
  constexpr usize kPush = 20000;  // > ring capacity (16384)
  for (usize i = 0; i < kPush; ++i) {
    PDM_TRACE_INSTANT("test", "wrap_event");
  }
  const auto evs = events_named("wrap_event");
  EXPECT_LE(evs.size(), usize{16384});
  EXPECT_GE(trace::TraceLog::instance().dropped(), u64{kPush - 16384});
}

// Minimal structural JSON check: balanced braces/brackets outside of
// strings, proper string escaping. Enough to catch a malformed writer
// without a JSON dependency; CI additionally runs the output through
// `python3 -m json.tool`.
void expect_balanced_json(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else {
        ASSERT_GE(static_cast<unsigned char>(c), 0x20u)
            << "raw control character inside a JSON string";
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        ASSERT_FALSE(stack.empty()) << "unbalanced " << c;
        ASSERT_EQ(stack.back(), c);
        stack.pop_back();
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_TRUE(stack.empty()) << "unbalanced JSON nesting";
}

TEST(TraceTest, ChromeJsonIsWellFormed) {
  TracerScope scope;
  trace::TraceLog::instance().set_thread_name("trace-test");
  {
    trace::TraceSpan span("pass", "json_span", "records", 1000);
  }
  PDM_TRACE_INSTANT_ARG("service", "json_instant", "job", 3);
  PDM_TRACE_COUNTER("io", "json_counter", 8);
  std::ostringstream os;
  trace::TraceLog::instance().write_chrome_json(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"records\":1000}"), std::string::npos);
}

TEST(TraceTest, ConcurrentSpanStress) {
  TracerScope scope;
  constexpr usize kThreads = 8;
  constexpr usize kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      trace::TraceLog::instance().set_thread_name("stress");
      for (usize i = 0; i < kIters; ++i) {
        trace::TraceSpan span("test", "stress_span", "i", i);
        if (i % 16 == 0) PDM_TRACE_INSTANT_ARG("test", "stress_tick", "t", t);
        if (i % 64 == 0) PDM_TRACE_COUNTER("test", "stress_depth", i);
      }
    });
  }
  // Snapshot while the writers run: the reader path must be race-free.
  std::ostringstream sink;
  for (int i = 0; i < 5; ++i) {
    (void)trace::TraceLog::instance().snapshot();
    trace::TraceLog::instance().write_chrome_json(sink);
  }
  for (auto& th : threads) th.join();
  const auto spans = events_named("stress_span");
  // Every thread has its own 16384-slot ring and wrote 2000 spans: no drops.
  EXPECT_EQ(spans.size(), kThreads * kIters);
  EXPECT_EQ(trace::TraceLog::instance().dropped(), 0u);
}

TEST(TraceTest, SortEmitsPhaseSpans) {
  TracerScope scope;
  const auto g = Geometry::square(1024);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(7);
  auto data = make_keys(8192, Dist::kUniform, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  ExpectedTwoPassOptions o;
  o.mem_records = g.mem;
  auto res = expected_two_pass_sort<u64>(*ctx, in, o);
  test::expect_sorted_output<u64>(res.output, data);
  // The run must be attributable: a run-formation span, at least one
  // merge/distribute span, and the whole-sort span from ReportBuilder.
  EXPECT_FALSE(events_named("run_formation").empty());
  bool has_sort_span = false;
  for (const auto& ev : trace::TraceLog::instance().snapshot()) {
    if (std::string(ev.name_str()).rfind("sort.", 0) == 0) {
      has_sort_span = true;
    }
  }
  EXPECT_TRUE(has_sort_span);
}

TEST(TraceTest, StatsIdenticalTracingOnAndOff) {
  const auto g = Geometry::square(1024);
  Rng rng(11);
  auto data = make_keys(16384, Dist::kUniform, rng);
  auto run_once = [&]() {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    ExpectedTwoPassOptions o;
    o.mem_records = g.mem;
    auto res = expected_two_pass_sort<u64>(*ctx, in, o);
    test::expect_sorted_output<u64>(res.output, data);
    return ctx->stats();
  };
  trace::TraceLog::instance().set_enabled(false);
  const IoStats off = run_once();
  IoStats on;
  {
    TracerScope scope;
    on = run_once();
  }
  // The tracer only reads clocks: every accounting figure, including the
  // order-sensitive schedule hash, must be identical.
  EXPECT_EQ(off.read_ops, on.read_ops);
  EXPECT_EQ(off.write_ops, on.write_ops);
  EXPECT_EQ(off.blocks_read, on.blocks_read);
  EXPECT_EQ(off.blocks_written, on.blocks_written);
  EXPECT_EQ(off.schedule_hash, on.schedule_hash);
}

TEST(MetricsTest, SpanSinkFillsPerPhaseHistograms) {
  metrics::install_span_histograms();
  TracerScope scope;
  {
    trace::TraceSpan span("test", "sink_probe_span");
  }
  auto& h = metrics::Registry::global().histogram("span.sink_probe_span");
  EXPECT_GE(h.count(), 1u);
}

#endif  // PDMSORT_TRACING

TEST(MetricsTest, HistogramSmallValuesAndMaxAreExact) {
  metrics::LogHistogram h;
  for (u64 v = 0; v < 8; ++v) h.record(v);
  h.record(1000000);
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.max(), 1000000u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 1000000);
  // Values below 8 land in exact unit buckets: low quantiles are exact.
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 1000000u);  // p100 = exact max
}

TEST(MetricsTest, QuantileAccuracyAgainstSortedGroundTruth) {
  std::mt19937_64 rng(42);
  metrics::LogHistogram h;
  std::vector<u64> truth;
  truth.reserve(20000);
  for (usize i = 0; i < 20000; ++i) {
    // Log-uniform over ~9 decades, the shape of a latency distribution.
    const double exp = std::uniform_real_distribution<double>(0, 9)(rng);
    const u64 v = static_cast<u64>(std::pow(10.0, exp));
    truth.push_back(v);
    h.record(v);
  }
  std::sort(truth.begin(), truth.end());
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.99}) {
    const auto rank = static_cast<usize>(
        std::ceil(q * static_cast<double>(truth.size())));
    const double exact =
        static_cast<double>(truth[rank == 0 ? 0 : rank - 1]);
    const double est = static_cast<double>(h.quantile(q));
    // 8 sub-buckets per octave bound the relative error at ~1/16 of the
    // bucket width; 10% gives slack for the nearest-rank edge.
    EXPECT_NEAR(est, exact, std::max(1.0, 0.10 * exact))
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(MetricsTest, RegistryTextExposition) {
  auto& reg = metrics::Registry::global();
  reg.counter("test.requests").add(3);
  reg.gauge("test.depth").set(-2);
  reg.histogram("test.lat_ns").record(100);
  const std::string text = reg.text();
  EXPECT_NE(text.find("counter test.requests 3"), std::string::npos);
  EXPECT_NE(text.find("gauge test.depth -2"), std::string::npos);
  EXPECT_NE(text.find("hist test.lat_ns count=1"), std::string::npos);
  EXPECT_NE(text.find("max=100"), std::string::npos);
}

TEST(LoggingTest, ConcurrentLinesNeverInterleave) {
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kInfo);
  constexpr usize kThreads = 8;
  constexpr usize kLines = 200;
  {
    std::vector<std::thread> threads;
    for (usize t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (usize i = 0; i < kLines; ++i) {
          PDM_INFO("line-" << t << "-" << i << "-end");
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  set_log_level(old_level);
  std::cerr.rdbuf(old);
  // Every line must be whole: correct prefix, correct "-end" suffix, and
  // exactly kThreads * kLines of them.
  std::istringstream in(captured.str());
  std::string line;
  usize total = 0;
  while (std::getline(in, line)) {
    ASSERT_EQ(line.rfind("[pdmsort INFO] line-", 0), 0u)
        << "interleaved or torn line: " << line;
    ASSERT_EQ(line.substr(line.size() - 4), "-end")
        << "torn line: " << line;
    ++total;
  }
  EXPECT_EQ(total, kThreads * kLines);
}

TEST(ClusterTest, PumpRejectsHopelessDeadlinesWithCounter) {
  const u64 mem = 1024;
  const u64 rpb = isqrt(mem);
  ClusterConfig cfg;
  cfg.shards = 1;
  cfg.shard.workers = 1;
  cfg.shard.deadline_admission = true;
  Cluster cluster(memory_backend_factory(4, rpb * sizeof(u64), 0), cfg);

  Rng rng(3);
  // On the idle cluster a hopeless deadline job dispatches during its own
  // submit, so the shard's deadline check rejects it, not the pump's.
  SortJobSpec idle_spec;
  idle_spec.name = "hopeless-idle";
  idle_spec.mem_records = mem;
  idle_spec.deadline_s = 1e-5;
  const JobInfo idle = cluster.wait(
      cluster.submit<u64>(idle_spec, make_keys(4096, Dist::kUniform, rng)));
  EXPECT_EQ(idle.state, JobState::kRejected);
  EXPECT_NE(idle.error.find("deadline admission"), std::string::npos)
      << idle.error;
  EXPECT_EQ(idle.error.find("(pump)"), std::string::npos) << idle.error;

  // Job A occupies the single worker: its completion callback blocks until
  // released, so job B cannot dispatch and must park in the hold queue.
  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> release_f = release_a.get_future().share();
  SortJobSpec a_spec;
  a_spec.name = "occupier";
  a_spec.mem_records = mem;
  const JobId a = cluster.submit<u64>(
      a_spec, make_keys(2048, Dist::kUniform, rng), std::less<u64>{},
      [&a_started, release_f](const SortResult<u64>&) {
        a_started.set_value();
        release_f.wait();
      });
  a_started.get_future().wait();

  // Job B: a deadline far below any run estimate (one round already costs
  // ~CostModel::seek_s = 4ms >> 10us). The park-time pump must reject it
  // via the calibrated estimate — it never reaches the shard.
  SortJobSpec b_spec;
  b_spec.name = "hopeless";
  b_spec.mem_records = mem;
  b_spec.deadline_s = 1e-5;
  const JobId b = cluster.submit<u64>(
      b_spec, make_keys(4096, Dist::kUniform, rng));

  const JobInfo bi = cluster.info(b);
  EXPECT_EQ(bi.state, JobState::kRejected);
  EXPECT_NE(bi.error.find("deadline admission (pump)"), std::string::npos)
      << bi.error;

  release_a.set_value();
  EXPECT_EQ(cluster.wait(a).state, JobState::kDone);
  cluster.drain();

  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.held_rejected_deadline, 1u);
  EXPECT_EQ(st.held_rejected, 1u);
  EXPECT_EQ(st.rejected, 2u);  // the shard's reject and the pump's
  // The exposition surface carries the rejection and the park histogram.
  const std::string text = cluster.metrics_text();
  EXPECT_NE(text.find("cluster.hold_depth"), std::string::npos);
}

}  // namespace
}  // namespace pdm
