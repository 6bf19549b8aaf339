// Shared pieces of the benchmark suite: output verification, sample
// statistics, the in-memory span log behind the Chrome trace, and the
// metric list that becomes the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "pdm/striped_run.h"
#include "util/common.h"

namespace suite {

using pdm::u32;
using pdm::u64;
using pdm::usize;

// --- verification -------------------------------------------------------

/// splitmix64 finalizer: spreads every key over all 64 bits, so the sum
/// and xor below change when a record is lost, duplicated or altered.
inline u64 mix64(u64 z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-independent multiset fingerprint of a key sequence.
struct Fingerprint {
  u64 n = 0;
  u64 sum = 0;
  u64 xr = 0;

  void add(std::span<const u64> keys) {
    for (u64 k : keys) {
      const u64 h = mix64(k);
      sum += h;
      xr ^= h;
    }
    n += keys.size();
  }

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

inline Fingerprint fingerprint(std::span<const u64> keys) {
  Fingerprint f;
  f.add(keys);
  return f;
}

/// Checks that `out` holds exactly the input's records in sorted order:
/// size, order (across chunk boundaries too) and the multiset fingerprint.
/// Reads the run in bounded chunks, so memory stays small at any N.
/// Returns an empty string on success, else what failed.
inline std::string verify_sorted_permutation(const pdm::StripedRun<u64>& out,
                                             const Fingerprint& input) {
  if (out.size() != input.n) return "output size mismatch";
  const u64 rpb = out.rpb();
  const u64 chunk_blocks =
      std::max<u64>(1, (u64{4} << 20) / (rpb * sizeof(u64)));
  std::vector<u64> buf(static_cast<usize>(chunk_blocks * rpb));
  Fingerprint got;
  bool have_prev = false;
  u64 prev = 0;
  for (u64 b = 0; b < out.num_blocks(); b += chunk_blocks) {
    const u64 cnt = std::min(chunk_blocks, out.num_blocks() - b);
    out.read_blocks(b, cnt, buf.data());
    const u64 valid = std::min(cnt * rpb, out.size() - b * rpb);
    std::span<const u64> recs(buf.data(), static_cast<usize>(valid));
    if (have_prev && recs.front() < prev) return "output not sorted";
    if (!std::is_sorted(recs.begin(), recs.end())) return "output not sorted";
    prev = recs.back();
    have_prev = true;
    got.add(recs);
  }
  if (!(got == input)) return "output is not a permutation of the input";
  return {};
}

// --- sample statistics --------------------------------------------------

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const usize h = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[h] : 0.5 * (xs[h - 1] + xs[h]);
}

/// 1-based nearest rank of the q-quantile in a sample of n.
inline usize rank_of(usize n, double q) {
  const auto r = static_cast<usize>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<usize>(r, 1, n);
}

/// The tail the sample supports: the 95th percentile when at least ten
/// samples lie beyond it, else the highest rank that still leaves ten
/// samples beyond, and never below the (upper) median.
inline double tail(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const usize n = xs.size();
  const usize room = n > 10 ? n - 10 : 0;
  const usize rank = std::max(std::min(rank_of(n, 0.95), room), n / 2 + 1);
  return xs[rank - 1];
}

// --- timing and spans ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans recorded by the benchmark around its calls into each layer,
/// kept in memory and written once as Chrome trace JSON. Spans of one
/// operation (a sort rep, a served job) share its id.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  void add(const std::string& name, u64 id, Clock::time_point start,
           Clock::time_point end, u32 lane = 0) {
    if (!enabled_) return;
    std::lock_guard g(mu_);
    spans_.push_back(Span{name, id, lane, micros(start), micros(end)});
  }

  bool write_chrome(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    std::lock_guard g(mu_);
    out << "{\"traceEvents\": [\n";
    for (usize i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof line,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %llu}}%s\n",
                    s.name.c_str(), layer_of(s.name).c_str(), s.lane,
                    s.start_us, s.end_us - s.start_us,
                    static_cast<unsigned long long>(s.id),
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    u64 id;
    u32 lane;
    double start_us;
    double end_us;
  };

  static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call and records it as a span.
template <class Fn>
double timed(SpanLog& log, const std::string& name, u64 id, Fn&& fn) {
  const auto a = Clock::now();
  fn();
  const auto b = Clock::now();
  log.add(name, id, a, b);
  return seconds_between(a, b);
}

// --- results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Calls fn(rep) until `seconds` pass, and at least `min_reps` times. Each
/// call is one attempted operation; a thrown pdm::Error fails it (fn
/// reports other failures through res.fail itself).
template <class Fn>
void repeat_for(double seconds, u64 min_reps, Result& res, Fn&& fn) {
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  for (u64 rep = 0; rep < min_reps || Clock::now() < t_end; ++rep) {
    ++res.attempted;
    try {
      fn(rep);
    } catch (const pdm::Error& e) {
      res.fail(e.what());
    }
  }
}

}  // namespace suite
