#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calls f(i) for i in [0, n) and returns each call's duration in seconds.
template <typename F>
std::vector<double> TimeEach(int n, F&& f) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    f(i);
    out.push_back(SecondsSince(t0));
  }
  return out;
}

/// One reported number. `n` is the sample count behind it (0 when the value
/// is a count or a ratio rather than a statistic of timed samples).
struct Metric {
  double value = 0;
  std::string unit;
  size_t n = 0;
};

/// Spans recorded from the benchmark's own files around each call into a
/// layer (tracing runs only). Spans of one operation (a plan job, a serve
/// set-up) share `op`; they are kept in memory and folded into per-layer
/// numbers when the run ends.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Times the enclosing scope as one call into `layer` when enabled.
  class Scope {
   public:
    Scope(Spans* spans, const char* layer, int64_t op)
        : spans_(spans->enabled_ ? spans : nullptr),
          layer_(layer),
          op_(op),
          start_(spans_ != nullptr ? Clock::now() : Clock::time_point{}) {}
    ~Scope() {
      if (spans_ != nullptr) spans_->Add(layer_, op_, start_, Clock::now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    const char* layer_;
    int64_t op_;
    Clock::time_point start_;
  };

  /// Durations (seconds) of every span recorded for `layer`.
  std::vector<double> Durations(const std::string& layer) const;

 private:
  void Add(const char* layer, int64_t op, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({layer, op, start, end});
  }

  struct Span {
    std::string layer;
    int64_t op;
    Clock::time_point start, end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Everything one run reports: the metrics (end-to-end or per-layer), the
/// figures printed for people (plan_p90_s, req_p99_s, max_rps, ...),
/// operation counts, the simulated-time digest, and the correctness verdict.
struct Report {
  std::map<std::string, Metric> metrics;  // what the run is scored on
  std::map<std::string, Metric> figures;  // printed alongside, not scored
  std::vector<std::string> notes;         // free-form lines (ladder rungs)
  std::vector<std::string> errors;        // correctness failures
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string digest;  // hex digest of simulated-time outputs

  void Set(const std::string& name, double value, const std::string& unit,
           size_t n = 0) {
    metrics[name] = {value, unit, n};
  }
  /// Sets `name` to the median of `samples`.
  void SetMedian(const std::string& name, const std::vector<double>& samples) {
    const Quantile q = NearestRank(samples, 50);
    Set(name, q.value, "s", q.n);
  }
  void Figure(const std::string& name, double value, const std::string& unit,
              size_t n = 0) {
    figures[name] = {value, unit, n};
  }
  /// Records a correctness failure (the first kMaxErrors verbatim).
  void Error(const std::string& what) {
    if (errors.size() < kMaxErrors) {
      errors.push_back(what);
    } else {
      ++more_errors;
    }
  }
  static constexpr size_t kMaxErrors = 20;
  int64_t more_errors = 0;

  /// One JSON object: the harness's output line, read by run.py.
  std::string ToJson() const;
};

/// Exact rendering of a simulated time (C99 hex float).
std::string HexSeconds(double seconds);

/// Accumulates the exact text of simulated-time outputs (floats rendered
/// as hex) and hashes it, so two runs can be compared bit for bit.
class Digest {
 public:
  void Add(const std::string& text) {
    text_ += text;
    text_ += '\n';
  }
  std::string Hex() const;

 private:
  std::string text_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
