#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

/// Process CPU seconds (all threads).
double process_cpu_seconds();

/// In-memory span log of the traced run. Spans are opened and closed by
/// the driver's own thread around calls into the edsim libraries, so they
/// nest strictly: each record keeps its name, start, end and the span that
/// was open when it began. Written out once, at exit, as Chrome
/// trace_event JSON.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  /// Per-name totals; self time is a span's duration minus the time its
  /// direct children cover.
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  int begin(const char* name);
  /// Close span `id` (the innermost open one); returns its duration in ms.
  double end(int id);

  const std::vector<Record>& records() const { return records_; }
  std::vector<SelfTime> self_times() const;
  void write_chrome_json(std::ostream& os) const;

 private:
  double now_us() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// RAII span; inert (and free of clock reads) when `log` is null, which is
/// how the untraced run stays untraced.
class Span {
 public:
  Span(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->begin(name) : -1) {}
  ~Span() { stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span early; returns its duration in ms (0 when inert or
  /// already closed).
  double stop() {
    if (log_ == nullptr) return 0.0;
    const double ms = log_->end(id_);
    log_ = nullptr;
    return ms;
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
