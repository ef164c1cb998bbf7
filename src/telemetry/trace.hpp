#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace edsim::telemetry {

/// One argument attached to a trace event. `quoted` selects JSON string
/// vs. bare-number rendering (CSV always prints `name=text`).
struct TraceArg {
  std::string name;
  std::string text;
  bool quoted = true;
};

TraceArg arg_str(std::string name, std::string value);
TraceArg arg_u64(std::string name, std::uint64_t value);
TraceArg arg_double(std::string name, double value);

/// One exportable trace event in simulator time (cycles). `process` maps
/// to a Perfetto process (one per channel), `track` to a thread within it
/// (command bus, one per client, reliability, counters...).
struct TraceEvent {
  enum class Phase : std::uint8_t {
    kSlice,    ///< duration event: [cycle, cycle + duration)
    kInstant,  ///< point event
    kCounter,  ///< sampled value series (args carry the series values)
  };

  Phase phase = Phase::kInstant;
  std::string name;
  std::string category;
  std::uint64_t cycle = 0;
  std::uint64_t duration = 0;  ///< cycles; kSlice only
  unsigned process = 0;
  unsigned track = 0;
  std::vector<TraceArg> args;
};

/// Where trace events go. Implementations stream — events are rendered
/// as they arrive, so a long soak never has to buffer the whole trace in
/// memory.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void emit(const TraceEvent& ev) = 0;

  /// Optional naming metadata for the track/process axes.
  virtual void set_process_name(unsigned /*process*/,
                                const std::string& /*name*/) {}
  virtual void set_track_name(unsigned /*process*/, unsigned /*track*/,
                              const std::string& /*name*/) {}

  /// Seal the output (close the JSON array, flush...). Idempotent;
  /// sinks also call it from their destructor.
  virtual void finish() {}

  std::uint64_t events_emitted() const { return events_; }

 protected:
  std::uint64_t events_ = 0;
};

/// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object form) —
/// loads in Perfetto / chrome://tracing. Cycles are converted to
/// microsecond timestamps with the DRAM clock, so slice widths read as
/// real time.
class ChromeTraceSink final : public TraceSink {
 public:
  ChromeTraceSink(std::ostream& out, Frequency clock);
  ~ChromeTraceSink() override;

  void emit(const TraceEvent& ev) override;
  void set_process_name(unsigned process, const std::string& name) override;
  void set_track_name(unsigned process, unsigned track,
                      const std::string& name) override;
  void finish() override;

 private:
  double ts_us(std::uint64_t cycle) const {
    return static_cast<double>(cycle) * clock_.period_ns() / 1000.0;
  }
  void begin_event();
  void write_args(const std::vector<TraceArg>& args);

  std::ostream& out_;
  Frequency clock_;
  bool first_ = true;
  bool finished_ = false;
};

/// Flat CSV: one event per row, cycle-stamped — for spreadsheet/pandas
/// consumption when Perfetto is overkill.
class CsvTraceSink final : public TraceSink {
 public:
  explicit CsvTraceSink(std::ostream& out);
  ~CsvTraceSink() override;

  void emit(const TraceEvent& ev) override;
  void finish() override;

 private:
  std::ostream& out_;
  bool finished_ = false;
};

}  // namespace edsim::telemetry
