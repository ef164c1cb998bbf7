#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace edsim::dram {
struct ControllerStats;
}

namespace edsim::telemetry {

/// Monotone event count (requests, row hits, faults corrected...).
class Counter {
 public:
  void add(std::uint64_t k = 1) { value_ += k; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value (bandwidth, temperature, rate...).
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    set_ = true;
  }
  double value() const { return value_; }
  bool is_set() const { return set_; }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

/// Named-metric store: counters, gauges, and fixed-bucket histograms,
/// hierarchically scoped by dotted names (`channel0.bank3.row_hits` —
/// build names with MetricScope). Snapshotable to CSV/JSON and mergeable:
/// the parallel Evaluator fills one registry per slot and merges them in
/// input order, so totals are identical at every EDSIM_THREADS.
///
/// Merge semantics: counters add; histograms add bin-wise (shapes must
/// match); gauges take the incoming value when it is set (merge order =
/// input order keeps this deterministic).
class MetricRegistry {
 public:
  /// Get-or-create. Names are arbitrary; use '.'-separated segments for
  /// hierarchy so exports group naturally.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name, double bin_width,
                       std::size_t bins);

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  void merge(const MetricRegistry& o);

  std::size_t size() const {
    return counters_.size() + gauges_.size() + hists_.size();
  }
  void clear();

  /// `kind,name,value` rows (histograms add `.p50/.p99/.count` rows),
  /// sorted by name within each kind — a stable, diffable snapshot.
  void write_csv(std::ostream& out) const;
  /// One flat JSON object keyed by metric name.
  void write_json(std::ostream& out) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return hists_; }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> hists_;
};

/// Hierarchical name builder over a registry:
///
///     MetricScope ch(reg, "channel0");
///     ch.scope("bank3").counter("row_hits").add();   // channel0.bank3.row_hits
class MetricScope {
 public:
  MetricScope(MetricRegistry& reg, std::string prefix)
      : reg_(&reg), prefix_(std::move(prefix)) {}

  MetricScope scope(const std::string& name) const {
    return MetricScope(*reg_, qualify(name));
  }
  Counter& counter(const std::string& name) const {
    return reg_->counter(qualify(name));
  }
  Gauge& gauge(const std::string& name) const {
    return reg_->gauge(qualify(name));
  }
  Histogram& histogram(const std::string& name, double bin_width,
                       std::size_t bins) const {
    return reg_->histogram(qualify(name), bin_width, bins);
  }

 private:
  std::string qualify(const std::string& name) const {
    return prefix_.empty() ? name : prefix_ + "." + name;
  }

  MetricRegistry* reg_;
  std::string prefix_;
};

/// Snapshot one channel's ControllerStats into scoped metrics (counters
/// for the monotone event counts, gauges for the derived rates). Call
/// once per run per scope — counters accumulate.
void export_controller_stats(const dram::ControllerStats& stats,
                             const MetricScope& scope);

}  // namespace edsim::telemetry
