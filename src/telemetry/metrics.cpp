#include "telemetry/metrics.hpp"

#include <ostream>

#include "common/error.hpp"
#include "dram/controller.hpp"

namespace edsim::telemetry {

Histogram& MetricRegistry::histogram(const std::string& name,
                                     double bin_width, std::size_t bins) {
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    it = hists_.emplace(name, Histogram(bin_width, bins)).first;
  } else {
    require(it->second.bin_width() == bin_width &&
                it->second.bins().size() == bins + 1,
            "metric registry: histogram '" + name +
                "' re-declared with a different shape");
  }
  return it->second;
}

const Counter* MetricRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricRegistry::find_histogram(
    const std::string& name) const {
  const auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

void MetricRegistry::merge(const MetricRegistry& o) {
  for (const auto& [name, c] : o.counters_) counters_[name].add(c.value());
  for (const auto& [name, g] : o.gauges_) {
    if (g.is_set()) gauges_[name].set(g.value());
  }
  for (const auto& [name, h] : o.hists_) {
    const auto it = hists_.find(name);
    if (it == hists_.end()) {
      hists_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
}

void MetricRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  hists_.clear();
}

void MetricRegistry::write_csv(std::ostream& out) const {
  out << "kind,name,value\n";
  for (const auto& [name, c] : counters_) {
    out << "counter," << name << "," << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "gauge," << name << "," << g.value() << "\n";
  }
  for (const auto& [name, h] : hists_) {
    out << "histogram," << name << ".count," << h.count() << "\n";
    out << "histogram," << name << ".p50," << h.percentile(0.50) << "\n";
    out << "histogram," << name << ".p99," << h.percentile(0.99) << "\n";
  }
}

namespace {
void json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default: out << ch;
    }
  }
  out << '"';
}
}  // namespace

void MetricRegistry::write_json(std::ostream& out) const {
  out << "{";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
  };
  for (const auto& [name, c] : counters_) {
    sep();
    json_string(out, name);
    out << ": " << c.value();
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    json_string(out, name);
    out << ": " << g.value();
  }
  for (const auto& [name, h] : hists_) {
    sep();
    json_string(out, name);
    out << ": {\"count\": " << h.count() << ", \"p50\": " << h.percentile(0.5)
        << ", \"p99\": " << h.percentile(0.99) << "}";
  }
  out << "\n}\n";
}

void export_controller_stats(const dram::ControllerStats& stats,
                             const MetricScope& scope) {
  scope.counter("cycles").add(stats.cycles);
  scope.counter("reads").add(stats.reads);
  scope.counter("writes").add(stats.writes);
  scope.counter("row_hits").add(stats.row_hits);
  scope.counter("row_misses").add(stats.row_misses);
  scope.counter("row_conflicts").add(stats.row_conflicts);
  scope.counter("activations").add(stats.activations);
  scope.counter("precharges").add(stats.precharges);
  scope.counter("refreshes").add(stats.refreshes);
  scope.counter("bytes_transferred").add(stats.bytes_transferred);
  scope.counter("data_bus_busy_cycles").add(stats.data_bus_busy_cycles);
  scope.counter("powerdown_cycles").add(stats.powerdown_cycles);
  scope.counter("redirected_requests").add(stats.redirected_requests);
  scope.counter("watchdog_retries").add(stats.watchdog_retries);
  const MetricScope rel = scope.scope("reliability");
  rel.counter("injected").add(stats.reliability.injected);
  rel.counter("corrected").add(stats.reliability.corrected);
  rel.counter("uncorrected").add(stats.reliability.uncorrected);
  rel.counter("remapped").add(stats.reliability.remapped);
  scope.gauge("row_hit_rate").set(stats.row_hit_rate());
  scope.gauge("data_bus_utilization").set(stats.data_bus_utilization());
  scope.gauge("powerdown_fraction").set(stats.powerdown_fraction());
  scope.gauge("read_latency_mean_cycles").set(stats.read_latency.mean());
  scope.gauge("write_latency_mean_cycles").set(stats.write_latency.mean());
  scope.gauge("queue_occupancy_mean").set(stats.queue_occupancy.mean());
}

}  // namespace edsim::telemetry
