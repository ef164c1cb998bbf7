#include "service/wire.hpp"

namespace edsim::service {

void encode_metrics(SnapshotWriter& w, const core::Metrics& m) {
  w.str(m.name);
  w.f64(m.die_area_mm2);
  w.f64(m.memory_area_mm2);
  w.f64(m.logic_area_mm2);
  w.f64(m.sustained_gbyte_s);
  w.f64(m.peak_gbyte_s);
  w.f64(m.bandwidth_efficiency);
  w.f64(m.avg_read_latency_ns);
  w.f64(m.worst_read_latency_ns);
  w.f64(m.wcet_read_latency_ns);
  w.f64(m.wcet_bandwidth_gbyte_s);
  w.f64(m.io_power_mw);
  w.f64(m.total_power_mw);
  w.f64(m.installed_mbit);
  w.f64(m.waste_mbit);
  w.f64(m.unit_cost_usd);
  w.f64(m.logic_speed);
  w.f64(m.junction_c);
  w.f64(m.retention_ms);
  w.f64(m.refresh_overhead);
  w.boolean(m.sampled);
  w.u32(m.sample_windows);
  w.f64(m.sustained_gbyte_s_ci);
  w.f64(m.avg_read_latency_ns_ci);
}

core::Metrics decode_metrics(SnapshotReader& r) {
  core::Metrics m;
  m.name = r.str();
  m.die_area_mm2 = r.f64();
  m.memory_area_mm2 = r.f64();
  m.logic_area_mm2 = r.f64();
  m.sustained_gbyte_s = r.f64();
  m.peak_gbyte_s = r.f64();
  m.bandwidth_efficiency = r.f64();
  m.avg_read_latency_ns = r.f64();
  m.worst_read_latency_ns = r.f64();
  m.wcet_read_latency_ns = r.f64();
  m.wcet_bandwidth_gbyte_s = r.f64();
  m.io_power_mw = r.f64();
  m.total_power_mw = r.f64();
  m.installed_mbit = r.f64();
  m.waste_mbit = r.f64();
  m.unit_cost_usd = r.f64();
  m.logic_speed = r.f64();
  m.junction_c = r.f64();
  m.retention_ms = r.f64();
  m.refresh_overhead = r.f64();
  m.sampled = r.boolean();
  m.sample_windows = r.u32();
  m.sustained_gbyte_s_ci = r.f64();
  m.avg_read_latency_ns_ci = r.f64();
  return m;
}

}  // namespace edsim::service
