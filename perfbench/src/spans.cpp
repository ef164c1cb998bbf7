#include "spans.hpp"

#include <algorithm>
#include <ctime>
#include <map>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanLog::begin(const char* name) {
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_us = now_us();
  records_.push_back(std::move(r));
  const int id = static_cast<int>(records_.size() - 1);
  open_.push_back(id);
  return id;
}

double SpanLog::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  Record& r = records_[static_cast<std::size_t>(id)];
  r.end_us = now_us();
  return (r.end_us - r.start_us) * 1e-3;
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<double> child_us(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_us[static_cast<std::size_t>(r.parent)] += r.end_us - r.start_us;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    SelfTime& s = by_name[r.name];
    s.name = r.name;
    ++s.count;
    s.total_ms += (r.end_us - r.start_us) * 1e-3;
    s.self_ms += (r.end_us - r.start_us - child_us[i]) * 1e-3;
  }
  std::vector<SelfTime> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  // Complete ("X") events; the span index and its parent ride in args so
  // the causal tree survives the export.
  const auto flags = os.flags();
  const auto precision = os.precision();
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) os << ",";
    os << "\n{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  os << "\n]}\n";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace perfbench
