#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::map<std::string, double> Tracer::total_ns_by_name() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns);
  return out;
}

std::map<std::string, std::int64_t> Tracer::count_by_name() const {
  std::map<std::string, std::int64_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t k = 0; k < spans_.size(); ++k)
    self[k] = static_cast<double>(spans_[k].end_ns - spans_[k].start_ns);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, double> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const std::string name = spans_[k].name;
    out[name.substr(0, name.find('.'))] += self[k];
  }
  return out;
}

std::string Tracer::chrome_json(const std::string& process) const {
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %lld}}",
                  s.name, process.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, k,
                  static_cast<int>(s.parent),
                  static_cast<long long>(s.op));
    out << buf << (k + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())) - 1);
  return values[idx];
}

int os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

}  // namespace perfbench
