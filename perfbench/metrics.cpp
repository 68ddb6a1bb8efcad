#include "metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void json_escape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

} // namespace

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_percentile_for(std::size_t n) {
  for (double q : {95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0 - 1e-9) return q;
  }
  return 50.0;
}

double gate_amps_per_s(const std::vector<ItemWork>& items) {
  double work = 0;
  double seconds = 0;
  for (const ItemWork& it : items) {
    work += static_cast<double>(it.parsed_gates) *
            std::ldexp(1.0, it.n_qubits);
    seconds += it.seconds;
  }
  return seconds > 0 ? work / seconds : 0;
}

SpanLog::SpanLog() : epoch_ns_(steady_ns()) { spans_.reserve(1 << 14); }

double SpanLog::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

int SpanLog::begin(const char* name, int item) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.item = item;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  return idx;
}

void SpanLog::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::string SpanLog::chrome_json() const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) os << ',';
    os << "{\"name\":\"";
    json_escape(os, s.name);
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
       << ",\"dur\":" << s.dur_us() << ",\"args\":{\"item\":" << s.item
       << ",\"parent\":" << s.parent << ",\"id\":" << i << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us();
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) self[static_cast<std::size_t>(s.parent)] -= hi - lo;
  }
  return self;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

} // namespace perfbench
