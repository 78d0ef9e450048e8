#include "support/spans.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = std::min(s.end_s, p.end_s);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = spans[i].seconds() - covered;
  }
  return out;
}

double child_coverage(SpanRecorder& spans, std::string_view name) {
  const std::uint32_t id = spans.intern(name);
  const std::vector<Span>& all = spans.spans();
  for (std::size_t i = all.size(); i-- > 0;) {
    if (all[i].name != id || all[i].seconds() <= 0) continue;
    return 1.0 - self_times(all)[i] / all[i].seconds();
  }
  return 0.0;
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t SpanRecorder::open(std::uint32_t name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  s.id = id;
  s.start_s = now();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[index].end_s = now();
  open_.pop_back();
}

double SpanRecorder::total(std::uint32_t name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.seconds();
  }
  return sum;
}

std::vector<double> SpanRecorder::durations(std::uint32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\": [\n";
  out << "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"perfbench host wall clock\"}}";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"ph\": \"X\", \"pid\": 2, \"tid\": 0, \"name\": \"" << names_[s.name]
        << "\", \"cat\": \"perfbench\"";
    std::snprintf(buf, sizeof buf, "%.3f", s.start_s * 1e6);
    out << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f", s.seconds() * 1e6);
    out << ", \"dur\": " << buf << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"index\": " << i << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
