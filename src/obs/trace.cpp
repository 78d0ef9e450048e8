#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace drim::obs {
namespace {

constexpr double kSecToUs = 1e6;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_args(std::ostream& out, const std::vector<TraceArg>& args) {
  out << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(args[i].first) << "\":" << json_number(args[i].second);
  }
  out << '}';
}

}  // namespace

std::uint32_t TraceRecorder::lane(const std::string& name) {
  for (std::size_t i = 0; i < lane_names_.size(); ++i) {
    if (lane_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  lane_names_.push_back(name);
  return static_cast<std::uint32_t>(lane_names_.size() - 1);
}

void TraceRecorder::splice(TraceRecorder& child, const std::string& lane_prefix) {
  std::vector<std::uint32_t> tid(child.lane_names_.size());
  for (std::size_t i = 0; i < tid.size(); ++i) {
    tid[i] = lane(lane_prefix + child.lane_names_[i]);
  }
  for (Event& e : child.events_) {
    if (e.ph != 'C') e.tid = tid[e.tid];  // counters are process-wide tracks
    events_.push_back(std::move(e));
  }
  child.lane_names_.clear();
  child.events_.clear();
}

void TraceRecorder::span(std::uint32_t lane, std::string name, std::string cat,
                         double start_s, double duration_s,
                         std::vector<TraceArg> args) {
  Event e;
  e.ph = 'X';
  e.tid = lane;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ts_us = start_s * kSecToUs;
  e.dur_us = duration_s * kSecToUs;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::instant(std::uint32_t lane, std::string name, std::string cat,
                            double t_s, std::vector<TraceArg> args) {
  Event e;
  e.ph = 'i';
  e.tid = lane;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ts_us = t_s * kSecToUs;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::counter(std::string name, double t_s,
                            std::vector<TraceArg> series) {
  Event e;
  e.ph = 'C';
  e.tid = 0;
  e.name = std::move(name);
  e.cat = "metrics";
  e.ts_us = t_s * kSecToUs;
  e.args = std::move(series);
  events_.push_back(std::move(e));
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ',';
    first = false;
    out << "\n";
  };

  // Metadata: process name + one thread_name / thread_sort_index per lane.
  sep();
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"drim-ann (virtual clock)\"}}";
  for (std::size_t i = 0; i < lane_names_.size(); ++i) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << i
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(lane_names_[i]) << "\"}}";
    sep();
    out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << i
        << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << i << "}}";
  }

  for (const Event& e : events_) {
    sep();
    out << "{\"ph\":\"" << e.ph << "\",\"pid\":0,\"tid\":" << e.tid << ",\"name\":\""
        << json_escape(e.name) << "\",\"cat\":\""
        << json_escape(e.cat.empty() ? std::string("default") : e.cat)
        << "\",\"ts\":" << json_number(e.ts_us);
    if (e.ph == 'X') out << ",\"dur\":" << json_number(e.dur_us);
    if (e.ph == 'i') out << ",\"s\":\"t\"";
    out << ',';
    write_args(out, e.args);
    out << '}';
  }
  out << "\n]}\n";
}

void TraceRecorder::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  write_chrome_trace(out);
}

}  // namespace drim::obs
