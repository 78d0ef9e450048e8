#pragma once
// Host wall-clock spans recorded from the benchmark's side of each layer
// boundary: name, start, end, the enclosing span, and an id shared by the
// spans of one request (enqueue/take handle) or one step (step index). Spans
// stay in memory and are written out as a Chrome-trace file when the run
// ends. Single-threaded: every layer call the benchmark makes comes from the
// benchmark's own thread.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;    ///< id from SpanRecorder::intern()
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::uint64_t id = 0;      ///< request handle or step index (0 if neither)
  double start_s = 0.0;      ///< seconds since the recorder's origin
  double end_s = 0.0;
  double seconds() const { return end_s - start_s; }
};

/// Per span: its duration minus the part of it that its direct children
/// cover (overlapping children are counted once; children are clipped to
/// the parent's interval).
std::vector<double> self_times(const std::vector<Span>& spans);

class SpanRecorder;

/// Share of the last span named `name` that its direct children cover (the
/// benchmark's check that its spans account for the measured wall); 0 when
/// there is no such span.
double child_coverage(SpanRecorder& spans, std::string_view name);

class SpanRecorder {
 public:
  SpanRecorder();

  /// Stable small id for a span name.
  std::uint32_t intern(std::string_view name);

  /// Open a span under the innermost open one; returns its index.
  std::size_t open(std::uint32_t name, std::uint64_t id = 0);
  /// Close the innermost open span, which must be `index`.
  void close(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  double now() const;

  /// Sum of the durations of spans named `name`.
  double total(std::uint32_t name) const;
  /// Durations (seconds) of every span named `name`, in order.
  std::vector<double> durations(std::uint32_t name) const;

  /// Chrome-trace JSON: one complete ("X") event per span on one lane, with
  /// id and parent index in the args.
  void write_chrome_trace(std::ostream& out) const;

  /// Opens on construction, closes on destruction; a null recorder makes it
  /// a no-op, so call sites need no branch.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::uint32_t name, std::uint64_t id = 0)
        : rec_(rec), index_(rec ? rec->open(name, id) : 0) {}
    ~Scope() {
      if (rec_) rec_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Set the span's id once it is known (e.g. the handle enqueue returns).
    void set_id(std::uint64_t id) {
      if (rec_) rec_->spans_[index_].id = id;
    }

   private:
    SpanRecorder* rec_;
    std::size_t index_;
  };

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
