#pragma once
// Phase-level tracing on the simulator's virtual clock. A TraceRecorder
// collects spans (phases with a duration), instants (point events), and
// counter samples, each stamped in virtual seconds and attached to a named
// lane (one lane per DPU, one per host phase, one per serve-layer stream).
// The recorder exports the Chrome-trace / Perfetto JSON event format, so a
// --trace file drops straight into ui.perfetto.dev or chrome://tracing.
//
// The recorder is a passive sink: producers (DrimAnnEngine, the backends,
// ServingRuntime) position the `now` cursor on their virtual clock and emit
// events at absolute times. One recorder has one producer thread at a time;
// spans are emitted after a batch completes, never inside the parallel
// kernel loops. Producers that step concurrently (the cluster router's
// shards) each emit into a private per-shard recorder, and the owner splices
// those into its own in shard order after the barrier (splice()), which
// reproduces the lane table and event order of emitting serially.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace drim::obs {

/// One (key, numeric value) annotation attached to an event.
using TraceArg = std::pair<std::string, double>;

class TraceRecorder {
 public:
  // ---- virtual-clock cursor ----
  // Producers stamp events at absolute virtual times; the cursor lets a
  // producer that only knows durations (e.g. the engine inside one serving
  // step) chain spans without threading a clock through every call.
  void set_now(double t_s) { now_s_ = t_s; }
  void advance(double dt_s) { now_s_ += dt_s; }
  double now() const { return now_s_; }

  // ---- lanes ----
  /// Get-or-create the lane (Chrome-trace tid) with this display name.
  /// Lanes keep their registration order in the exported sort index, so
  /// host lanes registered first stay above the per-DPU lanes.
  std::uint32_t lane(const std::string& name);

  /// Move every lane and event of `child` into this recorder, lane names
  /// prefixed with `lane_prefix` (e.g. "shard0/"). Child lanes are looked
  /// up here in the child's registration order and events append in the
  /// child's order, so splicing per-shard children in shard order yields
  /// exactly the trace those shards would have emitted into this recorder
  /// one after another. Leaves `child` with no lanes and no events; neither
  /// cursor moves.
  void splice(TraceRecorder& child, const std::string& lane_prefix);

  // ---- events (times in absolute virtual seconds) ----
  void span(std::uint32_t lane, std::string name, std::string cat,
            double start_s, double duration_s, std::vector<TraceArg> args = {});
  void instant(std::uint32_t lane, std::string name, std::string cat,
               double t_s, std::vector<TraceArg> args = {});
  /// Counter sample: one stacked-area track per `name`, one series per arg.
  void counter(std::string name, double t_s, std::vector<TraceArg> series);

  std::size_t num_events() const { return events_.size(); }
  std::size_t num_lanes() const { return lane_names_.size(); }
  bool empty() const { return events_.empty(); }

  // ---- export ----
  /// Write the Chrome-trace JSON object ({"traceEvents": [...]}) with one
  /// metadata block naming the process and every lane.
  void write_chrome_trace(std::ostream& out) const;
  /// Same, to a file; throws std::runtime_error if the file can't be opened.
  void write_chrome_trace_file(const std::string& path) const;

 private:
  struct Event {
    char ph = 'X';        // X = span, i = instant, C = counter
    std::uint32_t tid = 0;
    std::string name;
    std::string cat;
    double ts_us = 0.0;
    double dur_us = 0.0;  // spans only
    std::vector<TraceArg> args;
  };

  std::vector<std::string> lane_names_;
  std::vector<Event> events_;
  double now_s_ = 0.0;
};

}  // namespace drim::obs
