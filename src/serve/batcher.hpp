#pragma once
// Dynamic batching for the serving runtime: admitted requests queue here
// while a step is in flight, and a PIM batch launches into a free pipeline
// slot when either trigger fires — the queue reaches max_batch (size
// trigger) or the oldest request has waited max_wait_s (deadline trigger).
// With no step in flight the runtime takes whatever is queued at once
// (ServingRuntime::run): a step's DPU cost grows with its task count, so an
// idle array gains little by waiting for a fuller batch. max_batch bounds
// staging memory and per-batch work; max_wait_s bounds how long a request
// waits behind in-flight steps for a slot to take it.

#include <cstddef>
#include <deque>
#include <limits>
#include <vector>

#include "serve/workload.hpp"

namespace drim::serve {

struct BatcherParams {
  std::size_t max_batch = 32;  ///< size trigger (also the pop bound)
  double max_wait_s = 2e-3;    ///< deadline trigger from the oldest enqueue
};

/// FIFO queue with the two launch triggers evaluated on the virtual clock.
class DynamicBatcher {
 public:
  explicit DynamicBatcher(const BatcherParams& params) : params_(params) {}

  const BatcherParams& params() const { return params_; }

  void enqueue(const Request& request, double now_s);

  std::size_t depth() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// Virtual time at which the deadline trigger fires for the current queue
  /// head (+inf when empty).
  double deadline_s() const {
    return queue_.empty() ? std::numeric_limits<double>::infinity()
                          : queue_.front().enqueue_s + params_.max_wait_s;
  }

  /// True when a batch should launch into a free slot now: size trigger or
  /// deadline trigger.
  bool ready(double now_s) const {
    if (queue_.size() >= params_.max_batch) return true;
    return !queue_.empty() && now_s >= deadline_s();
  }

  /// Pop up to max_batch requests in FIFO order.
  std::vector<Request> take_batch();

 private:
  struct Entry {
    Request request;
    double enqueue_s = 0.0;
  };
  BatcherParams params_;
  std::deque<Entry> queue_;
};

}  // namespace drim::serve
