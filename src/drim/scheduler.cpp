#include "drim/scheduler.hpp"

#include <algorithm>
#include <numeric>

namespace drim {

Assignment RuntimeScheduler::schedule(const std::vector<std::vector<std::uint32_t>>& probes,
                                      std::size_t begin, std::size_t end,
                                      const std::vector<Task>& carried,
                                      bool final_batch,
                                      const std::vector<std::uint8_t>* precision) const {
  const std::size_t num_dpus = layout_.num_dpus();
  Assignment out;
  out.per_dpu.resize(num_dpus);
  out.predicted_load.assign(num_dpus, 0.0);

  // Rung of a global query id (nonzero = the cheap 4-bit rung).
  const auto is_q4 = [&](std::uint32_t q) {
    return precision != nullptr && q < precision->size() && (*precision)[q] != 0;
  };

  // Expand (q, c) pairs into slice tasks; carried tasks are already
  // shard-resolved but still re-pick their replica this batch.
  struct Candidate {
    std::uint32_t query;
    const std::vector<std::uint32_t>* replicas;  // shard ids to choose among
    double cost;
  };
  std::vector<Candidate> candidates;

  std::vector<std::vector<std::uint32_t>> carried_groups;  // stable storage
  carried_groups.reserve(carried.size());
  for (const Task& t : carried) {
    const Shard& sh = layout_.shard(t.shard);
    // Re-offer every replica of the deferred slice.
    std::uint32_t slice_idx = 0;
    const auto& groups = layout_.slice_groups(sh.cluster);
    for (std::uint32_t s = 0; s < groups.size(); ++s) {
      if (std::find(groups[s].begin(), groups[s].end(), t.shard) != groups[s].end()) {
        slice_idx = s;
        break;
      }
    }
    candidates.push_back({t.query, &groups[slice_idx], task_cost(sh, is_q4(t.query))});
  }

  for (std::size_t q = begin; q < end; ++q) {
    const bool q4 = is_q4(static_cast<std::uint32_t>(q));
    for (std::uint32_t c : probes[q]) {
      for (const auto& group : layout_.slice_groups(c)) {
        if (group.empty()) continue;
        candidates.push_back({static_cast<std::uint32_t>(q), &group,
                              task_cost(layout_.shard(group.front()), q4)});
      }
    }
  }

  if (params_.policy == SchedulePolicy::kGreedy) {
    // Greedy longest-processing-time, least flexible first: tasks with the
    // fewest replicas go first (single-owner tasks have no choice, so their
    // load is known before any replica is picked), heaviest first among
    // equals, each onto the least-loaded DPU among the replicas holding it.
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const std::size_t ra = candidates[a].replicas->size();
      const std::size_t rb = candidates[b].replicas->size();
      if (ra != rb) return ra < rb;
      return candidates[a].cost > candidates[b].cost;
    });

    for (std::size_t idx : order) {
      const Candidate& cand = candidates[idx];
      std::uint32_t best_shard = cand.replicas->front();
      double best_load = out.predicted_load[layout_.shard(best_shard).dpu];
      for (std::uint32_t shard_id : *cand.replicas) {
        const double load = out.predicted_load[layout_.shard(shard_id).dpu];
        if (load < best_load) {
          best_load = load;
          best_shard = shard_id;
        }
      }
      const std::uint32_t dpu = layout_.shard(best_shard).dpu;
      out.per_dpu[dpu].push_back({cand.query, best_shard});
      out.predicted_load[dpu] += cand.cost;
    }
  } else {
    // Ablation baseline: rotate through each slice's replicas in arrival
    // order, blind to predicted load.
    std::size_t rr = 0;
    for (const Candidate& cand : candidates) {
      const std::uint32_t shard_id = (*cand.replicas)[rr++ % cand.replicas->size()];
      const std::uint32_t dpu = layout_.shard(shard_id).dpu;
      out.per_dpu[dpu].push_back({cand.query, shard_id});
      out.predicted_load[dpu] += cand.cost;
    }
  }

  // Filter: predicted-slow DPUs hand their cheapest tasks to the next batch
  // ("a DPU that had a long execution time in the previous batch may not
  // necessarily have a long execution time in the next batch").
  if (params_.enable_filter && !final_batch && !candidates.empty()) {
    const double mean_load =
        std::accumulate(out.predicted_load.begin(), out.predicted_load.end(), 0.0) /
        static_cast<double>(num_dpus);
    const double cap = (1.0 + params_.filter_slack) * mean_load;
    for (std::size_t dpu = 0; dpu < num_dpus; ++dpu) {
      auto& tasks = out.per_dpu[dpu];
      // Cheapest tasks leave first so the DPU keeps its big, cache-resident
      // work and the deferral costs the next batch as little as possible.
      std::stable_sort(tasks.begin(), tasks.end(), [&](const Task& a, const Task& b) {
        return task_cost(layout_.shard(a.shard), is_q4(a.query)) >
               task_cost(layout_.shard(b.shard), is_q4(b.query));
      });
      while (out.predicted_load[dpu] > cap && !tasks.empty()) {
        const Task t = tasks.back();
        tasks.pop_back();
        out.predicted_load[dpu] -= task_cost(layout_.shard(t.shard), is_q4(t.query));
        out.deferred.push_back(t);
      }
    }
  }
  return out;
}

}  // namespace drim
