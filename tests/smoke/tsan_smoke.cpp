// ThreadSanitizer smoke for the parallel host simulation path. Built into
// every configuration and registered with the `tsan` ctest label; under the
// `tsan` preset (-DDRIM_SANITIZE=thread) the whole stack is instrumented, so
// `ctest -L tsan` exercises the parallel run_batch fan-out — each DPU's
// query pushes, kernel, result pull and q4 exact rerank — and the merge with
// race detection, on the full rung, with CL on the PIM, and on the q4 rung
// at pipeline depth 2. The binary also cross-checks each parallel run
// against a single-threaded rerun and exits nonzero on any divergence, so in
// uninstrumented builds it doubles as a quick determinism smoke.

#include <cstdio>
#include <vector>

#include "common/parallel.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"

namespace {

struct Run {
  std::vector<std::vector<drim::Neighbor>> results;
  drim::DrimSearchStats stats;
};

/// One configuration of the smoke: CL on the host or the PIM, full or q4.
struct Mode {
  bool cl_on_pim = false;
  bool q4 = false;
};

Run run_search(const drim::IvfPqIndex& index, const drim::SyntheticData& data, Mode mode) {
  drim::DrimEngineOptions o;
  o.pim.num_dpus = 16;
  o.layout.split_threshold = 128;
  o.heat_nprobe = 6;
  o.batch_size = 12;  // several barrier batches with filter carry-over
  o.cl_on_pim = mode.cl_on_pim;
  o.enable_q4 = mode.q4;
  o.pipeline_depth = 2;
  drim::DrimAnnEngine engine(index, data.learn, o);
  Run run;
  run.results = engine.search(data.queries, 10, 6, &run.stats,
                              mode.q4 ? drim::Precision::kQ4 : drim::Precision::kFull);
  return run;
}

bool identical(const Run& a, const Run& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t q = 0; q < a.results.size(); ++q) {
    if (a.results[q].size() != b.results[q].size()) return false;
    for (std::size_t i = 0; i < a.results[q].size(); ++i) {
      if (a.results[q][i].id != b.results[q][i].id ||
          a.results[q][i].dist != b.results[q][i].dist) {
        return false;
      }
    }
  }
  return a.stats.total_seconds == b.stats.total_seconds &&
         a.stats.dpu_busy_seconds == b.stats.dpu_busy_seconds &&
         a.stats.transfer_in_seconds == b.stats.transfer_in_seconds &&
         a.stats.transfer_out_seconds == b.stats.transfer_out_seconds;
}

}  // namespace

int main() {
  drim::SyntheticSpec spec;
  spec.num_base = 4000;
  spec.num_queries = 40;
  spec.num_learn = 1500;
  spec.num_components = 24;
  const drim::SyntheticData data = drim::make_sift_like(spec);

  drim::IvfPqParams p;
  p.nlist = 24;
  p.pq.m = 8;
  p.pq.cb_entries = 16;
  drim::IvfPqIndex index;
  index.train(data.learn, p);
  index.add(data.base);

  for (const Mode mode : {Mode{false, false}, Mode{true, false}, Mode{false, true}}) {
    const Run par = run_search(index, data, mode);
    const int saved = drim::num_threads();
    drim::set_num_threads(1);
    const Run ser = run_search(index, data, mode);
    drim::set_num_threads(saved);
    if (!identical(par, ser)) {
      std::fprintf(stderr, "FAIL: parallel run diverged from serial (cl_on_pim=%d q4=%d)\n",
                   mode.cl_on_pim, mode.q4);
      return 1;
    }
    // The q4 mode must really run the rung (and with it the rerank tail).
    if (mode.q4 && !(par.stats.host_rerank_seconds > 0.0)) {
      std::fprintf(stderr, "FAIL: q4 run carried no q4 task\n");
      return 1;
    }
  }
  std::printf("ok: parallel batch path matches serial (threads=%d)\n",
              drim::num_threads());
  return 0;
}
