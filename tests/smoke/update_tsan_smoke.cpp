// ThreadSanitizer smoke for the mutable-index path: the parallel batch
// machinery (multithreaded staging / kernel / collection) interleaved with
// between-batch snapshot publishes and re-layouts, on BOTH platform presets,
// plus a sim run with CL on the PIM. Each publish resets simulated MRAM, so
// that run's next staged-query broadcast lands in fresh shared pages, which
// the CL kernels then read and copy-on-write their outputs into
// concurrently. Registered with the `tsan` ctest label, so
// -DDRIM_SANITIZE=thread races the publish swap and the shared pages
// against the worker pool. Like the other smokes it also self-checks in
// uninstrumented builds: the streamed-and-published run must end
// bit-identical to a cold rebuild of the same logical state, and the two
// platforms must agree, or the binary exits nonzero.

#include <cstdio>
#include <vector>

#include "core/mutable_index.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"

namespace {

drim::DrimEngineOptions make_options(drim::PimPlatformKind kind, bool cl_on_pim) {
  drim::DrimEngineOptions o;
  o.pim.num_dpus = 16;
  o.layout.split_threshold = 128;
  o.heat_nprobe = 6;
  o.batch_size = 12;
  o.platform = kind;
  o.cl_on_pim = cl_on_pim;
  return o;
}

bool identical(const std::vector<std::vector<drim::Neighbor>>& a,
               const std::vector<std::vector<drim::Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) return false;
    }
  }
  return true;
}

/// Stream batches through one engine while mutating + publishing between
/// them; returns the final-version closed-loop results.
std::vector<std::vector<drim::Neighbor>> run_streamed(
    const drim::IvfPqIndex& index, const drim::SyntheticData& data,
    const drim::FloatMatrix& base_float, drim::IndexWriter& writer,
    const drim::DrimEngineOptions& options) {
  drim::DrimAnnEngine engine(index, data.learn, options);
  drim::SearchBatchState state;
  const std::size_t rounds = 4;
  for (std::size_t r = 0; r < rounds; ++r) {
    // One parallel batch of queries on the current version...
    engine.enqueue_queries(state, data.queries, 10, 6);
    while (!state.idle()) engine.search_batch(state, 0, /*flush=*/true);
    // ...then mutate and swap the version in between batches.
    for (std::size_t i = 0; i < 24; ++i) {
      writer.insert(base_float.row((r * 24 + i) % base_float.count()));
    }
    writer.erase(static_cast<std::uint32_t>(r * 13));
    drim::PublishDelta delta;
    const drim::IndexSnapshot snap = writer.publish(&delta);
    engine.apply_snapshot(snap, delta);
    if (r == rounds / 2) engine.replan_layout();
  }
  return engine.search(data.queries, 10, 6);
}

}  // namespace

int main() {
  drim::SyntheticSpec spec;
  spec.num_base = 4000;
  spec.num_queries = 40;
  spec.num_learn = 1500;
  spec.num_components = 24;
  const drim::SyntheticData data = drim::make_sift_like(spec);
  const drim::FloatMatrix base_float = data.base.to_float();

  drim::IvfPqParams p;
  p.nlist = 24;
  p.pq.m = 8;
  p.pq.cb_entries = 16;
  drim::IvfPqIndex index;
  index.train(data.learn, p);
  index.add(data.base);

  struct Config {
    drim::PimPlatformKind kind;
    bool cl_on_pim;
  };
  std::vector<std::vector<std::vector<drim::Neighbor>>> per_config;
  for (const Config c : {Config{drim::PimPlatformKind::kSim, false},
                         Config{drim::PimPlatformKind::kAnalytic, false},
                         Config{drim::PimPlatformKind::kSim, true}}) {
    const drim::DrimEngineOptions options = make_options(c.kind, c.cl_on_pim);
    drim::IndexWriter writer(index);
    const auto streamed = run_streamed(index, data, base_float, writer, options);

    // The published stream must equal a cold rebuild of the final state.
    const drim::IvfPqIndex cold_index = writer.compacted_index();
    drim::DrimAnnEngine cold(cold_index, data.learn, options);
    const auto rebuilt = cold.search(data.queries, 10, 6);
    if (!identical(streamed, rebuilt)) {
      std::fprintf(stderr,
                   "update tsan smoke: streamed run diverged from cold "
                   "rebuild (platform %d, cl_on_pim %d)\n",
                   static_cast<int>(c.kind), c.cl_on_pim);
      return 1;
    }
    per_config.push_back(streamed);
  }

  if (!identical(per_config[0], per_config[1])) {
    std::fprintf(stderr, "update tsan smoke: sim and analytic disagree\n");
    return 1;
  }
  std::printf("update tsan smoke: %zu queries x 3 configurations OK\n",
              data.queries.count());
  return 0;
}
