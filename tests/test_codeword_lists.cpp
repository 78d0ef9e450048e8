// Referenced-codeword lists (DESIGN.md §17): the full-rung LC builds only
// the LUT entries a shard's codes reference. These tests pin how the lists
// are built and where they live: one per (cluster, slice), shared by the
// slice's replicas, covering tombstoned points, rebuilt on every publish
// for the slices whose codes changed.
// The kernel side (the listed build against the scalar oracle, and a list
// with a codeword missing) is in test_kernels.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/mutable_index.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"

namespace drim {
namespace {

/// The codewords `list` marks for subquantizer `sub`, in id order.
std::vector<std::uint16_t> ids_of(const CodewordList& list, std::size_t sub) {
  std::vector<std::uint16_t> ids;
  for (std::size_t e = 0; e < list.cb; ++e) {
    if (list.listed(sub, e)) ids.push_back(static_cast<std::uint16_t>(e));
  }
  return ids;
}

void expect_same_list(const CodewordList& a, const CodewordList& b) {
  EXPECT_EQ(a.cb, b.cb);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.marks, b.marks);
}

TEST(KernelCodewordList, ListsEachReferencedCodewordOnceInIdOrder) {
  // Three points of m 2, narrow codes: sub 0 uses {3, 1}, sub 1 uses {0, 7}.
  const std::vector<std::uint8_t> codes = {3, 7, 1, 0, 3, 7};
  const CodewordList list = build_codeword_list(codes, 2, 8, false);
  ASSERT_EQ(list.offsets, (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(ids_of(list, 0), (std::vector<std::uint16_t>{1, 3}));
  EXPECT_EQ(ids_of(list, 1), (std::vector<std::uint16_t>{0, 7}));
  // One mark byte per subquantizer at cb 8.
  EXPECT_EQ(list.marks, (std::vector<std::uint8_t>{0b00001010, 0b10000001}));

  const CodewordList empty = build_codeword_list({}, 2, 8, false);
  EXPECT_EQ(empty.offsets, (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.marks, (std::vector<std::uint8_t>{0, 0}));
}

TEST(KernelCodewordList, WideCodesListIdsAbove255) {
  // cb 512 stores two-byte codes; ids above 255 must survive the round trip.
  // Three points of m 2: (300, 511), (2, 300), (511, 256).
  const std::vector<std::uint16_t> values = {300, 511, 2, 300, 511, 256};
  std::vector<std::uint8_t> codes(values.size() * 2);
  std::memcpy(codes.data(), values.data(), codes.size());
  const CodewordList list = build_codeword_list(codes, 2, 512, true);
  EXPECT_EQ(ids_of(list, 0), (std::vector<std::uint16_t>{2, 300, 511}));
  EXPECT_EQ(ids_of(list, 1), (std::vector<std::uint16_t>{256, 300, 511}));
  EXPECT_EQ(list.marks.size(), 2u * 64u);  // 64 mark bytes per subquantizer
  EXPECT_EQ(list.offsets, (std::vector<std::uint32_t>{0, 3, 6}));
}

class KernelCodewordListTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 3000;
    spec.num_queries = 24;
    spec.num_learn = 2000;
    spec.num_components = 16;
    data_ = new SyntheticData(make_sift_like(spec));

    IvfPqParams p;
    p.nlist = 16;
    p.pq.m = 16;
    p.pq.cb_entries = 256;
    index_ = new IvfPqIndex();
    index_->train(data_->learn, p);
    index_->add(data_->base);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
  }

  /// Small slices (several per cluster) and replicas of the hottest ones.
  static DrimEngineOptions options(PimPlatformKind kind = PimPlatformKind::kSim) {
    DrimEngineOptions o;
    o.pim.num_dpus = 8;
    o.layout.split_threshold = 64;
    o.layout.dup_fraction = 0.25;
    o.heat_nprobe = 4;
    o.batch_size = 8;
    o.platform = kind;
    return o;
  }

  /// The list build_codeword_list gives shard `sh`'s codes.
  static CodewordList list_of(const DrimAnnEngine& engine, const Shard& sh) {
    const PimIndexData& d = engine.data();
    return build_codeword_list(
        d.cluster_codes(sh.cluster).subspan(sh.begin * d.code_size(),
                                            std::size_t{sh.size()} * d.code_size()),
        d.m(), d.cb_entries(), d.wide_codes());
  }

  /// The shard of `engine`'s layout holding position `pos` of `cluster`
  /// (its first replica).
  static const Shard& shard_at(const DrimAnnEngine& engine, std::uint32_t cluster,
                               std::uint32_t pos) {
    for (const auto& replicas : engine.layout().slice_groups(cluster)) {
      const Shard& sh = engine.layout().shard(replicas.front());
      if (sh.begin <= pos && pos < sh.end) return sh;
    }
    ADD_FAILURE() << "no shard holds position " << pos << " of cluster " << cluster;
    return engine.layout().shard(0);
  }

  static inline SyntheticData* data_ = nullptr;
  static inline IvfPqIndex* index_ = nullptr;
};

TEST_F(KernelCodewordListTest, EachSplitSliceGetsItsOwnListSharedByItsReplicas) {
  const DrimAnnEngine engine(*index_, data_->learn, options());
  const std::size_t m = engine.data().m();
  const std::size_t cb = engine.data().cb_entries();
  bool split = false;
  bool replicated = false;
  bool sparse = false;
  for (std::uint32_t c = 0; c < engine.data().nlist(); ++c) {
    const auto& groups = engine.layout().slice_groups(c);
    split |= groups.size() > 1;
    std::set<const CodewordList*> slice_lists;
    for (const auto& replicas : groups) {
      const CodewordList& list = engine.codeword_list(replicas.front());
      slice_lists.insert(&list);
      expect_same_list(list, list_of(engine, engine.layout().shard(replicas.front())));
      sparse |= list.size() < m * cb;
      replicated |= replicas.size() > 1;
      for (const std::uint32_t r : replicas) EXPECT_EQ(&engine.codeword_list(r), &list);
    }
    EXPECT_EQ(slice_lists.size(), groups.size()) << "cluster " << c;
  }
  // The layout must exercise what the test claims.
  EXPECT_TRUE(split);
  EXPECT_TRUE(replicated);
  EXPECT_TRUE(sparse);
}

TEST_F(KernelCodewordListTest, TombstonedPointsCodesStayListed) {
  DrimAnnEngine engine(*index_, data_->learn, options());
  const PimIndexData& d = engine.data();
  // A point holding a codeword no other point of its slice uses.
  std::uint32_t cluster = 0, pos = 0, sub = 0, code = 0;
  bool found = false;
  for (const Shard& sh : engine.layout().shards()) {
    if (found || sh.replica != 0) continue;
    const auto codes = d.cluster_codes(sh.cluster);
    for (std::uint32_t s = 0; s < d.m() && !found; ++s) {
      std::vector<std::uint32_t> uses(d.cb_entries(), 0);
      for (std::uint32_t i = sh.begin; i < sh.end; ++i) ++uses[codes[i * d.code_size() + s]];
      for (std::uint32_t i = sh.begin; i < sh.end && !found; ++i) {
        const std::uint32_t e = codes[i * d.code_size() + s];
        if (uses[e] != 1) continue;
        found = true;
        cluster = sh.cluster, pos = i, sub = s, code = e;
      }
    }
  }
  ASSERT_TRUE(found);

  IndexWriter writer(*index_);
  ASSERT_TRUE(writer.erase(d.cluster_ids(cluster)[pos]));
  PublishDelta delta;
  const IndexSnapshot snap = writer.publish(&delta);
  engine.apply_snapshot(snap, delta);
  ASSERT_NE(engine.snapshot().dead_flags(cluster), nullptr);

  const Shard& sh = shard_at(engine, cluster, pos);
  EXPECT_TRUE(engine.codeword_list(sh.id).listed(sub, code))
      << "a tombstoned point's codeword left its slice's list";
  expect_same_list(engine.codeword_list(sh.id), list_of(engine, sh));
}

TEST_F(KernelCodewordListTest, PublishedInsertWithANewCodewordExtendsTheList) {
  DrimAnnEngine engine(*index_, data_->learn, options());
  IndexWriter writer(*index_);
  // A uniform random point, far from the data: its codes likely name
  // codewords its cluster never used (asserted below).
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> val(0.0f, 255.0f);
  std::vector<float> v(index_->dim());
  for (float& x : v) x = val(rng);
  const std::uint32_t id = writer.insert(v);
  PublishDelta delta;
  const IndexSnapshot snap = writer.publish(&delta);

  // Where the insert landed, and its code.
  std::uint32_t cluster = 0, pos = 0;
  bool found = false;
  for (std::uint32_t c = 0; c < snap->nlist() && !found; ++c) {
    const auto& ids = snap->list(c).ids;
    const auto it = std::find(ids.begin(), ids.end(), id);
    if (it == ids.end()) continue;
    found = true;
    cluster = c;
    pos = static_cast<std::uint32_t>(it - ids.begin());
  }
  ASSERT_TRUE(found);
  const std::size_t m = engine.data().m();
  const auto code = snap->list(cluster).code(pos, engine.data().code_size());

  // Codewords of the insert that no slice of its cluster listed before.
  std::size_t new_codewords = 0;
  for (std::size_t s = 0; s < m; ++s) {
    bool before = false;
    for (const auto& replicas : engine.layout().slice_groups(cluster)) {
      before |= engine.codeword_list(replicas.front()).listed(s, code[s]);
    }
    new_codewords += before ? 0 : 1;
  }
  ASSERT_GT(new_codewords, 0u) << "the insert names no new codeword";

  engine.apply_snapshot(snap, delta);
  const Shard& sh = shard_at(engine, cluster, pos);
  for (std::size_t s = 0; s < m; ++s) {
    EXPECT_TRUE(engine.codeword_list(sh.id).listed(s, code[s])) << "sub " << s;
  }
  expect_same_list(engine.codeword_list(sh.id), list_of(engine, sh));

  // The published sim engine still answers exactly like the analytic
  // platform, whose host replay builds dense tables. Probing every cluster
  // scans the slice the insert landed in.
  DrimAnnEngine analytic(snap, data_->learn, options(PimPlatformKind::kAnalytic));
  const std::size_t nprobe = snap->nlist();
  const auto a = engine.search(data_->queries, 10, nprobe);
  const auto b = analytic.search(data_->queries, 10, nprobe);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(a[q][i].dist, b[q][i].dist) << "query " << q << " rank " << i;
    }
  }
}

TEST_F(KernelCodewordListTest, KeptListsMatchAFreshBuildAfterPublishAndRelayout) {
  // Slices whose codes a rebuild leaves untouched keep their lists; every
  // list must still be exactly the one its current codes give.
  DrimAnnEngine engine(*index_, data_->learn, options());
  auto expect_all_fresh = [&](const char* when) {
    for (const Shard& sh : engine.layout().shards()) {
      SCOPED_TRACE(std::string(when) + ", shard " + std::to_string(sh.id));
      expect_same_list(engine.codeword_list(sh.id), list_of(engine, sh));
    }
  };

  // A publish with a tombstone (codes kept) and an insert (one cluster's
  // codes grow).
  IndexWriter writer(*index_);
  ASSERT_TRUE(writer.erase(engine.data().cluster_ids(0)[0]));
  writer.insert(data_->queries.row(0));
  PublishDelta delta;
  const IndexSnapshot snap = writer.publish(&delta);
  engine.apply_snapshot(snap, delta);
  expect_all_fresh("after a publish");

  // A relayout re-places every slice over the same codes.
  engine.search(data_->queries, 10, 4);
  engine.replan_layout();
  expect_all_fresh("after a relayout");
}

TEST_F(KernelCodewordListTest, SameBoundsWithChangedCodesRebuildTheList) {
  // A snapshot with every list the same size keeps every slice's bounds; a
  // slice whose code bytes changed must still get a fresh list.
  IvfPqIndex altered;
  DrimAnnEngine engine(*index_, data_->learn, options());
  // A copy: the snapshot below rebuilds the layout and frees its shards.
  const Shard first = shard_at(engine, 0, 0);
  std::uint32_t unused = 0;
  while (unused < engine.data().cb_entries() &&
         engine.codeword_list(first.id).listed(0, unused)) {
    ++unused;
  }
  ASSERT_LT(unused, engine.data().cb_entries());

  std::vector<InvertedList> lists;
  for (std::size_t c = 0; c < index_->nlist(); ++c) lists.push_back(index_->list(c));
  lists[0].codes[0] = static_cast<std::uint8_t>(unused);  // point 0, sub 0
  altered.restore(index_->params(), index_->centroids(), index_->pq(), nullptr,
                  std::move(lists), index_->ntotal());
  engine.apply_snapshot(make_root_snapshot(altered), PublishDelta{});

  const Shard& sh = shard_at(engine, 0, 0);
  EXPECT_EQ(sh.begin, first.begin);
  EXPECT_TRUE(engine.codeword_list(sh.id).listed(0, unused));
  for (const Shard& s : engine.layout().shards()) {
    expect_same_list(engine.codeword_list(s.id), list_of(engine, s));
  }
}

}  // namespace
}  // namespace drim
