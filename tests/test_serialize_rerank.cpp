// Tests for index serialization round-trips and exact re-ranking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "baseline/cpu_ivfpq.hpp"
#include "core/flat_search.hpp"
#include "core/rerank.hpp"
#include "core/serialize.hpp"
#include "data/recall.hpp"
#include "data/synthetic.hpp"

namespace drim {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 3000;
    spec.num_queries = 30;
    spec.num_learn = 1200;
    spec.num_components = 16;
    data_ = new SyntheticData(make_sift_like(spec));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
  }
  std::string temp_path(const char* name) {
    auto p = (std::filesystem::temp_directory_path() / name).string();
    files_.push_back(p);
    return p;
  }

  static IvfPqIndex make_index(PQVariant variant) {
    IvfPqParams p;
    p.nlist = 16;
    p.pq.m = 16;
    p.pq.cb_entries = 32;
    p.variant = variant;
    p.opq_iters = 3;
    IvfPqIndex index;
    index.train(data_->learn, p);
    index.add(data_->base);
    return index;
  }

  static void expect_same_results(const IvfPqIndex& a, const IvfPqIndex& b) {
    for (std::size_t q = 0; q < data_->queries.count(); ++q) {
      const auto ra = a.search(data_->queries.row(q), 10, 8);
      const auto rb = b.search(data_->queries.row(q), 10, 8);
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].id, rb[i].id);
        EXPECT_FLOAT_EQ(ra[i].dist, rb[i].dist);
      }
    }
  }

  static SyntheticData* data_;
  std::vector<std::string> files_;
};

SyntheticData* SerializeTest::data_ = nullptr;

TEST_F(SerializeTest, PqIndexRoundTrips) {
  const IvfPqIndex index = make_index(PQVariant::kPQ);
  const std::string path = temp_path("drim_pq.idx");
  save_index(index, path);
  const IvfPqIndex loaded = load_index(path);

  EXPECT_EQ(loaded.nlist(), index.nlist());
  EXPECT_EQ(loaded.ntotal(), index.ntotal());
  EXPECT_EQ(loaded.code_size(), index.code_size());
  EXPECT_EQ(loaded.variant(), PQVariant::kPQ);
  expect_same_results(index, loaded);
}

TEST_F(SerializeTest, OpqIndexRoundTripsWithRotation) {
  const IvfPqIndex index = make_index(PQVariant::kOPQ);
  const std::string path = temp_path("drim_opq.idx");
  save_index(index, path);
  const IvfPqIndex loaded = load_index(path);

  ASSERT_NE(loaded.opq(), nullptr);
  EXPECT_LT(loaded.opq()->rotation().frobenius_distance(index.opq()->rotation()), 1e-12);
  expect_same_results(index, loaded);
}

TEST_F(SerializeTest, DpqIndexRoundTrips) {
  const IvfPqIndex index = make_index(PQVariant::kDPQ);
  const std::string path = temp_path("drim_dpq.idx");
  save_index(index, path);
  expect_same_results(index, load_index(path));
}

TEST_F(SerializeTest, UntrainedIndexRefusesToSave) {
  IvfPqIndex index;
  EXPECT_THROW(save_index(index, temp_path("drim_untrained.idx")), std::runtime_error);
}

TEST_F(SerializeTest, BadMagicRejected) {
  const std::string path = temp_path("drim_bad.idx");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOPE-not-an-index", f);
  std::fclose(f);
  EXPECT_THROW(load_index(path), std::runtime_error);
}

TEST_F(SerializeTest, MissingFileRejected) {
  EXPECT_THROW(load_index("/nonexistent/nothing.idx"), std::runtime_error);
}

TEST_F(SerializeTest, TruncatedFileRejected) {
  const IvfPqIndex index = make_index(PQVariant::kPQ);
  const std::string path = temp_path("drim_trunc.idx");
  save_index(index, path);
  // Truncate to the first 100 bytes.
  std::filesystem::resize_file(path, 100);
  EXPECT_THROW(load_index(path), std::runtime_error);
}

// ---- corrupt files ----
// Every length field is checked against the bytes left in the file before
// anything is allocated for it, so a truncated or corrupt index fails with
// a runtime_error — never bad_alloc, a multi-GB allocation or a read past
// the data.

class CorruptIndexTest : public SerializeTest {
 protected:
  /// A tiny saved index, so a sweep over every byte offset stays fast.
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_base = 48;
    spec.num_queries = 1;
    spec.num_learn = 256;
    spec.dim = 16;
    spec.num_components = 4;
    const SyntheticData data = make_sift_like(spec);
    IvfPqParams p;
    p.nlist = 4;
    p.pq.m = 4;
    p.pq.cb_entries = 16;
    index_.train(data.learn, p);
    index_.add(data.base);
    // Named per test: ctest runs the tests as concurrent processes.
    const std::string stem =
        std::string("drim_") + ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string path = temp_path((stem + "_src.idx").c_str());
    save_index(index_, path);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    bytes_.resize(std::filesystem::file_size(path));
    ASSERT_EQ(std::fread(bytes_.data(), 1, bytes_.size(), f), bytes_.size());
    std::fclose(f);
    corrupt_path_ = temp_path((stem + ".idx").c_str());
  }

  /// Offsets of the file's u64 length fields, walked from the format:
  /// header, centroid matrix, PQ codebooks, then per list ids and codes.
  std::vector<std::size_t> length_fields() const {
    std::vector<std::size_t> at;
    std::size_t o = 4 + 4;  // magic, version
    at.push_back(o);        // nlist
    o += 8 + 8 + 8 + 1 + 8;  // nlist, m, cb, variant, ntotal
    auto matrix = [&](std::size_t rows, std::size_t cols) {
      at.push_back(o);
      at.push_back(o + 8);
      o += 16 + rows * cols * sizeof(float);
    };
    matrix(index_.nlist(), index_.dim());
    at.push_back(o + 8);  // PQ m: the codebook count (dim and cb are shape)
    o += 24;
    for (std::size_t sub = 0; sub < index_.pq().m(); ++sub) {
      matrix(index_.pq().cb_entries(), index_.dim() / index_.pq().m());
    }
    for (std::size_t c = 0; c < index_.nlist(); ++c) {
      at.push_back(o);
      o += 8 + index_.list(c).ids.size() * sizeof(std::uint32_t);
      at.push_back(o);
      o += 8 + index_.list(c).codes.size();
    }
    EXPECT_EQ(o, bytes_.size()) << "the walker must match the format";
    return at;
  }

  void expect_rejected(const std::vector<std::uint8_t>& file, const std::string& what) {
    // A fresh file each time: rewriting one in place can force a flush on
    // close (ext4's replace-by-truncate heuristic), which makes the sweeps
    // crawl.
    std::remove(corrupt_path_.c_str());
    std::FILE* f = std::fopen(corrupt_path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!file.empty()) {
      ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    }
    std::fclose(f);
    try {
      load_index(corrupt_path_);
      ADD_FAILURE() << what << ": loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("index"), std::string::npos)
          << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": threw a non-runtime_error: " << e.what();
    }
  }

  IvfPqIndex index_;
  std::vector<std::uint8_t> bytes_;
  std::string corrupt_path_;
};

TEST_F(CorruptIndexTest, TruncationAtEveryOffsetIsRejected) {
  ASSERT_NO_THROW(load_index(files_.front()));
  ASSERT_GT(bytes_.size(), 1000u);
  for (std::size_t n = 0; n < bytes_.size(); ++n) {
    expect_rejected({bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(n)},
                    "truncated to " + std::to_string(n));
  }
}

TEST_F(CorruptIndexTest, LargeValueInEveryLengthFieldIsRejected) {
  const std::vector<std::size_t> fields = length_fields();
  ASSERT_EQ(fields.size(), 1 + 2 + 1 + 2 * index_.pq().m() + 2 * index_.nlist());
  for (const std::uint64_t big :
       {~std::uint64_t{0}, std::uint64_t{1} << 62, std::uint64_t{1} << 40,
        static_cast<std::uint64_t>(bytes_.size())}) {
    for (const std::size_t at : fields) {
      std::vector<std::uint8_t> file = bytes_;
      std::memcpy(file.data() + at, &big, sizeof(big));
      expect_rejected(file, "length " + std::to_string(big) + " at offset " +
                                std::to_string(at));
    }
  }
}

// Header fields the sections must agree with. Offsets follow the format:
// magic, version, nlist @8, m @16, cb @24, variant @32, ntotal @33, then the
// centroid matrix (count, dim, floats) and the PQ section (dim, m, cb, ...).
TEST_F(CorruptIndexTest, HeaderThatDisagreesWithItsSectionsIsRejected) {
  constexpr std::size_t kM = 16, kCb = 24, kVariant = 32, kNtotal = 33, kCentroids = 41;
  const std::size_t pq_at =
      kCentroids + 16 + index_.nlist() * index_.dim() * sizeof(float);
  auto patched = [&](std::size_t at, std::uint64_t value, std::size_t width = 8) {
    std::vector<std::uint8_t> file = bytes_;
    std::memcpy(file.data() + at, &value, width);
    return file;
  };
  std::uint32_t max_id = 0;
  for (std::size_t c = 0; c < index_.nlist(); ++c) {
    for (const std::uint32_t id : index_.list(c).ids) max_id = std::max(max_id, id);
  }

  expect_rejected(patched(kM, 2), "header m 2 for a 4-way quantizer");
  expect_rejected(patched(kM, 7), "header m 7 for a 4-way quantizer");
  expect_rejected(patched(kCb, 32), "header cb 32 for 16-entry codebooks");
  expect_rejected(patched(kVariant, 3, 1), "variant byte 3");
  expect_rejected(patched(kVariant, 9, 1), "variant byte 9");
  expect_rejected(patched(kNtotal, max_id), "ntotal equal to the largest stored id");
  expect_rejected(patched(kNtotal, 0), "ntotal 0 with stored ids");
  expect_rejected(patched(kNtotal, (std::uint64_t{1} << 32) + 1),
                  "ntotal past the 32-bit id space");
  expect_rejected(patched(kNtotal, std::uint64_t{1} << 40), "ntotal 2^40");

  // A centroid matrix of half the dim, spliced in whole, so every later
  // section still parses: only the dim check can tell.
  {
    const std::size_t half = index_.dim() / 2;
    std::vector<std::uint8_t> file(bytes_.begin(), bytes_.begin() + kCentroids + 8);
    const std::uint64_t dim = half;
    file.insert(file.end(), reinterpret_cast<const std::uint8_t*>(&dim),
                reinterpret_cast<const std::uint8_t*>(&dim) + 8);
    file.insert(file.end(), bytes_.begin() + kCentroids + 16,
                bytes_.begin() + kCentroids + 16 + index_.nlist() * half * sizeof(float));
    file.insert(file.end(), bytes_.begin() + pq_at, bytes_.end());
    expect_rejected(file, "centroid dim half the quantizer's");
  }

  // A geometry ProductQuantizer::restore rejects (cb < 2), with the header
  // agreeing, surfaces as the same runtime_error rather than invalid_argument.
  {
    std::vector<std::uint8_t> file = patched(kCb, 1);
    const std::uint64_t one = 1;
    std::memcpy(file.data() + pq_at + 16, &one, sizeof(one));
    expect_rejected(file, "cb 1 in header and quantizer");
  }

  // The unpatched header, and ntotal at exactly the largest id + 1, load.
  EXPECT_EQ(index_.ntotal(), std::size_t{max_id} + 1);
  std::remove(corrupt_path_.c_str());
  {
    std::FILE* f = std::fopen(corrupt_path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes_.data(), 1, bytes_.size(), f), bytes_.size());
    std::fclose(f);
  }
  const IvfPqIndex loaded = load_index(corrupt_path_);
  EXPECT_EQ(loaded.ntotal(), index_.ntotal());
  EXPECT_EQ(loaded.pq().m(), index_.pq().m());
}

// Every id in range, but one stored twice: across two lists (a point in two
// clusters) or within one. Either way the file names the repeated id.
TEST_F(CorruptIndexTest, DuplicateIdIsRejected) {
  const std::vector<std::size_t> fields = length_fields();
  // Per list, the offset of its first id: just past its ids length field.
  const std::size_t lists_at = fields.size() - 2 * index_.nlist();
  std::vector<std::size_t> first_id;
  std::vector<std::uint32_t> list_of;
  for (std::size_t c = 0; c < index_.nlist(); ++c) {
    if (index_.list(c).ids.size() < 2) continue;
    first_id.push_back(fields[lists_at + 2 * c] + 8);
    list_of.push_back(static_cast<std::uint32_t>(c));
  }
  ASSERT_GE(first_id.size(), 2u) << "needs two lists of two or more points";

  auto expect_duplicate = [&](std::size_t at, std::uint32_t id, const std::string& what) {
    std::vector<std::uint8_t> file = bytes_;
    std::memcpy(file.data() + at, &id, sizeof(id));
    std::remove(corrupt_path_.c_str());
    std::FILE* f = std::fopen(corrupt_path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
    try {
      load_index(corrupt_path_);
      ADD_FAILURE() << what << ": loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "corrupt index file: duplicate id " + std::to_string(id))
          << what;
    }
  };
  const std::uint32_t a = index_.list(list_of[0]).ids[0];
  expect_duplicate(first_id[1], a, "list " + std::to_string(list_of[1]) +
                                       " repeats list " + std::to_string(list_of[0]) +
                                       "'s first id");
  expect_duplicate(first_id[0] + sizeof(std::uint32_t), a,
                   "list " + std::to_string(list_of[0]) + " repeats its first id");
}

TEST_F(SerializeTest, RerankImprovesRecall) {
  const IvfPqIndex index = make_index(PQVariant::kPQ);
  CpuIvfPq cpu(index);
  const std::size_t k = 10;
  const auto gt = flat_search_all(data_->base, data_->queries, k);

  // ADC top-10 directly vs ADC top-50 re-ranked exactly to 10.
  const auto adc10 = cpu.search_batch(data_->queries, k, 8);
  const auto adc50 = cpu.search_batch(data_->queries, 50, 8);
  const auto refined = rerank_exact_all(data_->base, data_->queries, adc50, k);

  const double base_recall = mean_recall_at_k(adc10, gt, k);
  const double refined_recall = mean_recall_at_k(refined, gt, k);
  EXPECT_GE(refined_recall, base_recall);
  EXPECT_GT(refined_recall, base_recall + 0.01)
      << "re-ranking 5x candidates should visibly lift recall";
}

TEST_F(SerializeTest, RerankReturnsExactDistances) {
  const IvfPqIndex index = make_index(PQVariant::kPQ);
  const auto cands = index.search(data_->queries.row(0), 20, 8);
  const auto refined = rerank_exact(data_->base, data_->queries.row(0), cands, 5);
  ASSERT_LE(refined.size(), 5u);
  for (const Neighbor& n : refined) {
    std::vector<float> v(data_->base.dim());
    data_->base.row_as_float(n.id, v);
    float exact = 0.0f;
    for (std::size_t d = 0; d < v.size(); ++d) {
      const float diff = data_->queries.row(0)[d] - v[d];
      exact += diff * diff;
    }
    EXPECT_FLOAT_EQ(n.dist, exact);
  }
}

TEST_F(SerializeTest, RerankHandlesFewerCandidatesThanK) {
  const IvfPqIndex index = make_index(PQVariant::kPQ);
  const auto cands = index.search(data_->queries.row(0), 3, 4);
  const auto refined = rerank_exact(data_->base, data_->queries.row(0), cands, 10);
  EXPECT_EQ(refined.size(), cands.size());
}

}  // namespace
}  // namespace drim
