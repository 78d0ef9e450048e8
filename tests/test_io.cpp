// Round-trip tests for the TEXMEX .fvecs/.bvecs/.ivecs readers and writers,
// and the readers' rejection of truncated and oversized records.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <stdexcept>

#include "common/io.hpp"
#include "common/rng.hpp"

namespace drim {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::string track(std::string p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

std::vector<char> slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& p, const char* bytes, std::size_t n) {
  // A fresh file rather than a truncated one: some filesystems flush a
  // file that was truncated and rewritten when it is closed.
  std::remove(p.c_str());
  std::ofstream out(p, std::ios::binary);
  out.write(bytes, static_cast<std::streamsize>(n));
}

/// Expect `read` to reject `p` with runtime_error (never bad_alloc or
/// success) and return the message.
template <typename Read>
void expect_rejected(const Read& read, const std::string& p, const std::string& what) {
  try {
    read(p);
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << what << ": bad_alloc";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos) << what << ": " << e.what();
  }
}

/// Write a three-record file with `write`, then cut it at every byte offset:
/// a cut on a record boundary reads that many whole records, every other cut
/// is rejected.
template <typename T, typename Write, typename Read>
void sweep_truncation(const std::string& p, const Write& write, const Read& read) {
  VecFile<T> v;
  v.count = 3;
  v.dim = 5;
  for (std::size_t i = 0; i < v.count * v.dim; ++i) v.data.push_back(static_cast<T>(i + 1));
  write(p, v);
  const std::vector<char> bytes = slurp(p);
  const std::size_t record = sizeof(std::int32_t) + v.dim * sizeof(T);
  ASSERT_EQ(bytes.size(), v.count * record);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    spit(p, bytes.data(), cut);
    if (cut % record == 0) {
      const auto r = read(p);
      EXPECT_EQ(r.count, cut / record) << "cut at " << cut;
    } else {
      expect_rejected(read, p, "cut at " + std::to_string(cut));
    }
  }
}

/// A first record claiming INT32_MAX components, followed by a few bytes:
/// rejected before its 2^31 elements are allocated.
template <typename Read>
void reject_huge_dim(const std::string& p, const Read& read) {
  char bytes[12] = {};
  const std::int32_t dim = std::numeric_limits<std::int32_t>::max();
  std::memcpy(bytes, &dim, sizeof(dim));
  spit(p, bytes, sizeof(dim));
  expect_rejected(read, p, "huge dim, header only");
  spit(p, bytes, sizeof(bytes));
  expect_rejected(read, p, "huge dim, 8 payload bytes");
}

TEST_F(IoTest, FvecsRoundTrip) {
  VecFile<float> v;
  v.count = 5;
  v.dim = 7;
  Rng rng(1);
  for (std::size_t i = 0; i < v.count * v.dim; ++i) v.data.push_back(rng.uniform(-10, 10));

  const std::string p = track(path("drim_test.fvecs"));
  write_fvecs(p, v);
  const auto r = read_fvecs(p);
  ASSERT_EQ(r.count, v.count);
  ASSERT_EQ(r.dim, v.dim);
  EXPECT_EQ(r.data, v.data);
}

TEST_F(IoTest, BvecsRoundTrip) {
  VecFile<std::uint8_t> v;
  v.count = 3;
  v.dim = 128;
  Rng rng(2);
  for (std::size_t i = 0; i < v.count * v.dim; ++i) {
    v.data.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  }
  const std::string p = track(path("drim_test.bvecs"));
  write_bvecs(p, v);
  const auto r = read_bvecs(p);
  ASSERT_EQ(r.count, v.count);
  ASSERT_EQ(r.dim, v.dim);
  EXPECT_EQ(r.data, v.data);
}

TEST_F(IoTest, IvecsRoundTrip) {
  VecFile<std::int32_t> v;
  v.count = 4;
  v.dim = 10;
  for (std::size_t i = 0; i < v.count * v.dim; ++i) v.data.push_back(static_cast<int>(i) - 20);
  const std::string p = track(path("drim_test.ivecs"));
  write_ivecs(p, v);
  const auto r = read_ivecs(p);
  ASSERT_EQ(r.count, v.count);
  EXPECT_EQ(r.data, v.data);
}

TEST_F(IoTest, MaxCountTruncates) {
  VecFile<float> v;
  v.count = 10;
  v.dim = 4;
  v.data.assign(40, 1.5f);
  const std::string p = track(path("drim_trunc.fvecs"));
  write_fvecs(p, v);
  const auto r = read_fvecs(p, 3);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.data.size(), 12u);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_fvecs("/nonexistent/nowhere.fvecs"), std::runtime_error);
}

TEST_F(IoTest, FvecsTruncationAtEveryOffsetIsRejected) {
  sweep_truncation<float>(track(path("drim_cut.fvecs")), write_fvecs,
                          [](const std::string& p) { return read_fvecs(p); });
}

TEST_F(IoTest, BvecsTruncationAtEveryOffsetIsRejected) {
  sweep_truncation<std::uint8_t>(track(path("drim_cut.bvecs")), write_bvecs,
                                 [](const std::string& p) { return read_bvecs(p); });
}

TEST_F(IoTest, IvecsTruncationAtEveryOffsetIsRejected) {
  sweep_truncation<std::int32_t>(track(path("drim_cut.ivecs")), write_ivecs,
                                 [](const std::string& p) { return read_ivecs(p); });
}

TEST_F(IoTest, HugeDimIsRejectedBeforeAllocating) {
  reject_huge_dim(track(path("drim_huge.fvecs")),
                  [](const std::string& p) { return read_fvecs(p); });
  reject_huge_dim(track(path("drim_huge.bvecs")),
                  [](const std::string& p) { return read_bvecs(p); });
  reject_huge_dim(track(path("drim_huge.ivecs")),
                  [](const std::string& p) { return read_ivecs(p); });
}

TEST_F(IoTest, RowAccessor) {
  VecFile<float> v;
  v.count = 2;
  v.dim = 3;
  v.data = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(v.row(1)[0], 4.0f);
  EXPECT_EQ(v.row(1)[2], 6.0f);
}

}  // namespace
}  // namespace drim
