// Unit tests for the BenchReport JSON writer (bench/support/harness.cpp):
// the BENCH_*.json schema, including the git dirty/detached state fields
// that make artifacts from unclean trees distinguishable from clean-rev
// runs; plus the host-thread-count parser. Built as its own target (the
// main test glob links only the library, and the writer lives in the bench
// support sources).

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/harness.hpp"

namespace drim::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(BenchReport, WritesGitStateFields) {
  BenchReport report("report_writer_test");
  report.set_config("knob", std::size_t{7});
  report.add_row("row0");
  report.add_metric("qps", 123.5);
  const std::string path = report.write(".");
  EXPECT_EQ(path, "./BENCH_report_writer_test.json");

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(contains(json, "\"bench\": \"report_writer_test\""));
  EXPECT_TRUE(contains(json, "\"git_rev\": \""));
  // The new fields are unconditional booleans: present in every report, true
  // or false, never quoted strings.
  EXPECT_TRUE(contains(json, "\"git_dirty\": true") ||
              contains(json, "\"git_dirty\": false"));
  EXPECT_TRUE(contains(json, "\"git_detached\": true") ||
              contains(json, "\"git_detached\": false"));
  EXPECT_TRUE(contains(json, "\"knob\": 7"));
  EXPECT_TRUE(contains(json, "\"label\": \"row0\""));
  EXPECT_TRUE(contains(json, "\"qps\": 123.5"));
}

TEST(BenchReport, GitStateProbeIsSelfConsistent) {
  const GitState g = query_git_state();
  if (g.rev == "unknown") {
    // Outside a repository the probe must report a clean, attached default —
    // never "dirty" flags for a tree that does not exist.
    EXPECT_FALSE(g.dirty);
    EXPECT_FALSE(g.detached);
  } else {
    // Inside one, the rev is a full 40-hex-digit SHA.
    EXPECT_EQ(g.rev.size(), 40u);
    for (char c : g.rev) {
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << g.rev;
    }
  }
}

TEST(BenchReport, WriteMatchesReportedJsonShape) {
  // inf/nan metrics serialize as null (JSON has no literals for them).
  BenchReport report("report_writer_nan_test");
  report.add_row("r");
  report.add_metric("bad", std::numeric_limits<double>::infinity());
  const std::string json = slurp(report.write("."));
  EXPECT_TRUE(contains(json, "\"bad\": null"));
}

TEST(BenchReport, EveryReportCarriesHostPeakRssRow) {
  BenchReport report("report_writer_rss_test");
  report.add_row("gate");
  report.add_metric("speedup", 1.5);
  const std::string path = report.write(".");
  // The gates read rows back through read_baseline_metric.
  EXPECT_DOUBLE_EQ(read_baseline_metric(path, "gate", "speedup"), 1.5);
  const double rss = read_baseline_metric(path, "host", "peak_rss_mb");
  EXPECT_GT(rss, 0.0);
  EXPECT_LE(rss, peak_rss_mb());
  EXPECT_EQ(read_baseline_metric(path, "host", "missing"), -1.0);
  EXPECT_EQ(read_baseline_metric(path, "nope", "speedup"), -1.0);
  EXPECT_EQ(read_baseline_metric("./no_such_BENCH.json", "host", "peak_rss_mb"), -1.0);
}

// The host-thread knob's parser is shared by DRIM_THREADS and host_path's
// --threads flag; it only parses, so no test here starts a thread.
TEST(HostThreadCount, ParsesWholeNumbersAndRejectsTheRest) {
  EXPECT_EQ(parse_thread_count("0", "--threads"), 0u);
  EXPECT_EQ(parse_thread_count("4", "--threads"), 4u);
  EXPECT_EQ(parse_thread_count("2147483647", "--threads"), 2147483647u);
  for (const char* bad : {"", "abc", "3x", "-5", "+5", " 4", "4.0", "2147483648",
                          "99999999999999999999999"}) {
    try {
      parse_thread_count(bad, "--threads");
      ADD_FAILURE() << "expected \"" << bad << "\" to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(contains(e.what(), "--threads")) << e.what();
      EXPECT_TRUE(contains(e.what(), bad)) << e.what();
    }
  }
}

}  // namespace
}  // namespace drim::bench
