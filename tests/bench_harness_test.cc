// The bench harness (bench/harness.h): order statistics, the interleaved
// timing loop's call pattern, gate verdicts, JSON rendering and the report
// writer's `host` placement and failure path.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace avdb {
namespace bench {
namespace {

TEST(BenchHarnessTest, SummaryOfOddSample) {
  const Summary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.min, 1);
}

TEST(BenchHarnessTest, SummaryOfEvenSampleInterpolates) {
  const Summary s = Summarize({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  EXPECT_DOUBLE_EQ(s.min, 1);
}

TEST(BenchHarnessTest, MeasureWarmsUpOnceAndRotatesTheFirstVariant) {
  std::string calls;
  const std::vector<Summary> out =
      Measure(3, {[&] { calls += 'a'; }, [&] { calls += 'b'; }});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(calls, "ab" "ab" "ba" "ab");
  EXPECT_GE(out[0].min, 0);
  EXPECT_LE(out[0].min, out[0].median);
}

TEST(BenchHarnessTest, GatesExitNonZeroOnAnyFailure) {
  Gates pass;
  pass.Check(true, "holds");
  EXPECT_EQ(pass.ExitCode(), 0);
  Gates fail;
  fail.Check(true, "holds");
  fail.Check(false, "breaks");
  EXPECT_EQ(fail.ExitCode(), 1);
}

TEST(BenchHarnessTest, ValuesKeepOrderDecimalsAndEscapes) {
  const Object o = {{"s", "a\"b\\c\n\x01"},
                    {"f", Fixed(2.0 / 3.0, 3)},
                    {"whole", Fixed(97190.4, 0)},
                    {"neg", Fixed(-1.26, 1)},
                    {"i", int64_t{-7}},
                    {"u", size_t{7}},
                    {"b", false},
                    {"levels", std::vector<std::string>{"sse2", "avx2"}}};
  EXPECT_EQ(Value(o).Render(0),
            R"({"s": "a\"b\\c\u000a\u0001", "f": 0.667, "whole": 97190, )"
            R"("neg": -1.3, "i": -7, "u": 7, "b": false, )"
            R"("levels": ["sse2", "avx2"]})");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchHarnessTest, ReportPutsRowsOnLinesAndHostLastAfterTheStamp) {
  const std::string path = testing::TempDir() + "bench_harness_report.json";
  const std::vector<Object> rows = {{{"n", 1}}, {{"n", 2}}};
  const Object doc = {{"bench", "t"},
                      {"flat", Object{{"x", 0}}},
                      {"rows", rows},
                      {"empty", std::vector<Object>{}}};
  ASSERT_TRUE(WriteReport(path, doc, {{"seconds", Fixed(1.5, 2)}}));

  const std::string json = ReadFile(path);
  const size_t host_at = json.find("\n  \"host\": {\n");
  ASSERT_NE(host_at, std::string::npos);
  EXPECT_EQ(json.substr(0, host_at),
            "{\n"
            "  \"bench\": \"t\",\n"
            "  \"flat\": {\"x\": 0},\n"
            "  \"rows\": [\n"
            "    {\"n\": 1},\n"
            "    {\"n\": 2}\n"
            "  ],\n"
            "  \"empty\": [],");
  size_t last = host_at;
  for (const char* key : {"hardware_concurrency", "dispatched_level",
                          "build_type", "pool_workers", "seconds"}) {
    const size_t at = json.find(std::string("\n    \"") + key + "\": ");
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, last) << key;
    last = at;
  }
  const std::string tail = "    \"seconds\": 1.50\n  }\n}\n";
  ASSERT_GT(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
}

TEST(BenchHarnessTest, ReportThatCannotBeWrittenFails) {
  EXPECT_FALSE(WriteReport(
      testing::TempDir() + "no_such_dir/bench_harness_report.json", {}, {}));
}

}  // namespace
}  // namespace bench
}  // namespace avdb
