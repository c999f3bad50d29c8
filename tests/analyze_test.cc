// Black-box tests for tools/avdb_analyze.py, the repo's one static-analysis
// tool: it is part of the correctness surface (ctest -L lint gates on it),
// so its contract — clean tree, in-sync lock order, exact fixture
// classification, one allowlist with staleness detection for every rule,
// each rule's scope — is pinned here the same way any library API would
// be. Each test shells out to the real script; AVDB_PROJECT_ROOT and
// AVDB_PYTHON3 are injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string ProjectRoot() { return AVDB_PROJECT_ROOT; }
std::string Python3() { return AVDB_PYTHON3; }

std::string AnalyzerPath() {
  return ProjectRoot() + "/tools/avdb_analyze.py";
}

// Runs `python3 tools/avdb_analyze.py <args>` capturing stdout+stderr.
// Returns the process exit code (or -1 if it could not be launched).
int RunAnalyzer(const std::string& args, std::string* output) {
  const std::string cmd =
      "\"" + Python3() + "\" \"" + AnalyzerPath() + "\" " + args + " 2>&1";
  output->clear();
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, n);
  }
  const int raw = pclose(pipe);
  if (raw == -1) return -1;
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  ASSERT_TRUE(f.good()) << path;
  f << text;
  ASSERT_TRUE(f.good()) << path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// A fresh throwaway analyzer root: src/ with one locked class (so the
// lock-order document is non-trivial) and an initially empty allowlist;
// tests that need allowlist entries overwrite the file after syncing the
// lock order.
std::string MakeScratchRoot(const std::string& name) {
  const std::string root = testing::TempDir() + "avdb_analyze_" + name;
  const std::string mk = "rm -rf \"" + root + "\" && mkdir -p \"" + root +
                         "/src/base\" \"" + root + "/tools\"";
  EXPECT_EQ(std::system(mk.c_str()), 0);
  WriteFile(root + "/src/base/counter.cc",
            "class Counter {\n"
            " public:\n"
            "  void Add(long d) {\n"
            "    MutexLock lock(mu_);\n"
            "    total_ += d;\n"
            "  }\n"
            "\n"
            " private:\n"
            "  Mutex mu_;\n"
            "  long total_ = 0;\n"
            "};\n");
  WriteFile(root + "/tools/avdb_lint_allowlist.json", "{\"entries\": []}\n");
  return root;
}

// Generates tools/lock_order.json for a scratch root so later default runs
// start from an in-sync state.
void SyncLockOrder(const std::string& root) {
  std::string out;
  ASSERT_EQ(RunAnalyzer("--root \"" + root + "\" --write-lock-order", &out),
            0)
      << out;
}

TEST(AnalyzeTool, TreeIsCleanAndJsonReportsZeroFindings) {
  const std::string json_path = testing::TempDir() + "avdb_analyze_tree.json";
  std::string out;
  const int rc = RunAnalyzer(
      "--root \"" + ProjectRoot() + "\" --json \"" + json_path + "\"", &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("avdb-analyze: clean"), std::string::npos) << out;

  const std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos) << json;
  // The machine-readable payload carries the same lock-order document that
  // is checked in; spot-check a lock every developer knows exists.
  EXPECT_NE(json.find("Tracer::mu_"), std::string::npos) << json;
  for (const char* rule :
       {"budget-propagation", "check-in-hot-path", "determinism",
        "direct-replica-write", "layer-cycle", "lease-escape",
        "lock-foreign-call", "lock-order", "metric-prefix", "naked-new",
        "naked-retry", "plane-copy", "unused-api", "void-cast-call",
        "wallclock"}) {
    EXPECT_NE(json.find(std::string("\"") + rule + "\": 0"),
              std::string::npos)
        << "summary missing zeroed rule " << rule << "\n"
        << json;
  }
}

TEST(AnalyzeTool, SelfTestClassifiesEveryFixtureExactly) {
  std::string out;
  const int rc =
      RunAnalyzer("--root \"" + ProjectRoot() + "\" --self-test", &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("fixtures ok"), std::string::npos) << out;
  EXPECT_EQ(out.find("FAIL"), std::string::npos) << out;
}

TEST(AnalyzeTool, LockOrderRoundTripsAndDriftFailsTheRun) {
  const std::string root = MakeScratchRoot("roundtrip");
  SyncLockOrder(root);

  // The written document names the scratch tree's one lock.
  const std::string lock_path = root + "/tools/lock_order.json";
  const std::string doc = ReadFile(lock_path);
  EXPECT_NE(doc.find("Counter::mu_"), std::string::npos) << doc;

  // Freshly written file: the default run verifies in-sync and stays clean.
  std::string out;
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 0) << out;
  EXPECT_NE(out.find("avdb-analyze: clean"), std::string::npos) << out;

  // Regenerating is idempotent: write again, byte-identical document.
  SyncLockOrder(root);
  EXPECT_EQ(ReadFile(lock_path), doc);

  // Any drift — here a renamed lock — must fail the default run with a
  // pointer at --write-lock-order.
  std::string drifted = doc;
  const auto pos = drifted.find("Counter::mu_");
  ASSERT_NE(pos, std::string::npos);
  drifted.replace(pos, 12, "Counter::xx_");
  WriteFile(lock_path, drifted);
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 1) << out;
  EXPECT_NE(out.find("out of sync"), std::string::npos) << out;
  EXPECT_NE(out.find("--write-lock-order"), std::string::npos) << out;
}

TEST(AnalyzeTool, StaleAnalyzeAllowlistEntryFailsTheRun) {
  // Sync the lock order with a clean allowlist first — --write-lock-order
  // also reports allowlist errors — then install the stale entry.
  const std::string root = MakeScratchRoot("stale");
  SyncLockOrder(root);
  WriteFile(root + "/tools/avdb_lint_allowlist.json",
            "{\"entries\": ["
            "{\"rule\": \"determinism\", \"file\": \"src/*.cc\","
            " \"pattern\": \"never_matches_anything\","
            " \"justification\": \"left behind by deleted code\"}]}\n");
  std::string out;
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 1) << out;
  EXPECT_NE(out.find("stale allowlist entry"), std::string::npos) << out;
}

TEST(AnalyzeTool, StaleWallclockAllowlistEntryFailsTheRun) {
  // One allowlist, one staleness check: an entry for a line rule that
  // matches nothing fails the run just like a semantic rule's entry.
  const std::string root = MakeScratchRoot("stale_wallclock");
  SyncLockOrder(root);
  WriteFile(root + "/tools/avdb_lint_allowlist.json",
            "{\"entries\": ["
            "{\"rule\": \"wallclock\", \"file\": \"src/*.cc\","
            " \"pattern\": \"never_matches_anything\","
            " \"justification\": \"left behind by deleted code\"}]}\n");
  std::string out;
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 1) << out;
  EXPECT_NE(out.find("stale allowlist entry"), std::string::npos) << out;
  EXPECT_NE(out.find("rule=wallclock"), std::string::npos) << out;
}

TEST(AnalyzeTool, LineRulesCoverTestsAndSemanticRulesStayOnSrc) {
  // The same file, once under tests/ and once under src/: wallclock
  // applies to both, the pointer-keyed-map determinism rule only to src/.
  const std::string root = MakeScratchRoot("scope");
  SyncLockOrder(root);
  const std::string text =
      "#include <chrono>\n"
      "#include <map>\n"
      "\n"
      "void Stamp() {\n"
      "  auto now = std::chrono::steady_clock::now();\n"
      "}\n"
      "\n"
      "int SumByAddress() {\n"
      "  std::map<const int*, int> by_address;\n"
      "  int total = 0;\n"
      "  for (const auto& [key, value] : by_address) total += value;\n"
      "  return total;\n"
      "}\n";
  ASSERT_EQ(std::system(("mkdir -p \"" + root + "/tests\"").c_str()), 0);
  WriteFile(root + "/tests/stamp_test.cc", text);
  std::string out;
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 1) << out;
  EXPECT_NE(out.find("tests/stamp_test.cc:5: [wallclock]"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("[determinism]"), std::string::npos) << out;
  EXPECT_NE(out.find("1 finding(s)"), std::string::npos) << out;

  WriteFile(root + "/src/base/stamp.cc", text);
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 1) << out;
  EXPECT_NE(out.find("src/base/stamp.cc:5: [wallclock]"), std::string::npos)
      << out;
  EXPECT_NE(out.find("src/base/stamp.cc:11: [determinism]"),
            std::string::npos)
      << out;
}

TEST(AnalyzeTool, UnusedApiReportsTestOnlyUseWithoutFailing) {
  // A header function only tests/ call is listed in the JSON report and
  // leaves the run clean; one bench/ calls is in use and goes unlisted.
  // Once the tests/ call goes, nothing uses it and the run fails.
  const std::string root = MakeScratchRoot("unused_api");
  SyncLockOrder(root);
  ASSERT_EQ(std::system(("mkdir -p \"" + root + "/tests\" \"" + root +
                         "/bench\"")
                            .c_str()),
            0);
  WriteFile(root + "/src/base/probe.h",
            "namespace avdb {\n"
            "int TestOnlyProbe();\n"
            "int BenchOnlyProbe();\n"
            "}  // namespace avdb\n");
  WriteFile(root + "/tests/probe_test.cc",
            "int Check() { return avdb::TestOnlyProbe(); }\n");
  WriteFile(root + "/bench/probe_bench.cc",
            "int Run() { return avdb::BenchOnlyProbe(); }\n");
  const std::string json_path = root + "/findings.json";
  std::string out;
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\" --json \"" + json_path +
                            "\"",
                        &out),
            0)
      << out;
  const std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"unused-api\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_only_functions\""), std::string::npos) << json;
  EXPECT_NE(json.find("src/base/probe.h:2: TestOnlyProbe()"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("BenchOnlyProbe"), std::string::npos) << json;

  WriteFile(root + "/tests/probe_test.cc", "int Check() { return 0; }\n");
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 1) << out;
  EXPECT_NE(out.find("src/base/probe.h:2: [unused-api] TestOnlyProbe()"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1 finding(s)"), std::string::npos) << out;
}

TEST(AnalyzeTool, UnknownAllowlistRuleFailsTheRun) {
  const std::string root = MakeScratchRoot("unknown");
  SyncLockOrder(root);
  WriteFile(root + "/tools/avdb_lint_allowlist.json",
            "{\"entries\": ["
            "{\"rule\": \"no-such-rule\", \"file\": \"src/*.cc\","
            " \"pattern\": \"x\", \"justification\": \"typo\"}]}\n");
  std::string out;
  EXPECT_EQ(RunAnalyzer("--root \"" + root + "\"", &out), 1) << out;
  EXPECT_NE(out.find("unknown rule"), std::string::npos) << out;
}

}  // namespace
