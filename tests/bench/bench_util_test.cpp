// JsonReport contract: string values are escaped (quotes, backslashes,
// control characters survive as \uXXXX, never raw), and append mode
// adds a report as a new line instead of clobbering the file.
//
// This TU also installs the counting allocation hook for the whole test
// binary (it must live in exactly one TU per binary) so the AllocDelta
// meter used by the wire-throughput bench is itself under test.
#define HCM_BENCH_ALLOC_HOOK 1
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

namespace hcm::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Each case writes its own file, named after the test: ctest runs the
// cases as concurrent processes, so a shared path would let one case's
// write or TearDown remove land in the middle of another.
class JsonReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "bench_util_test." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(JsonReportTest, EscapesControlCharactersInStrings) {
  JsonReport report("esc");
  report.row().str("k", "a\nb\tc \"quoted\" back\\slash \x01");
  ASSERT_TRUE(report.write(path_));
  const std::string json = slurp(path_);
  EXPECT_TRUE(json_parse(json).is_ok()) << json;
  EXPECT_NE(json.find("a\\nb\\tc \\\"quoted\\\" back\\\\slash \\u0001"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST_F(JsonReportTest, AppendAddsReportsWithoutClobbering) {
  JsonReport a("first");
  a.row().num("n", std::uint64_t{1});
  JsonReport b("second");
  b.row().num("n", std::uint64_t{2});
  ASSERT_TRUE(a.write(path_));
  ASSERT_TRUE(b.write(path_, /*append=*/true));
  const std::string json = slurp(path_);
  EXPECT_NE(json.find("\"first\""), std::string::npos);
  EXPECT_NE(json.find("\"second\""), std::string::npos);
  EXPECT_LT(json.find("first"), json.find("second"));
}

TEST_F(JsonReportTest, PlainWriteReplacesExistingContent) {
  JsonReport a("old");
  a.row().num("n", std::uint64_t{1});
  ASSERT_TRUE(a.write(path_));
  JsonReport b("fresh");
  b.row().num("n", std::uint64_t{2});
  ASSERT_TRUE(b.write(path_));
  const std::string json = slurp(path_);
  EXPECT_EQ(json.find("old"), std::string::npos);
  EXPECT_NE(json.find("fresh"), std::string::npos);
}

TEST_F(JsonReportTest, ProvenanceIsWrittenOnlyWhenStamped) {
  JsonReport plain("plain");
  plain.row().num("n", std::uint64_t{1});
  ASSERT_TRUE(plain.write(path_));
  auto doc = json_parse(slurp(path_));
  ASSERT_TRUE(doc.is_ok());
  EXPECT_TRUE(doc.value().at("provenance").is_null());

  JsonReport stamped("stamped");
  stamped.stamp_provenance();
  stamped.row().num("n", std::uint64_t{1});
  ASSERT_TRUE(stamped.write(path_));
  doc = json_parse(slurp(path_));
  ASSERT_TRUE(doc.is_ok());
  const Value& p = doc.value().at("provenance");
  EXPECT_TRUE(p.at("preset").is_string());
  EXPECT_TRUE(p.at("commit").is_string());
  EXPECT_TRUE(p.at("nproc").is_int());
  EXPECT_EQ(doc.value().at("rows").as_list().size(), 1u);
}

TEST(AllocCounterTest, HookInstalledAndDeltaCountsHeapTraffic) {
  // gtest itself allocates long before this test runs, so the hook has
  // already observed traffic by now.
  EXPECT_TRUE(alloc_hook_installed());

  AllocDelta d;
  constexpr std::size_t kBytes = 4096;
  {
    auto* p = new char[kBytes];
    // Defeat dead-store elimination of the allocation.
    p[0] = 1;
    volatile char sink = p[0];
    (void)sink;
    delete[] p;
  }
  EXPECT_GE(d.allocs(), 1u);
  EXPECT_GE(d.bytes(), kBytes);
}

TEST(AllocCounterTest, DeltaIsScopedToConstructionPoint) {
  std::vector<std::unique_ptr<int>> warmup;
  for (int i = 0; i < 8; ++i) warmup.push_back(std::make_unique<int>(i));
  const std::uint64_t before = alloc_count();
  AllocDelta d;
  EXPECT_EQ(d.allocs(), alloc_count() - before);
  auto extra = std::make_unique<int>(7);
  EXPECT_GE(d.allocs(), 1u);
  EXPECT_GE(d.bytes(), sizeof(int));
}

}  // namespace
}  // namespace hcm::bench
