#include "common/join.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

namespace hcm {
namespace {

TEST(JoinTest, CompletesAfterTheLastBranchWithTheFirstError) {
  std::optional<Status> done;
  int runs = 0;
  Join join(3, [&](const Status& s) {
    ++runs;
    done = s;
  });
  join(Status::ok());
  join(not_found("first"));
  EXPECT_FALSE(done.has_value());
  join(timeout("second"));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->code(), StatusCode::kNotFound);
  EXPECT_EQ(done->message(), "first");
  EXPECT_EQ(runs, 1);
}

TEST(JoinTest, CopiesShareOneCount) {
  std::optional<Status> done;
  Join join(2, [&](const Status& s) { done = s; });
  std::function<void(const Status&)> a = join;
  std::function<void(const Status&)> b = join;
  a(Status::ok());
  EXPECT_FALSE(done.has_value());
  b(Status::ok());
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->is_ok());
}

// The hold keeps branches that complete synchronously from finishing
// the join before the caller has started them all.
TEST(JoinTest, HoldCoversBranchesThatCompleteSynchronously) {
  int runs = 0;
  Join join(1, [&](const Status&) { ++runs; });
  for (int i = 0; i < 3; ++i) {
    join.add();
    join(Status::ok());
    EXPECT_EQ(runs, 0);
  }
  join(Status::ok());
  EXPECT_EQ(runs, 1);
}

TEST(JoinTest, FailRecordsWithoutCountingDown) {
  std::optional<Status> done;
  Join join(1, [&](const Status& s) { done = s; });
  join.fail(invalid_argument("bad"));
  join.fail(internal_error("later"));
  EXPECT_FALSE(done.has_value());
  join(Status::ok());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->code(), StatusCode::kInvalidArgument);
}

TEST(JoinTest, CompletionMayDestroyTheLastBranchCallback) {
  std::vector<std::function<void(const Status&)>> callbacks;
  bool done = false;
  {
    Join join(1, [&](const Status&) {
      callbacks.clear();  // drops the copy being called
      done = true;
    });
    callbacks.emplace_back(join);
  }
  callbacks.front()(Status::ok());
  EXPECT_TRUE(done);
}

TEST(CollectTest, EmptyFanOutCompletesWithNoValuesWhenTheHoldReports) {
  std::optional<std::vector<int>> got;
  const auto values =
      collect<int>(1, [&](std::vector<int> v) { got = std::move(v); });
  EXPECT_FALSE(got.has_value());
  values.skip();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

// Branches that report inside the loop, before the caller has started
// the rest, neither finish the collection early nor lose their values.
TEST(CollectTest, BranchesCompletingInsideTheLoopKeepCompletionOrder) {
  std::optional<std::vector<int>> got;
  int runs = 0;
  const auto values = collect<int>(1, [&](std::vector<int> v) {
    ++runs;
    got = std::move(v);
  });
  std::vector<std::function<void()>> later;
  for (int i = 0; i < 4; ++i) {
    values.add();
    if (i % 2 == 0) {
      values(i);  // synchronous
    } else {
      later.emplace_back([values, i] { values(i * 10); });
    }
  }
  values.skip();
  EXPECT_EQ(runs, 0);
  later[1]();
  later[0]();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (std::vector<int>{0, 2, 30, 10}));
  EXPECT_EQ(runs, 1);
}

TEST(CollectTest, FailedBranchIsSkipped) {
  std::optional<std::vector<int>> got;
  const auto values =
      collect<int>(3, [&](std::vector<int> v) { got = std::move(v); });
  values(1);
  values(Result<int>(not_found("gone")));
  EXPECT_FALSE(got.has_value());
  values(3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (std::vector<int>{1, 3}));
}

}  // namespace
}  // namespace hcm
