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

}  // namespace
}  // namespace hcm
