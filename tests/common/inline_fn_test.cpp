#include "common/inline_fn.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/service.hpp"

namespace hcm {
namespace {

TEST(InlineFnTest, EmptyAndNullptrCompare) {
  InlineFn<void()> fn;
  EXPECT_FALSE(fn);
  EXPECT_TRUE(fn == nullptr);
  fn = [] {};
  EXPECT_TRUE(fn);
  EXPECT_TRUE(fn != nullptr);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(InlineFnTest, InvokesWithArgsAndResult) {
  InlineFn<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFnTest, MoveOnlyCaptureStaysInline) {
  auto payload = std::make_unique<int>(42);
  InlineFn<int()> fn = [p = std::move(payload)] { return *p; };
  InlineFn<int()> moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved(), 42);
}

TEST(InlineFnTest, OversizedCaptureDegradesToHeapCell) {
  struct Big {
    char pad[200];
  };
  Big big{};
  big.pad[0] = 'x';
  InlineFn<char()> fn = [big] { return big.pad[0]; };
  InlineFn<char()> moved = std::move(fn);
  EXPECT_EQ(moved(), 'x');
}

TEST(InlineFnTest, DestructorRunsCaptureDtorOnce) {
  auto counter = std::make_shared<int>(0);
  struct Track {
    std::shared_ptr<int> c;
    ~Track() {
      if (c) ++*c;
    }
    Track(std::shared_ptr<int> c) : c(std::move(c)) {}
    Track(Track&& o) noexcept = default;
    Track(const Track&) = delete;
  };
  {
    InlineFn<void()> fn = [t = Track(counter)] { (void)t; };
    InlineFn<void()> other = std::move(fn);
    other();
  }
  // Moved-from wrappers must not double-destroy; exactly one live Track
  // existed and died once (moved-out shells hold a null shared_ptr).
  EXPECT_EQ(*counter, 1);
}

TEST(InlineFnTest, AssignReplacesPreviousCallable) {
  auto count = std::make_shared<int>(0);
  InlineFn<void()> fn = [count] { *count += 1; };
  fn();
  fn = [count] { *count += 10; };
  fn();
  EXPECT_EQ(*count, 11);
}


// --- SmallFn ----------------------------------------------------------------

// The completion currency's footprint: vtable pointer, used length (in
// what would otherwise be padding) and a 16-aligned 192-byte buffer.
static_assert(sizeof(InvokeResultFn) == 208);

// Counts live copies of a capture: constructed, copied, and destroyed.
struct Tracked {
  std::shared_ptr<int> live;
  explicit Tracked(std::shared_ptr<int> l) : live(std::move(l)) { ++*live; }
  Tracked(const Tracked& o) : live(o.live) { ++*live; }
  Tracked(Tracked&& o) noexcept : live(o.live) { ++*live; }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --*live; }
};

// A trivially copyable decoration that appends its tag to a log.
struct Tag {
  std::vector<char>* log;
  char tag;
  void operator()(int) const { log->push_back(tag); }
};

using Fn = SmallFn<void(int), 128>;

TEST(SmallFnTest, CopiesCloneTheCallable) {
  auto count = std::make_shared<int>(0);
  Fn fn = [count](int n) { *count += n; };
  Fn copy = fn;
  fn(1);
  copy(10);
  EXPECT_EQ(*count, 11);
  Fn assigned;
  assigned = copy;
  assigned(100);
  EXPECT_EQ(*count, 111);
  EXPECT_TRUE(fn);
  EXPECT_TRUE(copy);
}

TEST(SmallFnTest, DecorationsRunOutermostFirstBeforeTheCallable) {
  std::vector<char> log;
  Fn fn = [&log](int) { log.push_back('f'); };
  fn.decorate(Tag{&log, 'a'});
  fn(0);
  EXPECT_EQ(std::string(log.begin(), log.end()), "af");
  log.clear();
  fn.decorate(Tag{&log, 'b'});
  fn(0);
  EXPECT_EQ(std::string(log.begin(), log.end()), "baf");
}

TEST(SmallFnTest, DecorationSeesTheArgumentsTheCallableGets) {
  int seen_by_decoration = 0;
  int seen_by_callable = 0;
  SmallFn<void(std::string), 64> fn = [&](std::string s) {
    seen_by_callable = static_cast<int>(s.size());
  };
  struct Peek {
    int* out;
    void operator()(const std::string& s) const {
      *out = static_cast<int>(s.size());
    }
  };
  fn.decorate(Peek{&seen_by_decoration});
  // The argument reaches the callable intact after the decoration saw it
  // by const reference (it is moved only into the callable).
  fn(std::string(100, 'x'));
  EXPECT_EQ(seen_by_decoration, 100);
  EXPECT_EQ(seen_by_callable, 100);
}

TEST(SmallFnTest, DecoratedFnDestroysEachCopyOfTheCallableOnce) {
  auto live = std::make_shared<int>(0);
  std::vector<char> log;
  {
    Fn fn = [t = Tracked(live), &log](int) { log.push_back('f'); };
    EXPECT_EQ(*live, 1);
    fn.decorate(Tag{&log, 'a'});
    fn.decorate(Tag{&log, 'b'});
    Fn moved = std::move(fn);
    EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(*live, 1);
    Fn copy = moved;
    EXPECT_EQ(*live, 2);
    Fn assigned;
    assigned = copy;
    EXPECT_EQ(*live, 3);
    moved(0);
    copy(0);
    assigned(0);
    EXPECT_EQ(std::string(log.begin(), log.end()), "bafbafbaf");
    assigned = nullptr;
    EXPECT_EQ(*live, 2);
  }
  EXPECT_EQ(*live, 0);
}

TEST(SmallFnTest, FullBufferFallsBackToNestingAndRunsBoth) {
  std::vector<char> log;
  struct Fat {
    std::vector<char>* log;
    char pad[112];
  };
  // 120 of 128 bytes in use: a 32-byte decoration record (the Tag, the
  // displaced vtable and used length) cannot follow, so it nests.
  Fn fn = [fat = Fat{&log, {}}](int) { fat.log->push_back('f'); };
  fn.decorate(Tag{&log, 'a'});
  fn.decorate(Tag{&log, 'b'});
  Fn copy = fn;
  fn(0);
  copy(0);
  EXPECT_EQ(std::string(log.begin(), log.end()), "bafbaf");
}

TEST(SmallFnTest, DecoratingAHeapCelledCallableWorks) {
  auto live = std::make_shared<int>(0);
  std::vector<char> log;
  struct Big {
    char pad[200];
  };
  {
    Fn fn = [big = Big{{'f'}}, t = Tracked(live), &log](int) {
      log.push_back(big.pad[0]);
    };
    fn.decorate(Tag{&log, 'a'});
    Fn copy = fn;
    Fn moved = std::move(fn);
    EXPECT_EQ(*live, 2);
    copy(0);
    moved(0);
    EXPECT_EQ(std::string(log.begin(), log.end()), "afaf");
  }
  EXPECT_EQ(*live, 0);
}

TEST(SmallFnTest, DecoratedCompletionPassesItsResultOn) {
  std::vector<char> log;
  std::optional<Result<Value>> got;
  InvokeResultFn done = [&](Result<Value> r) { got = std::move(r); };
  struct SeeOk {
    std::vector<char>* log;
    void operator()(const Result<Value>& r) const {
      log->push_back(r.is_ok() ? 'o' : 'e');
    }
  };
  for (int i = 0; i < 3; ++i) done.decorate(SeeOk{&log});
  done(Value(std::string(64, 'v')));
  ASSERT_TRUE(got.has_value() && got->is_ok());
  EXPECT_EQ(got->value(), Value(std::string(64, 'v')));
  EXPECT_EQ(std::string(log.begin(), log.end()), "ooo");
}

}  // namespace
}  // namespace hcm
