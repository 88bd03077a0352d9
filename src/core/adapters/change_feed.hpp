// The ordering rule both native change feeds follow (JiniAdapter over
// the LUS's events, HaviAdapter over the Registry's). The adapter's
// service set is live, being re-listed, or stale. A listing numbered S
// holds every change up to S: events at or below it are dropped, the
// next one applies, and a number that skips is a feed gap. Events that
// overtake a re-list wait for it, and so do listings asked for meanwhile.
// An event is the notification's arguments, kept only while it waits.
// Native events are one-way: a lost one shows as a gap at the next
// event, or when the adapter's periodic check (kCheckPeriod) finds the
// source's change number ahead of the set.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/adapter.hpp"
#include "sim/scheduler.hpp"

namespace hcm::core {

class ChangeFeed {
 public:
  using ServicesFn = MiddlewareAdapter::ServicesFn;
  enum class Verdict { kHeld, kDrop, kApply, kGap };

  // How often an adapter asks the source for its change number, so a
  // lost event with no later one behind it is found within this period.
  static constexpr sim::Duration kCheckPeriod = sim::seconds(60);

  [[nodiscard]] bool live() const { return state_ == State::kLive; }
  [[nodiscard]] bool down() const { return state_ == State::kDown; }
  // The change number the set reflects.
  [[nodiscard]] std::uint64_t seq() const { return seq_; }

  // Queues a listing until the set is live. True when no re-list is in
  // flight: the caller starts one.
  [[nodiscard]] bool wait(ServicesFn done) {
    waiting_.push_back(std::move(done));
    return state_ == State::kDown;
  }

  // Starts a re-list and returns its generation; callbacks of an older
  // re-list find theirs stale.
  [[nodiscard]] std::uint64_t begin_sync() {
    state_ = State::kSyncing;
    early_.clear();
    return ++gen_;
  }
  [[nodiscard]] bool stale(std::uint64_t gen) const { return gen != gen_; }

  // The listing numbered `seq` replaced the set. Returns the events that
  // overtook it, to pass through admit() again in arrival order.
  [[nodiscard]] std::vector<ValueList> go_live(std::uint64_t seq) {
    seq_ = seq;
    state_ = State::kLive;
    auto early = std::move(early_);
    early_.clear();
    return early;
  }

  // Classifies an event by its change number; kApply advances it.
  [[nodiscard]] Verdict admit(std::uint64_t seq, const ValueList& event) {
    if (state_ == State::kSyncing) {
      early_.push_back(event);
      return Verdict::kHeld;
    }
    if (state_ != State::kLive || seq <= seq_) return Verdict::kDrop;
    if (seq != seq_ + 1) return Verdict::kGap;
    seq_ = seq;
    return Verdict::kApply;
  }

  // True when a live set misses changes up to `seq`: the source's
  // change number, learned off the event path, is ahead of it.
  [[nodiscard]] bool behind(std::uint64_t seq) const {
    return state_ == State::kLive && seq > seq_;
  }

  // Marks the set stale and any re-list in flight with it. True when
  // listings are waiting: the caller re-lists for them now.
  [[nodiscard]] bool gap() {
    state_ = State::kDown;
    ++gen_;
    early_.clear();
    return !waiting_.empty();
  }

  // The listings waiting on the re-list, handed over to be answered.
  [[nodiscard]] std::vector<ServicesFn> take_waiting() {
    auto waiting = std::move(waiting_);
    waiting_.clear();
    return waiting;
  }

 private:
  enum class State { kDown, kSyncing, kLive };

  State state_ = State::kDown;
  std::uint64_t seq_ = 0;  // change number the set reflects
  std::uint64_t gen_ = 0;
  std::vector<ValueList> early_;
  std::vector<ServicesFn> waiting_;
};

}  // namespace hcm::core
