// Joins asynchronous branches that each report a Status into one
// completion. The count of branches still open, the first error any of
// them reported and the completion live in one shared cell; every copy
// of a Join is a branch's callback. The completion runs once, after the
// last branch reports, with the first error (ok when none failed).
//
// A caller that starts branches in a loop opens the join with one
// branch of its own (the hold), add()s one per branch it starts, and
// reports its own with join(Status::ok()) after the loop, so a branch
// that completes synchronously cannot finish the join early.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "common/status.hpp"

namespace hcm {

template <typename Done>
class Join {
 public:
  Join(std::size_t branches, Done done)
      : cell_(std::make_shared<Cell>(branches, std::move(done))) {}

  // One more branch will report.
  void add() const { ++cell_->remaining; }

  // Records `s` as the join's error unless one is recorded already;
  // counts no branch down.
  void fail(const Status& s) const {
    if (!s.is_ok() && cell_->first_error.is_ok()) cell_->first_error = s;
  }

  // One branch reports.
  void operator()(const Status& s) const {
    fail(s);
    if (--cell_->remaining != 0) return;
    // The completion may destroy the callback this copy lives in.
    const std::shared_ptr<Cell> cell = cell_;
    cell->done(cell->first_error);
  }

 private:
  struct Cell {
    Cell(std::size_t n, Done d) : remaining(n), done(std::move(d)) {}
    std::size_t remaining;
    Status first_error;
    Done done;
  };
  std::shared_ptr<Cell> cell_;
};

}  // namespace hcm
