// X10 powerline carrier model. X10 signals one bit per AC zero crossing
// (120 half-cycles/s at 60 Hz); a standard command is an address frame
// plus a function frame, each transmitted twice, with 3-cycle gaps —
// which is why real X10 commands take the better part of a second. The
// medium is broadcast and half-duplex: simultaneous transmitters collide
// and both frames are lost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/segment.hpp"
#include "sim/scheduler.hpp"

namespace hcm::net {

// All attached devices hear every frame (including the transmitter).
using PowerlineHandler = std::function<void(NodeId from, const Bytes& frame)>;
using TransmitDone = std::function<void(const Status&)>;

class PowerlineSegment : public Segment {
 public:
  PowerlineSegment(std::string name, sim::Scheduler& sched)
      : Segment(std::move(name), SegmentKind::kPowerline), sched_(sched) {}

  // Duration of one X10 frame of `bytes` payload on the 120 Hz
  // half-cycle clock. Each payload bit costs two half-cycles (bit +
  // complement), the start code 4 half-cycles, and the frame is sent
  // twice with a 3-cycle (6 half-cycle) gap.
  [[nodiscard]] sim::Duration transit_time(std::size_t bytes) const override {
    const std::uint64_t half_cycles_per_copy = 4 + bytes * 8 * 2;
    const std::uint64_t total = half_cycles_per_copy * 2 + 6;
    return static_cast<sim::Duration>(total * kHalfCycleUs);
  }

  void subscribe(NodeId node, PowerlineHandler handler);
  void unsubscribe(NodeId node);

  // Queues a frame for transmission. Frames from different nodes
  // serialize on the medium; if two arrive while the line is idle in
  // the same half-cycle they collide (both dropped, done gets an error
  // so the device layer can retry).
  void transmit(NodeId from, Bytes frame, TransmitDone done);

  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

  static constexpr std::int64_t kHalfCycleUs = 1000000 / 120;  // 60 Hz mains

 private:
  struct Pending {
    NodeId from;
    Bytes frame;
    TransmitDone done;
    sim::SimTime enqueued_at;
  };

  void start_next();
  void finish(Pending p, bool collided);

  sim::Scheduler& sched_;
  std::map<NodeId, PowerlineHandler> handlers_;
  std::deque<Pending> queue_;
  bool busy_ = false;
  std::uint64_t collisions_ = 0;
};

}  // namespace hcm::net
