// Shared base of the three SmartHome workloads (calls_soap,
// calls_binary, dynamism): the Fig. 3 home on one deterministic
// scheduler, the stepping loop the traced run times event by event,
// and the per-layer counters every home workload reports.
#pragma once

#include <cstring>
#include <random>

#include "bench.hpp"
#include "common/block_pool.hpp"
#include "obs/trace.hpp"
#include "testbed/home.hpp"

namespace hcm::perfbench {

// Deterministic digest for the self-test (FNV-1a over 64-bit words).
class Fingerprint {
 public:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (i * 8)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Uniform double in [0, 1) from the top 53 bits of one draw.
[[nodiscard]] inline double unit_draw(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}
[[nodiscard]] inline std::uint64_t below(std::mt19937_64& rng,
                                         std::uint64_t n) {
  return rng() % n;
}

// Folds every metric into the fingerprint in name order.
inline void mix_metrics(Fingerprint& fp, const Metrics& m) {
  for (const auto& [name, metric] : m) {
    for (char c : name) fp.mix(static_cast<std::uint64_t>(c));
    fp.mix(metric.value);
  }
}

class HomeWorkload : public Workload {
 public:
  explicit HomeWorkload(const RunConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {}

  void set_program_tracing(bool on) override {
    obs::Tracer::global().set_enabled(on);
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    return fingerprint_.value();
  }

 protected:
  void build_home(const testbed::SmartHomeOptions& options) {
    home_ = std::make_unique<testbed::SmartHome>(sched_, options);
  }

  // Runs every event due by `t`, then parks the clock at `t`. Traced:
  // one "sim.step" span per Scheduler::step.
  void advance_to(sim::SimTime t, SpanRecorder* spans) {
    if (spans == nullptr) {
      sched_.run_until(t);
      return;
    }
    while (sched_.next_event_time() <= t) {
      SpanScope step(spans, "sim.step");
      sched_.step();
    }
    sched_.run_until(t);
  }

  // Steps until done() holds; false when nothing is due within `limit`.
  template <typename Pred>
  bool run_until(Pred&& done, sim::Duration limit, SpanRecorder* spans) {
    const sim::SimTime deadline = sched_.now() + limit;
    while (!done()) {
      if (sched_.next_event_time() > deadline) return false;
      SpanScope step(spans, "sim.step");
      sched_.step();
    }
    return true;
  }

  // Baselines for the counters read through public accessors; the
  // registry is zeroed so its values cover the script only.
  void begin_common() {
    obs::Registry::global().reset_values();
    events0_ = sched_.events_processed();
    unmetered_events_ = 0;
    bb_bytes0_ = home_->backbone->bytes_carried();
    bb_frames0_ = home_->backbone->frames_carried();
    pool0_ = default_block_pool().stats();
    havi_msgs0_ = havi_messages();
    jini_served0_ = home_->laserdisc->commands();
    mail_accepted0_ = mail_accepted();
  }

  [[nodiscard]] double backbone_bytes() const {
    return static_cast<double>(home_->backbone->bytes_carried() - bb_bytes0_);
  }

  // Per-op layer counters every home workload shares.
  void end_common(Metrics& l, double ops) const {
    const auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    l["sim.events_per_op"] = {
        per_op(count(sched_.events_processed() - events0_ -
                     unmetered_events_)),
        "count"};
    l["net.backbone_frames_per_op"] = {
        per_op(count(home_->backbone->frames_carried() - bb_frames0_)),
        "count"};
    l["net.stream_connects_per_op"] = {
        per_op(count(sum_counters("net", ".stream_connects"))), "count"};
    l["net.datagrams_dropped"] = {
        count(sum_counters("net", ".datagrams_dropped")), "count"};

    const BlockPool::Stats pool = default_block_pool().stats();
    const double hits = count(pool.pool_hits - pool0_.pool_hits);
    const double fresh = count(pool.fresh_blocks - pool0_.fresh_blocks);
    const double fallbacks =
        count(pool.heap_fallbacks - pool0_.heap_fallbacks);
    const double acquires = hits + fresh + fallbacks;
    l["common.block_pool.hit_rate"] = {acquires > 0 ? hits / acquires : 0,
                                       "ratio"};
    l["common.block_pool.fresh_blocks"] = {fresh, "count"};
    l["common.block_pool.heap_fallbacks"] = {fallbacks, "count"};
    l["common.block_pool.high_water"] = {count(pool.high_water), "count"};

    l["soap.client.calls_per_op"] = {
        per_op(count(sum_counters("soap.client", ".calls_sent"))), "count"};
    l["soap.service.faults"] = {count(sum_counters("soap.service", ".faults")),
                                "count"};
    l["http.server.requests_per_op"] = {
        per_op(count(sum_counters("http.server", ".requests"))), "count"};
    l["http.server.connections_per_op"] = {
        per_op(count(sum_counters("http.server", ".connections"))), "count"};
    l["http.client.errors"] = {count(sum_counters("http.client.errors", "")),
                               "count"};
    l["http.client.latency_us_p50"] = {
        static_cast<double>(
            merged_histogram("http.client.latency_us", "")->percentile(50)),
        "us"};
    l["binary.client.calls_per_op"] = {
        per_op(count(sum_counters("binary.client.calls", ""))), "count"};
    l["binary.client.errors"] = {
        count(sum_counters("binary.client.errors", "")), "count"};
    l["binary.client.latency_us_p50"] = {
        static_cast<double>(
            merged_histogram("binary.client.latency_us", "")->percentile(50)),
        "us"};

    l["vsg.remote_calls_per_op"] = {
        per_op(count(sum_counters("vsg.", ".remote_calls"))), "count"};
    l["vsg.local_dispatches_per_op"] = {
        per_op(count(sum_counters("vsg.", ".local_dispatches"))), "count"};
    l["vsg.remote_errors"] = {count(sum_counters("vsg.", ".remote_errors")),
                              "count"};
    const auto vsg_lat = merged_histogram("vsg.", ".remote_latency_us");
    l["vsg.remote_latency_us_p50"] = {
        static_cast<double>(vsg_lat->percentile(50)), "us"};
    l["vsg.remote_latency_us_p99"] = {
        static_cast<double>(vsg_lat->percentile(99)), "us"};
    l["proxygen.sp_invokes_per_op"] = {
        per_op(count(sum_counters("proxygen", ".sp_invokes"))), "count"};

    for (const char* mw : {"jini", "havi", "x10", "mail"}) {
      const std::string base = std::string("adapter.") + mw;
      l[base + ".invokes_per_op"] = {
          per_op(count(sum_counters(base + ".invokes", ""))), "count"};
      l[base + ".errors"] = {count(sum_counters(base + ".errors", "")),
                             "count"};
      l[base + ".invoke_us_p50"] = {
          static_cast<double>(
              merged_histogram(base + ".invoke_us", "")->percentile(50)),
          "us"};
    }
    l["havi.messages_per_op"] = {per_op(count(havi_messages() - havi_msgs0_)),
                                 "count"};
    l["jini.calls_served_per_op"] = {
        per_op(count(home_->laserdisc->commands() - jini_served0_)), "count"};
    l["mail.messages_accepted_per_op"] = {
        per_op(count(mail_accepted() - mail_accepted0_)),
        "count"};
  }

  [[nodiscard]] std::uint64_t mail_accepted() const {
    return home_->mail_server ? home_->mail_server->messages_accepted() : 0;
  }
  [[nodiscard]] std::uint64_t havi_messages() const {
    return home_->fav->messaging.messages_sent() +
           home_->vcr_ms->messages_sent() + home_->camera_ms->messages_sent();
  }

  RunConfig cfg_;
  std::mt19937_64 rng_;
  Fingerprint fingerprint_;
  // Declared before home_: the home's network binds to it.
  sim::Scheduler sched_;
  std::unique_ptr<testbed::SmartHome> home_;
  // Scheduler events of the benchmark's own checks inside the script
  // (left out of sim.events_per_op).
  std::uint64_t unmetered_events_ = 0;

 private:
  std::uint64_t events0_ = 0;
  std::uint64_t bb_bytes0_ = 0;
  std::uint64_t bb_frames0_ = 0;
  BlockPool::Stats pool0_;
  std::uint64_t havi_msgs0_ = 0;
  std::uint64_t jini_served0_ = 0;
  std::uint64_t mail_accepted0_ = 0;
};

std::unique_ptr<Workload> make_calls(const RunConfig& cfg,
                                     core::VsgProtocol protocol);
std::unique_ptr<Workload> make_dynamism(const RunConfig& cfg);
std::unique_ptr<Workload> make_city(const RunConfig& cfg);

}  // namespace hcm::perfbench
