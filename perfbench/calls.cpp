// calls_soap / calls_binary: the paper's cross-island call path.
//
// SmartHome (Fig. 3) with the VSG wire set to SOAP or to the binary
// channel. Jini, HAVi and X10 clients issue control ops on the
// laserdisc, camera, VCR and tuner, plus sendMail with 64 B .. 48 KB
// bodies (log-uniform, so some frames cross the 16 KB block seam).
// Arrivals are an open-loop Poisson process at a fixed virtual rate;
// each op is timed from its scheduled time to its reply. X10 devices
// are call sources only: as targets the powerline model would
// serialise the commands and the run would measure its queue.
#include <cmath>
#include <deque>
#include <optional>

#include "common/value_codec.hpp"
#include "core/vsg.hpp"
#include "home.hpp"
#include "http/message.hpp"
#include "mail/mail.hpp"
#include "soap/envelope.hpp"

namespace hcm::perfbench {
namespace {

enum class Arg { kNone, kChannel, kZoom, kMail };
enum class Check { kTrue, kLaserStatus, kCameraStatus, kTransport, kChannel };

struct MethodSpec {
  const char* name;
  Arg arg;
  Check check;
};

struct TargetSpec {
  const char* island;
  const char* service;
  bool x10_callable;  // exportable into X10 (has a zero-argument method)
  double weight;
  std::vector<MethodSpec> methods;
};

const std::vector<TargetSpec>& targets() {
  static const std::vector<TargetSpec> kTargets = {
      {"jini-island", "laserdisc-1", true, 2,
       {{"turnOn", Arg::kNone, Check::kTrue},
        {"play", Arg::kNone, Check::kTrue},
        {"getStatus", Arg::kNone, Check::kLaserStatus}}},
      {"havi-island", "camera-1", true, 2,
       {{"getStatus", Arg::kNone, Check::kCameraStatus},
        {"zoom", Arg::kZoom, Check::kTrue}}},
      {"havi-island", "vcr-1", true, 2,
       {{"play", Arg::kNone, Check::kTrue},
        {"getTransportState", Arg::kNone, Check::kTransport}}},
      {"havi-island", "tuner-1", true, 2,
       {{"setChannel", Arg::kChannel, Check::kTrue},
        {"getChannel", Arg::kNone, Check::kChannel}}},
      {"mail-island", "mail-home", false, 1,
       {{"sendMail", Arg::kMail, Check::kTrue}}},
  };
  return kTargets;
}

constexpr const char* kClientIslands[] = {"jini-island", "havi-island",
                                          "x10-island"};
constexpr std::size_t kMinBody = 64;
constexpr std::size_t kMaxBody = 48 * 1024;
constexpr std::size_t kReplayOps = 256;

struct Op {
  std::uint64_t id = 0;
  std::uint32_t client = 0;
  std::uint32_t target = 0;
  std::uint32_t method = 0;
  sim::SimTime due = 0;
  ValueList args;
  bool in_script = false;
  bool done = false;
};

class CallsWorkload final : public HomeWorkload {
 public:
  CallsWorkload(const RunConfig& cfg, core::VsgProtocol protocol)
      : HomeWorkload(cfg), protocol_(protocol) {}

  Value params() const override {
    return Value(ValueMap{
        {"protocol", Value(std::string(core::to_string(protocol_)))},
        {"arrivals", Value("open-loop poisson")},
        {"rate_per_virtual_s", Value(kRatePerVs)},
        {"epoch_virtual_s", Value(static_cast<double>(kEpoch) / 1e6)},
        {"mail_body_bytes", Value("log-uniform 64..49152")},
        {"clients", Value("jini, havi, x10 adapters")},
    });
  }
  std::size_t default_script_epochs() const override { return 80; }

  void setup() override {
    testbed::SmartHomeOptions options;
    options.protocol = protocol_;
    build_home(options);
    if (!home_->refresh().is_ok()) ledger_.fail("setup: refresh_all failed");
    clients_ = {home_->jini_adapter, home_->havi_adapter, home_->x10_adapter};
    // Scenario state the op mix relies on: the laserdisc is powered
    // (so play succeeds) and the VCR holds a recorded tape.
    setup_call(*home_->havi_adapter, "laserdisc-1", "turnOn", {});
    setup_call(*home_->jini_adapter, "vcr-1", "record", {Value(1)});
    sched_.run_for(sim::seconds(1));
    setup_call(*home_->jini_adapter, "vcr-1", "stop", {});
    // Mail to the benchmark's mailbox is fetched back over loopback on
    // the mail host itself, so the check adds no backbone traffic.
    mail_reader_ = std::make_unique<mail::MailClient>(
        home_->net, home_->mail_node->id(), home_->mail_node->id());
    make_bodies();
    next_due_ = sched_.now() + sim::milliseconds(10);
  }

  void prepare_epoch() override {
    // The previous epoch ended with no call in flight, so the mailbox
    // check runs here, outside the timed and metered window.
    check_mail();
    ops_.erase(ops_.begin(),
               std::find_if(ops_.begin(), ops_.end(),
                            [](const Op& op) { return !op.done; }));
    // Arrivals resume where the clock stands after the last epoch's
    // tail and the mail check, so no op is issued late.
    next_due_ = std::max(next_due_, sched_.now());
    epoch_end_ = next_due_ + kEpoch;
    const auto& tgts = targets();
    while (next_due_ < epoch_end_) {
      Op op;
      op.id = next_id_++;
      op.due = next_due_;
      op.in_script = recording_;
      op.client = static_cast<std::uint32_t>(below(rng_, 3));
      op.target = pick_target(op.client);
      const TargetSpec& t = tgts[op.target];
      op.method = static_cast<std::uint32_t>(below(rng_, t.methods.size()));
      op.args = make_args(t.methods[op.method].arg, op.id);
      if (replay_ops_.size() < kReplayOps && recording_) replay_ops_.push_back(op);
      ops_.push_back(std::move(op));
      const double gap_s = -std::log(1.0 - unit_draw(rng_)) / kRatePerVs;
      next_due_ += std::max<sim::Duration>(1, std::llround(gap_s * 1e6));
    }
  }

  void run_epoch(SpanRecorder* spans) override {
    spans_ = spans;
    for (Op& op : ops_) {
      if (op.done || scheduled_ >= op.id) continue;
      scheduled_ = op.id;
      sched_.at(op.due, [this, &op] { issue(op); });
    }
    advance_to(epoch_end_, spans);
    // The epoch's last calls finish inside the timed window too.
    drain(spans);
    spans_ = nullptr;
  }

  void drain(SpanRecorder* spans) override {
    if (!run_until([this] { return inflight_ == 0; }, sim::seconds(60),
                   spans)) {
      ledger_.fail("drain: " + std::to_string(inflight_) +
                   " calls never completed");
    }
  }

  void begin_script() override {
    begin_common();
    recording_ = true;
    ops0_ = ledger_.completed;
    max_inflight_ = inflight_;
  }

  void end_script(Metrics& e2e, Metrics& l) override {
    recording_ = false;
    const double ops = static_cast<double>(ledger_.completed - ops0_);
    e2e["op_virtual_ms_p50"] = {latency_.percentile(50), "virtual_ms"};
    e2e["op_virtual_ms_p99"] = {latency_.percentile(99), "virtual_ms"};
    e2e["backbone_bytes_per_op"] = {ops > 0 ? backbone_bytes() / ops : 0,
                                    "B"};
    end_common(l, ops);
    l["load.op_samples"] = {latency_.count(), "count"};
    l["load.max_inflight"] = {static_cast<double>(max_inflight_), "count"};
    mix_metrics(fingerprint_, e2e);
    mix_metrics(fingerprint_, l);
  }

  void replay(SpanRecorder& spans, Metrics& l) override;

  void span_metrics(const SpanRecorder& spans, Metrics& l) override {
    l["sim.dispatch_ns_per_event"] = {spans.mean_ns("sim.step"), "ns"};
    l["adapter.invoke_issue_ns"] = {spans.mean_ns("adapter.invoke"), "ns"};
  }

  void final_checks() override {
    check_mail();
    if (mail_delivered_ != mail_sent_ok_) {
      ledger_.fail("mail: " + std::to_string(mail_sent_ok_) +
                   " sendMail calls returned true but " +
                   std::to_string(mail_delivered_) +
                   " messages reached the mailbox");
    }
  }

 private:
  // Below saturation: the VSG keeps one keep-alive connection per
  // destination gateway, so the mail island (whose sendMail holds the
  // connection for a whole SMTP dialogue) saturates first, near 100/s.
  static constexpr double kRatePerVs = 25;
  static constexpr sim::Duration kEpoch = sim::seconds(20);

  void setup_call(core::MiddlewareAdapter& client, const char* service,
                  const char* method, ValueList args) {
    std::optional<Result<Value>> r;
    client.invoke(service, method, args,
                  [&r](Result<Value> v) { r = std::move(v); });
    sim::run_until_done(sched_, [&r] { return r.has_value(); });
    if (!r.has_value() || !r->is_ok()) {
      ledger_.fail(std::string("setup: ") + service + "." + method +
                   " failed");
    }
  }

  // One seeded text; each sendMail takes a prefix of log-uniform length.
  void make_bodies() {
    body_text_.resize(kMaxBody);
    for (char& c : body_text_) c = static_cast<char>('a' + below(rng_, 26));
  }
  // Sizes are drawn stratified: every 32 mails take one size from each
  // 1/32 quantile band of the log-uniform law, in seeded order, so the
  // byte volume of a script barely depends on the seed.
  std::string mail_body() {
    if (body_sizes_.empty()) {
      constexpr int kStrata = 32;
      const double span = std::log(static_cast<double>(kMaxBody) / kMinBody);
      for (int k = 0; k < kStrata; ++k) {
        const double u = (k + unit_draw(rng_)) / kStrata;
        body_sizes_.push_back(static_cast<std::size_t>(
            std::llround(kMinBody * std::exp(span * u))));
      }
      for (std::size_t i = body_sizes_.size() - 1; i > 0; --i) {
        std::swap(body_sizes_[i], body_sizes_[below(rng_, i + 1)]);
      }
    }
    const std::size_t size = std::min(body_sizes_.back(), kMaxBody);
    body_sizes_.pop_back();
    return body_text_.substr(0, size);
  }

  std::uint32_t pick_target(std::uint32_t client) {
    const auto& tgts = targets();
    const std::string island = kClientIslands[client];
    double total = 0;
    for (const TargetSpec& t : tgts) {
      if (eligible(t, island)) total += t.weight;
    }
    double x = unit_draw(rng_) * total;
    std::uint32_t last = 0;
    for (std::uint32_t i = 0; i < tgts.size(); ++i) {
      if (!eligible(tgts[i], island)) continue;
      last = i;
      if (x < tgts[i].weight) return i;
      x -= tgts[i].weight;
    }
    return last;
  }

  static bool eligible(const TargetSpec& t, const std::string& island) {
    if (island == t.island) return false;  // not a cross-island call
    return island != "x10-island" || t.x10_callable;
  }

  ValueList make_args(Arg arg, std::uint64_t id) {
    switch (arg) {
      case Arg::kNone: return {};
      case Arg::kChannel:
        return {Value(static_cast<std::int64_t>(1 + below(rng_, 999)))};
      case Arg::kZoom:
        return {Value(static_cast<std::int64_t>(1 + below(rng_, 20)))};
      case Arg::kMail:
        return {Value("bench"), Value("op-" + std::to_string(id)),
                Value(mail_body())};
    }
    return {};
  }

  void issue(Op& op) {
    ++ledger_.attempted;
    ++inflight_;
    max_inflight_ = std::max(max_inflight_, inflight_);
    const TargetSpec& t = targets()[op.target];
    SpanScope span(spans_, "adapter.invoke", op.id);
    clients_[op.client]->invoke(
        t.service, t.methods[op.method].name, op.args,
        [this, &op](Result<Value> r) { complete(op, std::move(r)); });
  }

  void complete(Op& op, Result<Value> r) {
    --inflight_;
    op.done = true;
    const TargetSpec& t = targets()[op.target];
    const MethodSpec& m = t.methods[op.method];
    std::string why;
    if (!r.is_ok()) {
      why = r.status().to_string();
    } else if (!reply_ok(m.check, r.value())) {
      why = "unexpected reply";
    }
    if (!why.empty()) {
      ledger_.fail(std::string(kClientIslands[op.client]) + " -> " +
                   t.service + "." + m.name + ": " + why);
    } else {
      ++ledger_.completed;
      if (m.arg == Arg::kMail) ++mail_sent_ok_;
      if (op.in_script) {
        latency_.add(static_cast<double>(sched_.now() - op.due) / 1e3);
      }
    }
    op.args.clear();
    op.args.shrink_to_fit();
  }

  static bool reply_ok(Check check, const Value& v) {
    switch (check) {
      case Check::kTrue: return v.is_bool() && v.as_bool();
      case Check::kLaserStatus:
        return v.is_map() && v.at("powered").is_bool() &&
               v.at("powered").as_bool() && v.at("playing").is_bool();
      case Check::kCameraStatus:
        return v.is_map() && v.at("zoom").is_int() &&
               v.at("zoom").as_int() >= 1 && v.at("zoom").as_int() <= 20 &&
               v.at("capturing").is_bool();
      case Check::kTransport:
        return v.is_string() &&
               (v.as_string() == "PLAY" || v.as_string() == "STOP");
      case Check::kChannel:
        return v.is_int() && v.as_int() >= 1 && v.as_int() <= 999;
    }
    return false;
  }

  // Fetches the benchmark's mailbox back over loopback on the mail host
  // and counts what arrived. Called only with no call in flight; its
  // scheduler events are left out of sim.events_per_op.
  void check_mail() {
    if (mail_delivered_ == mail_sent_ok_) return;
    if (mail_fetch_pending_) return;
    mail_fetch_pending_ = true;
    const std::uint64_t events0 = sched_.events_processed();
    mail_reader_->fetch("bench", [this](Result<std::vector<mail::Message>> r) {
      mail_fetch_pending_ = false;
      if (!r.is_ok()) {
        ledger_.fail("mail fetch: " + r.status().to_string());
        return;
      }
      for (const mail::Message& m : r.value()) {
        if (m.subject.rfind("op-", 0) != 0) {
          ledger_.fail("mail: malformed message '" + m.subject + "'");
        }
        ++mail_delivered_;
      }
    });
    if (!run_until([this] { return !mail_fetch_pending_; }, sim::seconds(30),
                   nullptr)) {
      ledger_.fail("mail fetch never completed");
    }
    unmetered_events_ += sched_.events_processed() - events0;
  }

  core::VsgProtocol protocol_;
  std::vector<core::MiddlewareAdapter*> clients_;
  std::unique_ptr<mail::MailClient> mail_reader_;
  std::string body_text_;
  std::vector<std::size_t> body_sizes_;
  std::deque<Op> ops_;
  std::vector<Op> replay_ops_;
  SpanRecorder* spans_ = nullptr;
  LatencySamples latency_;
  sim::SimTime next_due_ = 0;
  sim::SimTime epoch_end_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t inflight_ = 0;
  std::uint64_t max_inflight_ = 0;
  std::uint64_t ops0_ = 0;
  std::uint64_t mail_sent_ok_ = 0;
  std::uint64_t mail_delivered_ = 0;
  bool mail_fetch_pending_ = false;
  bool recording_ = false;
};

// --- host-cost replays ----------------------------------------------------

soap::NamedValues named_params(const MethodSpec& m, const ValueList& args) {
  static const char* const kMailNames[] = {"to", "subject", "body"};
  soap::NamedValues out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char* name = m.arg == Arg::kMail    ? kMailNames[i]
                       : m.arg == Arg::kZoom ? "level"
                                              : "channel";
    out.emplace_back(name, args[i]);
  }
  return out;
}

InterfaceDesc replay_interface() {
  InterfaceDesc iface{"ReplayTarget", {}};
  for (const TargetSpec& t : targets()) {
    for (const MethodSpec& m : t.methods) {
      MethodDesc d{m.name, {}, ValueType::kBool, false};
      if (m.arg == Arg::kChannel) d.params = {{"channel", ValueType::kInt}};
      if (m.arg == Arg::kZoom) d.params = {{"level", ValueType::kInt}};
      if (m.arg == Arg::kMail) {
        d.params = {{"to", ValueType::kString},
                    {"subject", ValueType::kString},
                    {"body", ValueType::kString}};
      }
      if (iface.find_method(m.name) == nullptr) iface.methods.push_back(d);
    }
  }
  return iface;
}

// Times `fn` over `rounds` passes of every replay op inside one span.
template <typename Fn>
double time_per_call(SpanRecorder& spans, const char* name,
                     const std::vector<Op>& ops, int rounds, Fn&& fn,
                     std::uint64_t* allocs = nullptr) {
  const std::uint64_t a0 = alloc_count_now();
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope span(&spans, name);
    for (int r = 0; r < rounds; ++r) {
      for (const Op& op : ops) fn(op);
    }
  }
  const double calls = static_cast<double>(ops.size()) * rounds;
  if (allocs != nullptr) *allocs = alloc_count_now() - a0;
  return calls > 0 ? static_cast<double>(ns_between(t0, Clock::now())) / calls
                   : 0;
}

void CallsWorkload::replay(SpanRecorder& spans, Metrics& l) {
  if (replay_ops_.empty()) return;
  const auto& tgts = targets();
  constexpr int kRounds = 20;
  const auto method_of = [&tgts](const Op& op) -> const MethodSpec& {
    return tgts[op.target].methods[op.method];
  };
  const auto ns_of = [&tgts](const Op& op) {
    return std::string("urn:hcm:") + tgts[op.target].service;
  };

  if (protocol_ == core::VsgProtocol::kSoap) {
    std::vector<std::string> calls;
    for (const Op& op : replay_ops_) {
      calls.push_back(soap::build_call(ns_of(op), method_of(op).name,
                                       named_params(method_of(op), op.args)));
    }
    std::vector<soap::NamedValues> params;
    for (const Op& op : replay_ops_) {
      params.push_back(named_params(method_of(op), op.args));
    }
    std::size_t i = 0;
    l["soap.build_call_ns"] = {
        time_per_call(spans, "replay.soap.build_call", replay_ops_, kRounds,
                      [&](const Op& op) {
                        const std::string s = soap::build_call(
                            ns_of(op), method_of(op).name,
                            params[i++ % params.size()]);
                        if (s.empty()) ledger_.fail("replay: empty call");
                      }),
        "ns"};
    i = 0;
    l["soap.parse_envelope_ns"] = {
        time_per_call(spans, "replay.soap.parse_envelope", replay_ops_,
                      kRounds,
                      [&](const Op&) {
                        if (!soap::parse_envelope(calls[i++ % calls.size()])
                                 .is_ok()) {
                          ledger_.fail("replay: envelope did not parse");
                        }
                      }),
        "ns"};
    l["soap.build_response_ns"] = {
        time_per_call(spans, "replay.soap.build_response", replay_ops_,
                      kRounds,
                      [&](const Op& op) {
                        const std::string s = soap::build_response(
                            ns_of(op), method_of(op).name, Value(true));
                        if (s.empty()) ledger_.fail("replay: empty response");
                      }),
        "ns"};
    // One call's codec work: build the call, parse it, build the reply.
    std::uint64_t codec_allocs = 0;
    i = 0;
    time_per_call(
        spans, "replay.soap.codec", replay_ops_, 1,
        [&](const Op& op) {
          const std::string call = soap::build_call(
              ns_of(op), method_of(op).name, params[i++ % params.size()]);
          const auto env = soap::parse_envelope(call);
          const std::string resp =
              soap::build_response(ns_of(op), method_of(op).name, Value(true));
          if (!env.is_ok() || resp.empty()) ledger_.fail("replay: soap codec");
        },
        &codec_allocs);
    l["soap.codec_allocs_per_call"] = {
        static_cast<double>(codec_allocs) / replay_ops_.size(), "count"};

    // HTTP framing of the same bodies: serialize_to, then the parser.
    std::vector<http::Request> requests;
    for (std::size_t k = 0; k < replay_ops_.size(); ++k) {
      http::Request req;
      req.method = "POST";
      req.target = "/vsg";
      req.set_header("Content-Type", "text/xml; charset=utf-8");
      req.set_header("SOAPAction", "\"" + ns_of(replay_ops_[k]) + "\"");
      req.body = calls[k];
      requests.push_back(std::move(req));
    }
    i = 0;
    l["http.request_serialize_ns"] = {
        time_per_call(spans, "replay.http.serialize", replay_ops_, kRounds,
                      [&](const Op&) {
                        BlockStream out;
                        requests[i++ % requests.size()].serialize_to(out);
                        if (out.size() == 0) ledger_.fail("replay: http");
                      }),
        "ns"};
    std::vector<BlockStream> wire(requests.size());
    std::uint64_t parse_ns = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t k = 0; k < requests.size(); ++k) {
        wire[k].clear();
        requests[k].serialize_to(wire[k]);
      }
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope span(&spans, "replay.http.parse");
        for (BlockStream& w : wire) {
          http::MessageParser parser(http::MessageParser::Mode::kRequest);
          http::Request got;
          if (!parser.feed(std::move(w)).is_ok() || !parser.pop_request(got)) {
            ledger_.fail("replay: http request did not parse");
          }
        }
      }
      parse_ns += ns_between(t0, Clock::now());
    }
    l["http.request_parse_ns"] = {
        static_cast<double>(parse_ns) / (requests.size() * kRounds), "ns"};
  } else {
    std::vector<Bytes> encoded;
    for (const Op& op : replay_ops_) encoded.push_back(encode_value(Value(op.args)));
    l["common.value_codec.encode_ns"] = {
        time_per_call(spans, "replay.value_codec.encode", replay_ops_,
                      kRounds,
                      [&](const Op& op) {
                        if (encode_value(Value(op.args)).empty()) {
                          ledger_.fail("replay: empty encoding");
                        }
                      }),
        "ns"};
    std::size_t i = 0;
    l["common.value_codec.decode_ns"] = {
        time_per_call(spans, "replay.value_codec.decode", replay_ops_,
                      kRounds,
                      [&](const Op&) {
                        if (!decode_value(encoded[i++ % encoded.size()])
                                 .is_ok()) {
                          ledger_.fail("replay: value did not decode");
                        }
                      }),
        "ns"};
    std::uint64_t codec_allocs = 0;
    i = 0;
    time_per_call(
        spans, "replay.value_codec.round_trip", replay_ops_, 1,
        [&](const Op& op) {
          const Bytes b = encode_value(Value(op.args));
          if (!decode_value(b).is_ok()) ledger_.fail("replay: codec");
        },
        &codec_allocs);
    l["common.value_codec.allocs_per_call"] = {
        static_cast<double>(codec_allocs) / replay_ops_.size(), "count"};
  }

  // The wire share of an op: a benchmark-owned VSG pair running
  // call_remote with this workload's protocol and arguments.
  sim::Scheduler pair_sched;
  net::Network net{pair_sched};
  auto& gw_a = net.add_node("pair-a");
  auto& gw_b = net.add_node("pair-b");
  auto& eth = net.add_ethernet("pair-backbone", sim::milliseconds(5),
                               10'000'000);
  net.attach(gw_a, eth);
  net.attach(gw_b, eth);
  core::VirtualServiceGateway callee(net, gw_a.id(), "pair-callee", 8080,
                                     protocol_);
  core::VirtualServiceGateway caller(net, gw_b.id(), "pair-caller", 8080,
                                     protocol_);
  const InterfaceDesc iface = replay_interface();
  if (!callee.start().is_ok() || !caller.start().is_ok()) {
    ledger_.fail("replay: VSG pair did not start");
    return;
  }
  auto uri = callee.expose(
      "replay-1", iface,
      [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value(true));
      });
  if (!uri.is_ok()) {
    ledger_.fail("replay: VSG pair expose failed");
    return;
  }
  const auto call_once = [&](const Op& op) {
    std::optional<Result<Value>> r;
    caller.call_remote(uri.value(), "replay-1", iface,
                       method_of(op).name, op.args,
                       [&r](Result<Value> v) { r = std::move(v); });
    sim::run_until_done(pair_sched, [&r] { return r.has_value(); });
    if (!r.has_value() || !r->is_ok()) ledger_.fail("replay: VSG pair call");
  };
  call_once(replay_ops_.front());  // warm the connection and pools
  const std::uint64_t bytes0 = eth.bytes_carried();
  std::uint64_t wire_allocs = 0;
  l["vsg.wire_call_ns"] = {
      time_per_call(spans, "replay.vsg.call_remote", replay_ops_, 1,
                    call_once, &wire_allocs),
      "ns"};
  l["vsg.wire_allocs_per_call"] = {
      static_cast<double>(wire_allocs) / replay_ops_.size(), "count"};
  l["vsg.wire_bytes_per_call"] = {
      static_cast<double>(eth.bytes_carried() - bytes0) / replay_ops_.size(),
      "B"};
}

}  // namespace

std::unique_ptr<Workload> make_calls(const RunConfig& cfg,
                                     core::VsgProtocol protocol) {
  return std::make_unique<CallsWorkload>(cfg, protocol);
}

}  // namespace hcm::perfbench
