// dynamism: registry writes, proxy generation, WSDL and store work and
// event batching, beside the call workloads' reads.
//
// SmartHome with a durable VSR (a fresh store directory per run) plus
// a benchmark-owned island added through MetaMiddleware::add_island.
// Every round its services churn by seed — some are added, some
// removed, some re-described, and retired services come back with
// their old description, so the digest caches both hit and miss. Each
// round runs refresh_all, then a burst of native events (vcr-1
// transportChanged and the island's synthetic stateChanged) that fans
// out to subscribers on the other islands. The home has no mail island
// (see setup()). Bursts exceed the router's
// max_batch and stay under max_queue.
#include <array>
#include <filesystem>
#include <optional>
#include <set>

#include "home.hpp"
#include "soap/wsdl.hpp"
#include "store/vsr_store.hpp"

namespace hcm::perfbench {
namespace {

constexpr const char* kIsland = "bench-island";
constexpr const char* kSensor = "bench-sensor";
constexpr std::size_t kBurst = 24;        // > max_batch (16), < max_queue (64)
constexpr std::size_t kInitialChurn = 8;  // churned services at start
constexpr std::size_t kMinChurn = 4;

InterfaceDesc churn_interface(int version) {
  InterfaceDesc iface{"BenchChurn" + std::to_string(version),
                      {MethodDesc{"set",
                                  {{"value", ValueType::kInt}},
                                  ValueType::kBool,
                                  false}}};
  // Only methods with arguments: X10 cannot map these to ON/OFF and
  // refuses the import, which the digest check expects.
  for (int v = 0; v <= version; ++v) {
    iface.methods.push_back(MethodDesc{"probe" + std::to_string(v),
                                       {{"x", ValueType::kInt}},
                                       ValueType::kInt,
                                       false});
  }
  return iface;
}

InterfaceDesc sensor_interface() {
  InterfaceDesc iface{
      "BenchSensor",
      {MethodDesc{"read", {{"channel", ValueType::kInt}}, ValueType::kInt,
                  false}}};
  iface.events.push_back(MethodDesc{
      "stateChanged", {{"state", ValueType::kString}}, ValueType::kNull,
      true});
  return iface;
}

// The benchmark's own middleware: a service table the workload edits
// between rounds. Native events are injected by the workload through
// the island's EventRouter, so watch_events only has to accept.
class ChurnAdapter final : public core::MiddlewareAdapter {
 public:
  explicit ChurnAdapter(net::Network& net) : net_(net) {}

  std::string middleware_name() const override { return "bench"; }

  void list_services(ServicesFn done) override {
    std::vector<core::LocalService> out;
    out.reserve(services.size());
    for (const auto& [name, s] : services) out.push_back(s);
    net_.scheduler().after(0, [out = std::move(out),
                               done = std::move(done)]() mutable {
      done(std::move(out));
    });
  }

  void invoke(const std::string& service, const std::string& method,
              const ValueList& args, InvokeResultFn done) override {
    if (auto it = exported_.find(service); it != exported_.end()) {
      it->second(method, args, std::move(done));
      return;
    }
    const bool known = services.count(service) != 0;
    net_.scheduler().after(0, [known, done = std::move(done)]() mutable {
      if (known) {
        done(Value(true));
      } else {
        done(not_found("bench adapter: no such service"));
      }
    });
  }

  Status export_service(const core::LocalService& service,
                        ServiceHandler handler) override {
    exported_[service.name] = std::move(handler);
    return Status::ok();
  }
  void unexport_service(const std::string& name) override {
    exported_.erase(name);
  }
  Status watch_events(const core::LocalService&, AdapterEventFn) override {
    return Status::ok();
  }

  std::map<std::string, core::LocalService> services;

 private:
  net::Network& net_;
  std::map<std::string, ServiceHandler> exported_;
};

struct Subscriber {
  std::string island;
  std::string service;
  std::uint64_t next_seq = 0;  // next expected payload seq
};

class DynamismWorkload final : public HomeWorkload {
 public:
  explicit DynamismWorkload(const RunConfig& cfg) : HomeWorkload(cfg) {}

  ~DynamismWorkload() override {
    checker_.reset();  // its client streams live on the home's network
    home_.reset();     // closes the store before its directory goes away
    std::error_code ec;
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_, ec);
  }

  Value params() const override {
    return Value(ValueMap{
        {"store", Value("durable VSR, fresh directory per run")},
        {"burst_events_per_source", Value(static_cast<std::int64_t>(kBurst))},
        {"churn_per_round", Value("add 0-2 (new or returning), remove 0-2, "
                                  "re-describe 0-2")},
        {"subscribers", Value("vcr-1: jini, x10, bench; "
                              "bench-sensor: jini, havi")},
        {"islands", Value("jini, havi, x10, bench (no mail island)")},
    });
  }
  std::size_t default_script_epochs() const override { return 150; }

  void setup() override {
    static int instance = 0;
    store_dir_ = cfg_.work_dir + "/vsr-" + std::to_string(cfg_.seed) + "-" +
                 std::to_string(++instance);
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
    std::filesystem::create_directories(store_dir_, ec);
    testbed::SmartHomeOptions options;
    options.store_dir = store_dir_;
    // No mail island: MailAdapter gives every imported service its own
    // polling MailClient, and unexporting one while its poll is in
    // flight frees the client under the pending fetch (use after free).
    // Service churn hits that window; the call workloads keep mail.
    options.include_mail_island = false;
    build_home(options);
    if (home_->vsr->store_open_failed()) ledger_.fail("setup: store open");

    auto& gw = home_->net.add_node("bench-gw");
    home_->net.attach(gw, *home_->backbone);
    auto adapter = std::make_unique<ChurnAdapter>(home_->net);
    adapter_ = adapter.get();
    adapter_->services[kSensor] =
        core::LocalService{kSensor, sensor_interface(), {}};
    for (std::size_t i = 0; i < kInitialChurn; ++i) add_fresh();
    if (!home_->meta->add_island(kIsland, gw.id(), std::move(adapter))
             .is_ok()) {
      ledger_.fail("setup: add_island failed");
    }
    if (!home_->refresh().is_ok()) ledger_.fail("setup: refresh_all failed");
    checker_ = std::make_unique<core::VsrClient>(
        home_->net, home_->vsr_node->id(), home_->vsr->endpoint());
    record_refusals();

    subscribe("jini-island", "vcr-1", "transportChanged");
    subscribe("x10-island", "vcr-1", "transportChanged");
    subscribe(kIsland, "vcr-1", "transportChanged");
    subscribe("jini-island", kSensor, "stateChanged");
    subscribe("havi-island", kSensor, "stateChanged");
    sim::run_until_done(sched_, [this] { return subscribed_ == subs_.size(); });
    if (subscribed_ != subs_.size()) ledger_.fail("setup: subscriptions");
  }

  void prepare_epoch() override {
    check_imports();  // the previous round's refresh
    // Per-round counts run through seeded permutations of {0, 1, 2}, so
    // every 3 rounds churn the same number of services whatever the seed.
    if (counts_.empty()) {
      counts_.assign(3, {});
      for (std::size_t kind = 0; kind < 3; ++kind) {
        std::array<std::uint64_t, 3> c = {0, 1, 2};
        for (std::size_t i = 2; i > 0; --i) {
          std::swap(c[i], c[below(rng_, i + 1)]);
        }
        for (std::size_t r = 0; r < 3; ++r) counts_[r][kind] = c[r];
      }
    }
    const auto [removes, adds, redescribes] = counts_.back();
    counts_.pop_back();
    // Adds and removes balance per 3 rounds, so the population returns
    // to kInitialChurn; every other add brings a retired service back
    // under its old description (a digest-cache hit).
    for (std::uint64_t i = 0; i < removes && churned() > kMinChurn; ++i) {
      auto it = random_churned();
      retired_[it->first] = version_of(it->second);
      adapter_->services.erase(it);
    }
    for (std::uint64_t i = 0; i < adds; ++i) {
      if (!retired_.empty() && (adds_++ % 2) == 0) {
        auto it = std::next(retired_.begin(),
                            static_cast<long>(below(rng_, retired_.size())));
        adapter_->services[it->first] = core::LocalService{
            it->first, churn_interface(it->second), {}};
        retired_.erase(it);
      } else {
        add_fresh();
      }
    }
    for (std::uint64_t i = 0; i < redescribes; ++i) {
      auto it = random_churned();
      it->second.interface = churn_interface(1 - version_of(it->second));
    }
  }

  void run_epoch(SpanRecorder* spans) override {
    // refresh_all round (its own phase before the event burst).
    const sim::SimTime r0 = sched_.now();
    std::optional<Status> refreshed;
    {
      SpanScope round(spans, "meta.refresh_all");
      home_->meta->refresh_all([&refreshed](const Status& s) { refreshed = s; });
      run_until([&refreshed] { return refreshed.has_value(); },
                sim::seconds(30), spans);
    }
    if (!refreshed.has_value() || !refreshed->is_ok()) {
      ledger_.fail("refresh_all did not complete cleanly");
    } else if (recording_) {
      refresh_ms_.push_back(static_cast<double>(sched_.now() - r0) / 1e3);
    }
    ++rounds_;
    // Log bytes appended this round (a compaction shrinks the log, so
    // only growth is counted).
    const std::uint64_t log_now = home_->vsr->store()->log_bytes();
    if (recording_ && log_now > last_log_bytes_) {
      log_bytes_ += log_now - last_log_bytes_;
    }
    last_log_bytes_ = log_now;

    // Event burst from both sources.
    auto& havi_events = *home_->meta->island("havi-island")->events;
    auto& bench_events = *home_->meta->island(kIsland)->events;
    const sim::SimTime now = sched_.now();
    for (std::size_t i = 0; i < kBurst; ++i) {
      emit(havi_events, "vcr-1", "transportChanged", now, spans);
      emit(bench_events, kSensor, "stateChanged", now, spans);
    }
    const bool delivered = run_until(
        [this] { return inflight_ == 0; }, sim::seconds(5), spans);
    if (!delivered) {
      ledger_.fail("burst: " + std::to_string(inflight_) +
                   " deliveries missing after 5 virtual s");
      resync_missing();
    }
  }

  void drain(SpanRecorder* spans) override {
    run_until([this] { return inflight_ == 0; }, sim::seconds(5), spans);
    check_imports();
  }

  void begin_script() override {
    begin_common();
    recording_ = true;
    rounds0_ = rounds_;
    ops0_ = ledger_.completed;
    const store::VsrStore* st = home_->vsr->store();
    commits0_ = st->commits();
    fsyncs0_ = st->fsyncs();
    compactions0_ = st->compactions();
    log_bytes_ = 0;
    last_log_bytes_ = st->log_bytes();
    const auto& reg = home_->vsr->registry();
    delta0_ = reg.delta_syncs();
    full0_ = reg.full_syncs();
    sent0_ = reg.wsdl_bodies_sent();
    elided0_ = reg.wsdl_bodies_elided();
  }

  void end_script(Metrics& e2e, Metrics& l) override {
    recording_ = false;
    const double ops = static_cast<double>(ledger_.completed - ops0_);
    const double rounds = static_cast<double>(rounds_ - rounds0_);
    const auto per_round = [rounds](double v) {
      return rounds > 0 ? v / rounds : 0.0;
    };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    e2e["op_virtual_ms_p50"] = {latency_.percentile(50), "virtual_ms"};
    e2e["op_virtual_ms_p99"] = {latency_.percentile(99), "virtual_ms"};
    e2e["backbone_bytes_per_op"] = {ops > 0 ? backbone_bytes() / ops : 0,
                                    "B"};
    end_common(l, ops);
    l["load.op_samples"] = {latency_.count(), "count"};
    l["load.max_inflight"] = {static_cast<double>(max_inflight_), "count"};
    l["pcm.refresh_virtual_ms_p50"] = {percentile(refresh_ms_, 50),
                                       "virtual_ms"};
    l["pcm.refresh_virtual_ms_p95"] = {percentile(refresh_ms_, 95),
                                       "virtual_ms"};
    l["pcm.refresh_samples"] = {static_cast<double>(refresh_ms_.size()),
                                "count"};

    const auto& reg = home_->vsr->registry();
    const double sent = count(reg.wsdl_bodies_sent() - sent0_);
    const double elided = count(reg.wsdl_bodies_elided() - elided0_);
    l["soap.uddi.delta_syncs_per_round"] = {
        per_round(count(reg.delta_syncs() - delta0_)), "count"};
    l["soap.uddi.full_syncs"] = {count(reg.full_syncs() - full0_), "count"};
    l["soap.uddi.wsdl_bodies_sent_per_round"] = {per_round(sent), "count"};
    l["soap.uddi.wsdl_elided_ratio"] = {
        sent + elided > 0 ? elided / (sent + elided) : 0, "ratio"};
    l["proxygen.server_proxies_per_round"] = {
        per_round(count(sum_counters("proxygen", ".server_proxies"))),
        "count"};
    l["proxygen.client_proxies_per_round"] = {
        per_round(count(sum_counters("proxygen", ".client_proxies"))),
        "count"};
    l["pcm.refresh_latency_us_p50"] = {
        static_cast<double>(
            merged_histogram("pcm.", ".refresh_latency_us")->percentile(50)),
        "us"};
    l["pcm.wsdl_generations_per_round"] = {
        per_round(count(sum_counters("pcm.", ".wsdl_generations"))), "count"};
    l["pcm.renew_fallbacks"] = {count(sum_counters("pcm.", ".renew_fallbacks")),
                                "count"};

    const double delivered = count(sum_counters("events.", ".delivered"));
    const double batches = count(sum_counters("events.", ".batches"));
    l["events.routed_per_op"] = {
        ops > 0 ? count(sum_counters("events.", ".routed")) / ops : 0,
        "count"};
    l["events.batch_fill"] = {batches > 0 ? delivered / batches : 0, "count"};
    l["events.dropped"] = {count(sum_counters("events.", ".dropped")),
                           "count"};
    l["events.retries"] = {count(sum_counters("events.", ".retries")),
                           "count"};
    l["events.duplicates"] = {count(sum_counters("events.", ".duplicates")),
                              "count"};
    const auto ev_lat = merged_histogram("events.", ".delivery_latency_us");
    l["events.delivery_latency_us_p50"] = {
        static_cast<double>(ev_lat->percentile(50)), "us"};
    l["events.delivery_latency_us_p99"] = {
        static_cast<double>(ev_lat->percentile(99)), "us"};

    const store::VsrStore* st = home_->vsr->store();
    l["store.commits_per_round"] = {per_round(count(st->commits() - commits0_)),
                                    "count"};
    l["store.fsyncs_per_round"] = {per_round(count(st->fsyncs() - fsyncs0_)),
                                   "count"};
    l["store.log_bytes_per_round"] = {per_round(count(log_bytes_)), "B"};
    l["store.compactions"] = {count(st->compactions() - compactions0_),
                              "count"};
    l["store.pack_bytes"] = {count(st->pack_bytes()), "B"};
    mix_metrics(fingerprint_, e2e);
    mix_metrics(fingerprint_, l);
  }

  void replay(SpanRecorder& spans, Metrics& l) override {
    // WSDL emit/parse on this island's own churn descriptions.
    std::vector<std::pair<std::string, InterfaceDesc>> ifaces;
    for (const auto& [name, s] : adapter_->services) {
      ifaces.emplace_back(name, s.interface);
    }
    const Uri endpoint = home_->meta->island(kIsland)->vsg->exposure_uri(kSensor);
    constexpr int kRounds = 200;
    std::vector<std::string> docs;
    std::uint64_t gen_ns = 0;
    {
      SpanScope span(&spans, "replay.soap.wsdl_generate");
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < kRounds; ++r) {
        for (const auto& [name, iface] : ifaces) {
          std::string doc = soap::emit_wsdl(iface, name, endpoint);
          if (r == 0) docs.push_back(std::move(doc));
        }
      }
      gen_ns = ns_between(t0, Clock::now());
    }
    std::uint64_t parse_ns = 0;
    {
      SpanScope span(&spans, "replay.soap.wsdl_parse");
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < kRounds; ++r) {
        for (const std::string& doc : docs) {
          if (!soap::parse_wsdl(doc).is_ok()) {
            ledger_.fail("replay: WSDL did not parse");
          }
        }
      }
      parse_ns = ns_between(t0, Clock::now());
    }
    const double n = static_cast<double>(ifaces.size()) * kRounds;
    l["soap.wsdl_generate_ns"] = {n > 0 ? gen_ns / n : 0, "ns"};
    l["soap.wsdl_parse_ns"] = {n > 0 ? parse_ns / n : 0, "ns"};
  }

  void span_metrics(const SpanRecorder& spans, Metrics& l) override {
    l["sim.dispatch_ns_per_event"] = {spans.mean_ns("sim.step"), "ns"};
    l["events.emit_ns"] = {spans.mean_ns("events.on_native_event"), "ns"};
    l["pcm.refresh_round_ns"] = {spans.mean_ns("meta.refresh_all"), "ns"};
  }

  void final_checks() override {
    const auto report = store::VsrStore::fsck(store_dir_);
    if (!report.ok) {
      ledger_.fail("store fsck: " + (report.errors.empty()
                                         ? std::string("not clean")
                                         : report.errors.front()));
    }
    for (const Subscriber& s : subs_) {
      if (s.next_seq != emitted_[s.service]) {
        ledger_.fail("events: " + s.island + " saw " +
                     std::to_string(s.next_seq) + " of " +
                     std::to_string(emitted_[s.service]) + " " + s.service +
                     " events");
      }
    }
  }

 private:
  static int version_of(const core::LocalService& s) {
    return s.interface.name == "BenchChurn1" ? 1 : 0;
  }
  std::size_t churned() const { return adapter_->services.size() - 1; }
  // A seeded pick among the churned services. "bench-sensor" sorts
  // before every "churn-N", so it is always the map's first entry.
  std::map<std::string, core::LocalService>::iterator random_churned() {
    return std::next(adapter_->services.begin(),
                     static_cast<long>(1 + below(rng_, churned())));
  }

  void add_fresh() {
    const std::string name = "churn-" + std::to_string(next_churn_++);
    adapter_->services[name] =
        core::LocalService{name, churn_interface(0), {}};
  }

  void subscribe(const std::string& island, const std::string& service,
                 const std::string& event) {
    const std::size_t idx = subs_.size();
    subs_.push_back(Subscriber{island, service, 0});
    home_->meta->island(island)->events->subscribe(
        service, event,
        [this, idx](const std::string&, const std::string&,
                    const Value& payload) { on_event(idx, payload); },
        [this, island, service](Result<std::string> r) {
          if (r.is_ok()) {
            ++subscribed_;
          } else {
            ledger_.fail("subscribe " + island + " -> " + service + ": " +
                         r.status().to_string());
          }
        });
  }

  void emit(core::EventRouter& router, const char* service, const char* event,
            sim::SimTime now, SpanRecorder* spans) {
    std::uint64_t& seq = emitted_[service];
    emit_time_[service].push_back(now);
    const std::size_t fanout = subscribers_of(service);
    ledger_.attempted += fanout;
    inflight_ += fanout;
    max_inflight_ = std::max(max_inflight_, inflight_);
    const Value payload(ValueMap{
        {"state", Value(std::string(seq % 2 == 0 ? "PLAY" : "STOP"))},
        {"seq", Value(static_cast<std::int64_t>(seq))}});
    ++seq;
    SpanScope span(spans, "events.on_native_event");
    router.on_native_event(service, event, payload);
  }

  std::size_t subscribers_of(const std::string& service) const {
    std::size_t n = 0;
    for (const Subscriber& s : subs_) n += s.service == service ? 1 : 0;
    return n;
  }

  void on_event(std::size_t idx, const Value& payload) {
    Subscriber& s = subs_[idx];
    const auto seq = static_cast<std::uint64_t>(payload.at("seq").as_int());
    if (seq != s.next_seq) {
      ledger_.fail("events: " + s.island + " got " + s.service + " seq " +
                   std::to_string(seq) + ", expected " +
                   std::to_string(s.next_seq));
      return;
    }
    ++s.next_seq;
    if (inflight_ > 0) --inflight_;
    ++ledger_.completed;
    const auto& times = emit_time_[s.service];
    if (recording_ && seq < times.size()) {
      latency_.add(static_cast<double>(sched_.now() - times[seq]) / 1e3);
    }
  }

  // After a lost burst, count the gap as failed and move on.
  void resync_missing() {
    for (Subscriber& s : subs_) s.next_seq = emitted_[s.service];
    inflight_ = 0;
  }

  // Foreign VSR entries every island could not import at set-up
  // (e.g. sendMail has no X10 ON/OFF mapping); these stay refused.
  void record_refusals() {
    for_each_foreign([this](const std::string& island, core::Pcm& pcm,
                            const core::VsrEntry& e) {
      if (pcm.imported_digest(e.name).empty()) {
        refused_.insert(island + "/" + e.name);
      }
    });
  }

  // After every round: each PCM's imported (name, digest) set must
  // match the VSR's foreign entries, apart from adapter refusals.
  void check_imports() {
    std::size_t checked = 0;
    std::map<std::string, std::size_t> matched;
    for_each_foreign([&](const std::string& island, core::Pcm& pcm,
                         const core::VsrEntry& e) {
      ++checked;
      const std::string digest = pcm.imported_digest(e.name);
      if (digest.empty()) {
        const bool churn = e.origin == kIsland && e.name != kSensor;
        if ((island == "x10-island" && churn) ||
            refused_.count(island + "/" + e.name) != 0) {
          return;
        }
        ledger_.fail("pcm " + island + ": " + e.name + " not imported");
      } else if (digest != e.digest) {
        ledger_.fail("pcm " + island + ": stale digest for " + e.name);
      } else {
        ++matched[island];
      }
    });
    for (const char* island :
         {"jini-island", "havi-island", "x10-island", kIsland}) {
      const core::Pcm& pcm = *home_->meta->island(island)->pcm;
      if (pcm.imported_count() != matched[island]) {
        ledger_.fail(std::string("pcm ") + island + ": imports " +
                     std::to_string(pcm.imported_count()) +
                     " services, VSR lists " +
                     std::to_string(matched[island]));
      }
    }
    if (checked == 0) ledger_.fail("vsr: no entries listed");
  }

  template <typename Fn>
  void for_each_foreign(Fn&& fn) {
    std::optional<Result<std::vector<core::VsrEntry>>> listed;
    checker_->list_all([&listed](Result<std::vector<core::VsrEntry>> r) {
      listed = std::move(r);
    });
    sim::run_until_done(sched_, [&listed] { return listed.has_value(); });
    if (!listed.has_value() || !listed->is_ok()) {
      ledger_.fail("vsr: list_all failed");
      return;
    }
    for (const char* island :
         {"jini-island", "havi-island", "x10-island", kIsland}) {
      core::Pcm& pcm = *home_->meta->island(island)->pcm;
      for (const core::VsrEntry& e : listed->value()) {
        if (e.origin != island) fn(island, pcm, e);
      }
    }
  }

  ChurnAdapter* adapter_ = nullptr;
  std::unique_ptr<core::VsrClient> checker_;
  std::string store_dir_;
  std::vector<Subscriber> subs_;
  std::size_t subscribed_ = 0;
  std::map<std::string, std::uint64_t> emitted_;
  std::map<std::string, std::vector<sim::SimTime>> emit_time_;
  std::map<std::string, int> retired_;
  std::vector<std::array<std::uint64_t, 3>> counts_;  // remove, add, re-describe
  std::set<std::string> refused_;
  std::size_t next_churn_ = 0;
  std::uint64_t adds_ = 0;
  LatencySamples latency_;
  std::vector<double> refresh_ms_;
  std::uint64_t inflight_ = 0;
  std::uint64_t max_inflight_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t rounds0_ = 0;
  std::uint64_t ops0_ = 0;
  std::uint64_t commits0_ = 0, fsyncs0_ = 0, compactions0_ = 0;
  std::uint64_t log_bytes_ = 0, last_log_bytes_ = 0;
  std::uint64_t delta0_ = 0, full0_ = 0, sent0_ = 0, elided0_ = 0;
  bool recording_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_dynamism(const RunConfig& cfg) {
  return std::make_unique<DynamismWorkload>(cfg);
}

}  // namespace hcm::perfbench
