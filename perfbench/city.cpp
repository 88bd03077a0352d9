// city: the sharded kernel at scale.
//
// testbed::City with 1,000 islands x 100 devices on min(4, nproc / 2)
// shards, with per-shard wire block pools. The only workload that runs
// ShardedKernel windows, barriers and SPSC drains; adapters, PCM, VSR
// and events are idle. An op is a device report or a ring call. City
// traffic is index-derived, so the seed only seeds the kernel's RNG
// streams and the report probes' senders and phases. The script window
// spans whole device and ring periods, so the expected report and
// ring-call counts are exact.
#include <algorithm>
#include <random>
#include <thread>
#include <unordered_map>

#include "home.hpp"
#include "net/shard_pools.hpp"
#include "sim/trace.hpp"
#include "testbed/city.hpp"

namespace hcm::perfbench {
namespace {

constexpr std::size_t kIslands = 1000;
constexpr std::size_t kDevices = 100;
constexpr sim::Duration kDevicePeriod = sim::seconds(2);
constexpr sim::Duration kRingPeriod = sim::seconds(1);
constexpr sim::Duration kEpoch = sim::milliseconds(100);
// Script length: a whole number of device periods (40 x 100 ms = 4 s).
constexpr std::size_t kScriptEpochs = 40;
constexpr sim::Duration kTracedChunk = sim::milliseconds(10);
// Benchmark-owned port for report probes (City uses 7000, 7001, 8080).
constexpr std::uint16_t kProbePort = 7900;

// Report latency is measured on real deliveries: once per device period
// each island's probe device (seeded) sends a report-sized datagram to
// its gateway at a seeded phase, over the same LAN as the fleet's
// reports. The send time is taken on the island's shard and the transit
// recorded by a handler on the gateway, which runs on that shard too.
struct ReportProbe {
  sim::Scheduler* sched = nullptr;
  net::NodeId device = 0;
  net::NodeId gateway = 0;
  sim::SimTime sent = 0;
  std::vector<double> transit_ms;  // script window only
};

// Up to 4 shards, leaving half the cores free: every window waits for
// its slowest shard, so a shard whose core is taken by another process
// stalls them all. On a shared 4-core host, 4 shards spread the run's
// throughput by ~20% (interquartile over seeds) against ~4% at 2.
sim::ShardId shard_count() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<sim::ShardId>(std::clamp(hw / 2, 1u, 4u));
}

class CityWorkload final : public Workload {
 public:
  explicit CityWorkload(const RunConfig& cfg) : cfg_(cfg) {}

  ~CityWorkload() override {
    // The kernel outlives the city and its trace hooks; the block pools
    // outlive the kernel, whose pending events still hold in-flight
    // wire blocks until it is destroyed.
    city_.reset();
    traces_.clear();
    kernel_.reset();
    pools_.reset();
  }

  Value params() const override {
    return Value(ValueMap{
        {"islands", Value(static_cast<std::int64_t>(kIslands))},
        {"devices_per_island", Value(static_cast<std::int64_t>(kDevices))},
        {"shards", Value(static_cast<std::int64_t>(shard_count()))},
        {"device_period_virtual_s", Value(1e-6 * kDevicePeriod)},
        {"ring_period_virtual_s", Value(1e-6 * kRingPeriod)},
        {"epoch_virtual_s", Value(1e-6 * kEpoch)},
    });
  }
  std::size_t default_script_epochs() const override { return kScriptEpochs; }
  // Every device has ticked and every gateway has opened its ring
  // connection before the script starts, so its counts are exact.
  std::size_t warmup_epochs() const override {
    return static_cast<std::size_t>(kDevicePeriod / kEpoch) + 1;
  }
  // Device reports and ring calls bunch at the start of each period
  // (index-derived phases), so a rate sample spans a whole period.
  std::size_t epochs_per_sample() const override {
    return static_cast<std::size_t>(kDevicePeriod / kEpoch);
  }

  void setup() override {
    sim::ShardedKernelOptions kopts;
    kopts.shards = shard_count();
    kernel_ = std::make_unique<sim::ShardedKernel>(kopts);
    for (sim::ShardId s = 0; s < kopts.shards; ++s) {
      traces_.push_back(std::make_unique<sim::TraceRecorder>(kernel_->shard(s)));
    }
    pools_ = std::make_unique<net::ShardBlockPools>(*kernel_);
    testbed::CityOptions copts;
    copts.islands = kIslands;
    copts.devices_per_island = kDevices;
    copts.device_period = kDevicePeriod;
    copts.ring_period = kRingPeriod;
    copts.seed = cfg_.seed;
    city_ = std::make_unique<testbed::City>(*kernel_, copts);
    city_->start();
    for (const auto& seg : city_->net.segments()) {
      if (seg->name() == "backbone") backbone_ = seg.get();
    }
    if (backbone_ == nullptr) ledger_.fail("setup: no backbone segment");
    start_probes();
  }

  void prepare_epoch() override {}

  void run_epoch(SpanRecorder* spans) override {
    const std::uint64_t before = ops_now();
    if (spans == nullptr) {
      const Clock::time_point t0 = Clock::now();
      kernel_->run_for(kEpoch);
      run_ns_ += ns_between(t0, Clock::now());
    } else {
      for (sim::Duration d = 0; d < kEpoch; d += kTracedChunk) {
        SpanScope chunk(spans, "kernel.run_for");
        kernel_->run_for(kTracedChunk);
      }
    }
    const std::uint64_t after = ops_now();
    ledger_.attempted += after - before;
    ledger_.completed += after - before;
  }

  void drain(SpanRecorder*) override {}

  void begin_script() override {
    for (auto& p : probes_) p->transit_ms.clear();
    recording_ = true;
    obs::Registry::global().reset_values();
    virt0_ = kernel_->now();
    reports0_ = city_->reports_received();
    ring0_ = city_->ring_calls_ok();
    events0_ = kernel_->events_processed();
    windows0_ = kernel_->windows_run();
    cross0_ = kernel_->cross_shard_posts();
    overflow0_ = kernel_->overflow_posts();
    busy0_ = kernel_->busy_ns();
    bb_bytes0_ = backbone_->bytes_carried();
    bb_frames0_ = backbone_->frames_carried();
    pool0_ = pools_->aggregate_stats();
    run_ns_ = 0;
  }

  void end_script(Metrics& e2e, Metrics& l) override {
    recording_ = false;
    const double vs = static_cast<double>(kernel_->now() - virt0_) / 1e6;
    const double reports =
        static_cast<double>(city_->reports_received() - reports0_);
    const double ring = static_cast<double>(city_->ring_calls_ok() - ring0_);
    const double ops = reports + ring;
    const auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    // Exact expectations: the window spans whole device/ring periods.
    const double expect_reports =
        static_cast<double>(kIslands * kDevices) * vs * 1e6 / kDevicePeriod;
    const double expect_ring =
        static_cast<double>(kIslands) * vs * 1e6 / kRingPeriod;
    if (reports != expect_reports) {
      ledger_.fail("city: " + std::to_string(reports) + " reports, expected " +
                   std::to_string(expect_reports));
    }
    if (ring != expect_ring) {
      ledger_.fail("city: " + std::to_string(ring) +
                   " ring calls ok, expected " + std::to_string(expect_ring));
    }
    if (kernel_->clamped_deliveries() != 0) {
      ledger_.fail("city: " + std::to_string(kernel_->clamped_deliveries()) +
                   " clamped deliveries");
    }

    // Op latency: each probe transit stands for an equal share of the
    // reports; ring calls come from the HTTP client's virtual-time
    // histogram (100 quantile points).
    double probes = 0;
    for (const auto& p : probes_) {
      probes += static_cast<double>(p->transit_ms.size());
    }
    if (probes == 0) ledger_.fail("city: no report probe arrived");
    LatencySamples lat;
    for (const auto& p : probes_) {
      for (double ms : p->transit_ms) lat.add(ms, reports / probes);
    }
    const auto ring_hist = merged_histogram("http.client.latency_us", "");
    for (int q = 0; q < 100; ++q) {
      lat.add(static_cast<double>(ring_hist->percentile(q + 0.5)) / 1e3,
              ring / 100.0);
    }
    e2e["op_virtual_ms_p50"] = {lat.percentile(50), "virtual_ms"};
    e2e["op_virtual_ms_p99"] = {lat.percentile(99), "virtual_ms"};
    e2e["backbone_bytes_per_op"] = {
        per_op(count(backbone_->bytes_carried() - bb_bytes0_)), "B"};

    l["load.op_samples"] = {ops, "count"};
    l["sim.events_per_op"] = {
        per_op(count(kernel_->events_processed() - events0_)), "count"};
    l["sim.kernel.windows_per_vs"] = {
        vs > 0 ? count(kernel_->windows_run() - windows0_) / vs : 0,
        "1/s_virtual"};
    l["sim.kernel.cross_posts_per_op"] = {
        per_op(count(kernel_->cross_shard_posts() - cross0_)), "count"};
    l["sim.kernel.overflow_posts"] = {
        count(kernel_->overflow_posts() - overflow0_), "count"};
    l["sim.kernel.clamped"] = {count(kernel_->clamped_deliveries()), "count"};
    const std::vector<std::uint64_t> busy = kernel_->busy_ns();
    double sum = 0, peak = 0;
    for (std::size_t s = 0; s < busy.size(); ++s) {
      const double b = count(busy[s] - busy0_[s]);
      sum += b;
      peak = std::max(peak, b);
    }
    l["sim.kernel.busy_share"] = {
        run_ns_ > 0 ? sum / (static_cast<double>(busy.size()) * run_ns_) : 0,
        "ratio"};
    l["sim.kernel.est_speedup"] = {peak > 0 ? sum / peak : 0, "ratio"};

    l["net.backbone_frames_per_op"] = {
        per_op(count(backbone_->frames_carried() - bb_frames0_)), "count"};
    l["net.datagrams_dropped"] = {
        count(sum_counters("net", ".datagrams_dropped")), "count"};
    const BlockPool::Stats pool = pools_->aggregate_stats();
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

    l["city.reports_per_vs"] = {vs > 0 ? reports / vs : 0, "1/s_virtual"};
    l["city.ring_ok_ratio"] = {expect_ring > 0 ? ring / expect_ring : 0,
                               "ratio"};

    // Deterministic parts only: wall-clock busy shares and pool
    // occupancy (lane-dependent) stay out of the digest.
    Fingerprint fp;
    for (const auto& t : traces_) fp.mix(t->digest());
    fp.mix(reports);
    fp.mix(ring);
    fp.mix(count(kernel_->events_processed() - events0_));
    fp.mix(count(kernel_->windows_run() - windows0_));
    fp.mix(count(kernel_->cross_shard_posts() - cross0_));
    fp.mix(count(backbone_->bytes_carried() - bb_bytes0_));
    mix_metrics(fp, e2e);
    fingerprint_ = fp.value();
  }

  void replay(SpanRecorder&, Metrics&) override {}

  void span_metrics(const SpanRecorder& spans, Metrics& l) override {
    l["sim.kernel.run_for_chunk_ns"] = {spans.mean_ns("kernel.run_for"), "ns"};
  }

  void final_checks() override {
    if (kernel_->clamped_deliveries() != 0) {
      ledger_.fail("city: clamped deliveries after the script");
    }
  }

  void set_program_tracing(bool on) override {
    // The tracer's span ids are allocated across shards in scheduling
    // order; the City's wire path carries no adapter spans, so leaving
    // it off keeps the traced run's kernel work identical.
    (void)on;
  }

  std::uint64_t fingerprint() const override { return fingerprint_; }

 private:
  void start_probes() {
    std::mt19937_64 rng(cfg_.seed);
    std::vector<std::string> names;
    std::vector<sim::Duration> phases;
    std::unordered_map<std::string, net::Node*> nodes;
    for (std::size_t i = 0; i < kIslands; ++i) {
      const std::size_t dev = rng() % kDevices;
      phases.push_back(static_cast<sim::Duration>(rng() % kDevicePeriod) + 1);
      names.push_back("gw-" + std::to_string(i));
      names.push_back("dev-" + std::to_string(i) + "-" + std::to_string(dev));
      nodes[names[names.size() - 2]] = nullptr;
      nodes[names.back()] = nullptr;
    }
    // One pass over the node table (find_node scans it per call).
    for (net::NodeId id = 1; net::Node* n = city_->net.node(id); ++id) {
      auto it = nodes.find(n->name());
      if (it != nodes.end()) it->second = n;
    }
    for (std::size_t i = 0; i < kIslands; ++i) {
      const sim::Duration phase = phases[i];
      net::Node* gw = nodes[names[2 * i]];
      net::Node* node = nodes[names[2 * i + 1]];
      if (gw == nullptr || node == nullptr) {
        ledger_.fail("setup: island " + std::to_string(i) + " not found");
        return;
      }
      auto probe = std::make_unique<ReportProbe>();
      ReportProbe* p = probe.get();
      p->device = node->id();
      p->gateway = gw->id();
      probes_.push_back(std::move(probe));
      // City places island i on shard i % shards.
      const auto shard = static_cast<sim::ShardId>(i % kernel_->shards());
      kernel_->run_as(shard, [&] {
        p->sched = &city_->net.scheduler();
        const Status bound = gw->bind(kProbePort, [this, p](net::Endpoint,
                                                            const Bytes&) {
          if (recording_) {
            p->transit_ms.push_back(
                static_cast<double>(p->sched->now() - p->sent) / 1e3);
          }
        });
        if (!bound.is_ok()) ledger_.fail("setup: " + bound.to_string());
        p->sched->after(phase, [this, p] { send_probe(p); });
      });
    }
  }

  void send_probe(ReportProbe* p) {
    p->sent = p->sched->now();
    city_->net.send_datagram({p->device, kProbePort}, {p->gateway, kProbePort},
                             Bytes{0x02, 0x00, 0x00});
    p->sched->after(kDevicePeriod, [this, p] { send_probe(p); });
  }

  [[nodiscard]] std::uint64_t ops_now() const {
    return city_->reports_received() + city_->ring_calls_ok();
  }

  RunConfig cfg_;
  std::unique_ptr<sim::ShardedKernel> kernel_;
  std::vector<std::unique_ptr<sim::TraceRecorder>> traces_;
  std::unique_ptr<net::ShardBlockPools> pools_;
  std::unique_ptr<testbed::City> city_;
  net::Segment* backbone_ = nullptr;
  std::vector<std::unique_ptr<ReportProbe>> probes_;
  // Written only while the kernel is parked; the window barrier orders
  // it before the shards' reads.
  bool recording_ = false;
  sim::SimTime virt0_ = 0;
  std::uint64_t reports0_ = 0, ring0_ = 0, events0_ = 0;
  std::uint64_t windows0_ = 0, cross0_ = 0, overflow0_ = 0;
  std::vector<std::uint64_t> busy0_;
  std::uint64_t bb_bytes0_ = 0, bb_frames0_ = 0;
  BlockPool::Stats pool0_;
  std::uint64_t run_ns_ = 0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_city(const RunConfig& cfg) {
  return std::make_unique<CityWorkload>(cfg);
}

}  // namespace hcm::perfbench
