#include "testbed/city.hpp"

#include <string>

namespace hcm::testbed {

namespace {
constexpr std::uint16_t kGatewayHttpPort = 8080;
constexpr std::uint16_t kReportPort = 7000;
constexpr std::uint16_t kDevicePort = 7001;
constexpr const char* kSoapPath = "/vsg";
constexpr const char* kSoapNs = "urn:hcm:city";
}  // namespace

City::City(sim::ShardedKernel& k, const CityOptions& options)
    : kernel(k), sched(k.shard(0)), net(sched), options_(options) {
  net.set_kernel(&kernel);
  kernel.seed(options.seed);
  build(options);
}

void City::build(const CityOptions& options) {
  const sim::ShardId shards = kernel.shards();
  kernel.run_as(0, [&] {
    backbone_ = &net.add_ethernet("backbone", options.backbone_latency,
                                  100'000'000);
  });

  islands_.reserve(options.islands);
  for (std::size_t i = 0; i < options.islands; ++i) {
    auto isl = std::make_unique<Island>();
    isl->index = i;
    isl->shard = static_cast<sim::ShardId>(i % shards);
    Island& island = *isl;
    kernel.run_as(island.shard, [&] {
      auto& lan = net.add_ethernet("lan-" + std::to_string(i),
                                   sim::microseconds(100), 100'000'000);
      island.gateway = &net.add_node("gw-" + std::to_string(i));
      net.attach(*island.gateway, lan);
      net.attach(*island.gateway, *backbone_);
      island.http = std::make_unique<http::HttpServer>(
          net, island.gateway->id(), kGatewayHttpPort);
      (void)island.http->start();
      island.service =
          std::make_unique<soap::SoapService>(*island.http, kSoapPath);
      island.service->register_method(
          "report", [&island](const soap::NamedValues&, soap::CallResultFn d) {
            d(Value(static_cast<std::int64_t>(island.index)));
          });
      (void)island.gateway->bind(
          kReportPort,
          [&island](net::Endpoint, const Bytes&) { ++island.reports; });
      island.client =
          std::make_unique<soap::SoapClient>(net, island.gateway->id());
      island.devices.reserve(options.devices_per_island);
      for (std::size_t d = 0; d < options.devices_per_island; ++d) {
        auto& dev = net.add_node("dev-" + std::to_string(i) + "-" +
                                 std::to_string(d));
        net.attach(dev, lan);
        island.devices.push_back(dev.id());
      }
    });
    islands_.push_back(std::move(isl));
  }
  const std::size_t n = islands_.size();
  for (std::size_t i = 0; i < n; ++i) {
    islands_[i]->neighbor = {islands_[(i + 1) % n]->gateway->id(),
                             kGatewayHttpPort};
  }
  const sim::Duration min_latency = net.min_cross_shard_latency();
  if (min_latency > 0) kernel.set_lookahead(min_latency);
}

void City::start() {
  for (auto& isl : islands_) {
    Island& island = *isl;
    kernel.run_as(island.shard, [&] {
      auto& shard_sched = net.scheduler();
      for (std::size_t d = 0; d < island.devices.size(); ++d) {
        // Index-derived phases spread the fleet across the period
        // deterministically (no RNG involved in the tick grid).
        const sim::Duration phase = static_cast<sim::Duration>(
            (island.index * 131 + d * 17) % options_.device_period + 1);
        shard_sched.after(phase, [this, &island, d] {
          tick_device(island, d, options_.device_period);
        });
      }
      const sim::Duration ring_phase = static_cast<sim::Duration>(
          (island.index * 197) % options_.ring_period + 1);
      shard_sched.after(ring_phase, [this, &island] {
        ring_call(island, options_.ring_period);
      });
    });
  }
}

void City::tick_device(Island& isl, std::size_t dev, sim::Duration period) {
  Bytes payload = net.datagram_buffer();
  payload.assign({0x01, static_cast<std::uint8_t>(isl.index & 0xff),
                  static_cast<std::uint8_t>(dev & 0xff)});
  net.send_datagram({isl.devices[dev], kDevicePort},
                    {isl.gateway->id(), kReportPort}, std::move(payload));
  net.scheduler().after(period, [this, &isl, dev, period] {
    tick_device(isl, dev, period);
  });
}

void City::ring_call(Island& isl, sim::Duration period) {
  const soap::NamedValues params{
      {"island", Value(static_cast<std::int64_t>(isl.index))}};
  isl.client->call(isl.neighbor, kSoapPath, kSoapNs, "report", params,
                   [&isl](Result<Value> r) {
                     if (r.is_ok()) ++isl.ring_ok;
                   });
  net.scheduler().after(period,
                        [this, &isl, period] { ring_call(isl, period); });
}

std::uint64_t City::reports_received() const {
  std::uint64_t total = 0;
  for (const auto& isl : islands_) total += isl->reports;
  return total;
}

std::uint64_t City::ring_calls_ok() const {
  std::uint64_t total = 0;
  for (const auto& isl : islands_) total += isl->ring_ok;
  return total;
}

}  // namespace hcm::testbed
