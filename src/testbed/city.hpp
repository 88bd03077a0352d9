// City testbed: the ROADMAP scale shape — N middleware islands (one
// LAN + gateway + device fleet each) bridged over one backbone — built
// directly on the VSG wire mechanics (SOAP over HTTP over streams) so
// a 1,000-island / 100k-device city stays affordable to construct.
// Island i is placed on shard i % shards; only the backbone spans
// shards, so its latency is the conservative-window lookahead.
//
// Traffic, all index-derived and therefore deterministic:
//   - every device ticks a datagram report to its gateway each
//     device_period (phase spread by island/device index),
//   - every gateway periodically SOAP-calls its ring neighbor
//     (i+1) % islands — the cross-shard backbone traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "http/server.hpp"
#include "net/network.hpp"
#include "sim/sharded_kernel.hpp"
#include "soap/rpc.hpp"

namespace hcm::testbed {

struct CityOptions {
  std::size_t islands = 4;
  std::size_t devices_per_island = 8;
  sim::Duration device_period = sim::milliseconds(500);
  sim::Duration backbone_latency = sim::milliseconds(5);
  sim::Duration ring_period = sim::milliseconds(750);
  std::uint64_t seed = 42;
};

class City {
 public:
  // A city over a caller-owned (freshly constructed) kernel; one shard
  // runs it single-threaded.
  City(sim::ShardedKernel& kernel, const CityOptions& options);
  City(const City&) = delete;
  City& operator=(const City&) = delete;

  // Kicks off the device ticks and ring calls (idempotent-free: call
  // once, before running the kernel/scheduler).
  void start();

  [[nodiscard]] std::size_t islands() const { return islands_.size(); }
  // Aggregates across islands — read only while the kernel is parked.
  [[nodiscard]] std::uint64_t reports_received() const;
  [[nodiscard]] std::uint64_t ring_calls_ok() const;

  sim::ShardedKernel& kernel;
  sim::Scheduler& sched;
  net::Network net;

 private:
  struct Island {
    std::size_t index = 0;
    sim::ShardId shard = 0;
    net::Node* gateway = nullptr;
    net::Endpoint neighbor{};  // ring target (gateway of (i+1) % n)
    std::unique_ptr<http::HttpServer> http;
    std::unique_ptr<soap::SoapService> service;
    std::unique_ptr<soap::SoapClient> client;
    std::vector<net::NodeId> devices;
    // Owner-shard counters (only the island's shard touches them).
    std::uint64_t reports = 0;
    std::uint64_t ring_ok = 0;
  };

  void build(const CityOptions& options);
  void tick_device(Island& isl, std::size_t dev, sim::Duration period);
  void ring_call(Island& isl, sim::Duration period);

  CityOptions options_;
  net::EthernetSegment* backbone_ = nullptr;
  std::vector<std::unique_ptr<Island>> islands_;
};

}  // namespace hcm::testbed
