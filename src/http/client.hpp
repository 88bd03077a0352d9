// HTTP client with optional keep-alive connection pooling. The paper's
// prototype (Apache SOAP era) opened a connection per call. The
// framework's own clients pool: the VSG backbone client keeps one
// connection per peer gateway, and every VSR client (soap::UddiClient)
// keeps a small pool to the registry, one connection while its requests
// come one at a time. Without keep_alive, each request opens and closes
// its own connection.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "common/inline_fn.hpp"
#include "http/message.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/slab.hpp"

namespace hcm::http {

// Sized to hold the SOAP client's completion lambda (a 208-byte
// CallResultFn plus three words: 232 bytes) inline — the deepest
// callback layer on the wire path. The result is passed by lvalue
// reference: the client retains ownership of the delivered Response so
// its string/header storage can be recycled into the parser after the
// callback returns (callbacks that want to keep the Response move or
// copy it out).
using ResponseCallback = SmallFn<void(Result<Response>&), 240>;

// True for the failure of a request that a keep-alive connection
// dropped unanswered after it had already carried a response: the
// server went away behind the pool (a restart), so the request most
// likely never reached a live server. Resending it once is the
// caller's call, safe only for idempotent requests (soap::UddiClient
// resends; the VSG backbone, whose calls act on devices, does not).
[[nodiscard]] bool is_stale_connection(const Status& s);

class HttpClient {
 public:
  struct Options {
    bool keep_alive = false;  // pool connections per destination
    // Pooled connections per destination. A request takes an idle one;
    // when all are busy it opens another up to this cap, then queues
    // behind the least loaded (each carries one request at a time).
    std::size_t max_connections = 1;
    sim::Duration request_timeout = sim::seconds(30);
  };

  HttpClient(net::Network& net, net::NodeId node)
      : HttpClient(net, node, Options{}) {}
  // All clients share one metric family ("http.client.*"): a client is
  // per-island plumbing, and callers segment latency by server-side
  // scopes instead. Handles resolve once per instance through
  // obs::shard_registry(), so islands built under a shard binding
  // mutate their own slab (merged at window barriers).
  HttpClient(net::Network& net, net::NodeId node, Options options)
      : net_(net),
        node_(node),
        options_(options),
        requests_(obs::shard_registry().counter("http.client.requests")),
        errors_(obs::shard_registry().counter("http.client.errors")),
        latency_us_(
            obs::shard_registry().histogram("http.client.latency_us")) {}
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Issues a request; the callback gets the response or an error
  // (unreachable, refused, timeout, malformed).
  void request(net::Endpoint dest, Request req, ResponseCallback cb);

  // A Request recycled from a previously sent one (default-constructed
  // on first use): requests are consumed at serialization, so their
  // string/header capacities rotate back here. Hot callers fetch one
  // and fill it with clear/assign to issue requests without per-call
  // allocation.
  [[nodiscard]] Request recycled_request() { return std::move(spare_req_); }

  [[nodiscard]] net::Network& network() { return net_; }

 private:
  struct PooledConn;
  struct Pool;

  void send_on(const std::shared_ptr<PooledConn>& conn, Request req,
               ResponseCallback cb, sim::SimTime start);
  void finish(ResponseCallback cb, sim::SimTime start, Result<Response>& r);
  // Gives a connected stream to `conn` and wires its callbacks.
  void attach(const std::shared_ptr<PooledConn>& conn, net::StreamPtr stream,
              net::Endpoint dest);
  // Fails the requests queued on a connection that failed to connect,
  // closed or timed out. Static: close and timeout handlers may run
  // after the client is gone.
  static void fail_queued(PooledConn& conn, sim::Scheduler& sched,
                          obs::Histogram& lat, obs::Counter& errs,
                          const Status& status);

  net::Network& net_;
  net::NodeId node_;
  Options options_;
  Request spare_req_;  // capacity donor for recycled_request()
  obs::Counter& requests_;
  obs::Counter& errors_;
  obs::Histogram& latency_us_;
  // Owns idle keep-alive connections. The stream's callbacks hold only
  // weak_ptrs back to the connection, so this map (plus any pending
  // request timeout) is what keeps a connection alive.
  std::map<net::Endpoint, std::shared_ptr<Pool>> pool_;
};

}  // namespace hcm::http
