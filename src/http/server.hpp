// HTTP/1.1 server bound to a simulated node/port. Handlers may respond
// asynchronously (the VSG forwards calls to other islands before
// answering), so the handler receives a respond callback.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "common/inline_fn.hpp"
#include "http/message.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace hcm::http {

// Copyable small-buffer callable: a respond fn is built per request
// and handed through the handler chain, which must not heap-allocate
// at wire rates (handlers may still park copies for async replies).
// The response is taken by rvalue reference so hot handlers can lend a
// recycled scratch Response: respond serializes it synchronously and
// only moves from it if it needs to park the message.
using RespondFn = SmallFn<void(Response&&), 64>;
// Route handler: inspect the request, eventually call respond exactly once.
using RequestHandler = std::function<void(const Request&, RespondFn respond)>;

class HttpServer {
 public:
  HttpServer(net::Network& net, net::NodeId node, std::uint16_t port);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Starts listening. Fails if the port is taken.
  Status start();
  void stop();

  // Exact-match route registration (a target ending in '/' also
  // serves every target under it); anything else gets a 404.
  void route(const std::string& target, RequestHandler handler);
  void remove_route(const std::string& target);

  [[nodiscard]] net::Endpoint endpoint() const { return {node_, port_}; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.value();
  }
  // Transport connections accepted since start; with keep-alive clients
  // this stays well below requests_served (connection reuse).
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_accepted_.value();
  }

 private:
  struct Connection {
    net::StreamPtr stream;
    MessageParser parser{MessageParser::Mode::kRequest};
    // Drain slot for pop_request, so dispatch does not materialize a
    // per-delivery vector.
    Request scratch_req;
  };

  void on_accept(net::StreamPtr stream);
  void handle(const Request& req, const std::shared_ptr<Connection>& conn);

  net::Network& net_;
  net::NodeId node_;
  std::uint16_t port_;
  bool listening_ = false;
  // Live connections, so stop() can detach their callbacks (which
  // capture `this`) before the server goes away.
  std::vector<std::weak_ptr<Connection>> connections_;
  std::map<std::string, RequestHandler> routes_;
  std::string obs_scope_;
  obs::Counter& requests_served_;
  obs::Counter& connections_accepted_;
  obs::Histogram& request_latency_us_;
};

}  // namespace hcm::http
