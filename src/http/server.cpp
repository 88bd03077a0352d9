#include "http/server.hpp"

#include "common/logging.hpp"
#include "obs/slab.hpp"

namespace hcm::http {

HttpServer::HttpServer(net::Network& net, net::NodeId node, std::uint16_t port)
    : net_(net),
      node_(node),
      port_(port),
      obs_scope_(obs::shard_registry().unique_scope("http.server")),
      requests_served_(
          obs::shard_registry().counter(obs_scope_ + ".requests")),
      connections_accepted_(
          obs::shard_registry().counter(obs_scope_ + ".connections")),
      request_latency_us_(
          obs::shard_registry().histogram(obs_scope_ + ".latency_us")) {}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("HTTP server: no such node");
  auto status =
      n->listen(port_, [this](net::StreamPtr stream) { on_accept(stream); });
  if (!status.is_ok()) return status;
  listening_ = true;
  return Status::ok();
}

void HttpServer::stop() {
  if (!listening_) return;
  if (net::Node* n = net_.node(node_)) n->stop_listening(port_);
  listening_ = false;
  // Sever every accepted connection: their stream callbacks capture
  // `this`, which must never outlive the server.
  for (auto& weak : connections_) {
    if (auto conn = weak.lock(); conn && conn->stream) {
      conn->stream->set_on_data(nullptr);
      conn->stream->close();
      conn->stream = nullptr;
    }
  }
  connections_.clear();
}

void HttpServer::route(const std::string& target, RequestHandler handler) {
  routes_[target] = std::move(handler);
}

void HttpServer::remove_route(const std::string& target) {
  routes_.erase(target);
}

void HttpServer::on_accept(net::StreamPtr stream) {
  connections_accepted_.inc();
  auto conn = std::make_shared<Connection>();
  conn->stream = stream;
  // Compact dead entries occasionally, then track the new connection.
  std::erase_if(connections_,
                [](const std::weak_ptr<Connection>& w) { return w.expired(); });
  connections_.push_back(conn);
  stream->set_on_close([conn]() mutable { conn->stream = nullptr; });
  stream->set_on_data([this, conn](BlockStream&& data) {
    auto status = conn->parser.feed(std::move(data));
    if (!status.is_ok()) {
      log_warn("http", "dropping connection: ", status.to_string());
      if (conn->stream) conn->stream->close();
      return;
    }
    while (conn->parser.pop_request(conn->scratch_req)) {
      handle(conn->scratch_req, conn);
    }
  });
}

void HttpServer::handle(const Request& req,
                        const std::shared_ptr<Connection>& conn) {
  requests_served_.inc();
  // Respond may fire after the server is gone (async handlers), so it
  // captures the scheduler and the registry-owned histogram, not this.
  auto respond = [conn, keep_alive = req.version == "HTTP/1.1",
                  &sched = net_.scheduler(), &latency = request_latency_us_,
                  start = net_.scheduler().now()](Response&& resp) {
    latency.observe(sched.now() - start);
    if (!conn->stream || !conn->stream->is_open()) return;
    resp.set_header("Server", "hcm-httpd/1.0");
    BlockStream out;
    resp.serialize_to(out);
    conn->stream->send(std::move(out));
    if (!keep_alive) conn->stream->close();
  };

  auto it = routes_.find(req.target);
  if (it != routes_.end()) {
    it->second(req, std::move(respond));
    return;
  }
  // Prefix routes: "/vsg/*" style registered as "/vsg/".
  for (const auto& [prefix, handler] : routes_) {
    if (!prefix.empty() && prefix.back() == '/' &&
        req.target.rfind(prefix, 0) == 0) {
      handler(req, std::move(respond));
      return;
    }
  }
  respond(Response::make(404, "Not Found", "no handler for " + req.target));
}

}  // namespace hcm::http
