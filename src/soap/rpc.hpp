// SOAP RPC endpoints: a server that dispatches envelope calls to
// registered method handlers, and a client that issues calls. These are
// the exact mechanics the Virtual Service Gateway speaks between
// middleware islands.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "http/client.hpp"
#include "http/server.hpp"
#include "obs/metrics.hpp"
#include "obs/slab.hpp"
#include "soap/envelope.hpp"

namespace hcm::soap {

// Same type as hcm::InvokeResultFn (the VSG moves completions across
// the soap boundary without re-wrapping).
using CallResultFn = SmallFn<void(Result<Value>), 192>;
// A method handler: receives named params, answers asynchronously. The
// params are borrowed from the request envelope for the handler's frame;
// a handler may move values out of them (the envelope is reparsed on
// reuse). Handlers taking `const NamedValues&` bind as well.
using MethodHandler =
    std::function<void(NamedValues& params, CallResultFn done)>;

// Per-call state of the dispatches a SoapService has in flight (see
// rpc.cpp). The service and its completions share it, so it outlives a
// service destroyed while a completion is still pending.
class DispatchTable;

// Dispatch service mounted at a path on an HttpServer. Multiple
// SoapServices can share one HttpServer (one per mounted path).
class SoapService {
 public:
  SoapService(http::HttpServer& http_server, std::string path);
  ~SoapService();
  SoapService(const SoapService&) = delete;
  SoapService& operator=(const SoapService&) = delete;

  void register_method(const std::string& method, MethodHandler handler);
  void unregister_method(const std::string& method);
  [[nodiscard]] bool has_method(const std::string& method) const {
    return methods_.count(method) != 0;
  }
  // Every mounted method name, sorted (hcm_lint checks that each wire
  // op has a round-trip fixture).
  [[nodiscard]] std::vector<std::string> method_names() const {
    std::vector<std::string> out;
    out.reserve(methods_.size());
    for (const auto& [name, handler] : methods_) out.push_back(name);
    return out;
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t calls_handled() const {
    return calls_handled_.value();
  }
  // Dispatch slots allocated so far: the most calls that were ever in
  // flight at once (slots are recycled, never freed).
  [[nodiscard]] std::size_t dispatch_slots() const;

 private:
  void handle(const http::Request& req, http::RespondFn respond);
  // Envelope free-list: handle() borrows one for the duration of its
  // frame (a synchronous nested dispatch borrows another), so request
  // parsing reuses string/param capacities call over call.
  std::unique_ptr<Envelope> acquire_env();
  void release_env(std::unique_ptr<Envelope> env);

  http::HttpServer& http_server_;
  std::string path_;
  std::map<std::string, MethodHandler> methods_;
  std::vector<std::unique_ptr<Envelope>> env_pool_;
  std::string obs_scope_;
  obs::Counter& calls_handled_;
  obs::Counter& faults_sent_;
  std::shared_ptr<DispatchTable> dispatch_;
};

// Client-side SOAP call helper.
class SoapClient {
 public:
  SoapClient(net::Network& net, net::NodeId node,
             http::HttpClient::Options options = http::HttpClient::Options{})
      : http_(net, node, options),
        calls_sent_(obs::shard_registry().counter(
            obs::shard_registry().unique_scope("soap.client") +
            ".calls_sent")) {}

  // Invokes `method` at dest/path. The result callback receives the
  // decoded return value or the fault converted back to a Status.
  void call(net::Endpoint dest, const std::string& path,
            const std::string& ns, const std::string& method,
            NamedValuesView params, CallResultFn done);

  [[nodiscard]] std::uint64_t calls_sent() const { return calls_sent_.value(); }

 private:
  http::HttpClient http_;
  // Response-parse scratch: deliveries are serialized per client (the
  // single-threaded scheduler runs one callback at a time), and the
  // result Value is moved out before `done` runs, so a nested call
  // issued from inside a completion can safely reuse it.
  Envelope env_scratch_;
  obs::Counter& calls_sent_;
};

}  // namespace hcm::soap
