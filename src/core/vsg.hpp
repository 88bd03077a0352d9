// Virtual Service Gateway (paper §3.1): the per-island gateway that
// connects one middleware network to the others over a common wire
// protocol — SOAP in the paper's prototype, with a compact binary
// protocol as the ablation alternative.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/service.hpp"
#include "common/uri.hpp"
#include "core/naming.hpp"
#include "http/server.hpp"
#include "net/binary_channel.hpp"
#include "obs/metrics.hpp"
#include "soap/rpc.hpp"

namespace hcm::core {

enum class VsgProtocol { kSoap, kBinary };
const char* to_string(VsgProtocol p);

class VirtualServiceGateway {
 public:
  VirtualServiceGateway(net::Network& net, net::NodeId gateway_node,
                        std::string island_name,
                        std::uint16_t port = 8080,
                        VsgProtocol protocol = VsgProtocol::kSoap);
  ~VirtualServiceGateway();
  VirtualServiceGateway(const VirtualServiceGateway&) = delete;
  VirtualServiceGateway& operator=(const VirtualServiceGateway&) = delete;

  [[nodiscard]] Status start();

  [[nodiscard]] const std::string& island_name() const { return island_name_; }
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] VsgProtocol protocol() const { return protocol_; }

  // --- Client Proxy direction ------------------------------------------
  // Exposes a local service through this gateway. Remote islands call
  // the returned endpoint URI; calls are forwarded to `local_invoke`.
  [[nodiscard]] Result<Uri> expose(const std::string& name,
                                   const InterfaceDesc& iface,
                                   ServiceHandler local_invoke);
  void unexpose(const std::string& name);
  [[nodiscard]] bool is_exposed(const std::string& name) const {
    return exposed_.count(name) != 0;
  }
  [[nodiscard]] std::size_t exposed_count() const { return exposed_.size(); }
  // Interface of an exposed service, or nullptr. Lets framework-origin
  // services (e.g. observability, which no native adapter lists) still
  // declare events the bridge can validate subscriptions against.
  [[nodiscard]] const InterfaceDesc* exposed_interface(
      const std::string& name) const {
    auto it = exposed_.find(name);
    return it == exposed_.end() ? nullptr : &it->second.iface;
  }
  // The endpoint URI an exposure is (or would be) reachable at.
  [[nodiscard]] Uri exposure_uri(const std::string& name);

  // --- Server Proxy direction --------------------------------------------
  // Calls a service exposed by a (remote) gateway at `endpoint`.
  void call_remote(const Uri& endpoint, const std::string& service_name,
                   const InterfaceDesc& iface, const std::string& method,
                   const ValueList& args, InvokeResultFn done);

  [[nodiscard]] std::uint64_t remote_calls() const {
    return remote_calls_.value();
  }
  [[nodiscard]] std::uint64_t local_dispatches() const {
    return local_dispatches_.value();
  }
  // Transport connections accepted by this gateway's SOAP listener.
  // With the keep-alive backbone client a caller gateway holds one
  // connection per destination, so this stays flat as call volume grows.
  [[nodiscard]] std::uint64_t backbone_connections_accepted() const {
    return http_.connections_accepted();
  }

  // Metric namespace of this gateway ("vsg.<island>", uniquified per
  // instance). Per-op metrics live at "<scope>.op.<service>.<method>_us"
  // (latency histogram) and ".calls" — created eagerly at expose() so
  // hcm_lint can check coverage before any traffic flows.
  [[nodiscard]] const std::string& obs_scope() const { return obs_scope_; }
  // Every (service, method) pair currently mounted on the wire.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> exposed_ops()
      const;

 private:
  struct Exposed {
    InterfaceDesc iface;
    ServiceHandler handler;
    std::unique_ptr<soap::SoapService> soap_service;  // SOAP mode only
  };

  net::Network& net_;
  net::NodeId node_;
  std::string island_name_;
  std::uint16_t port_;
  VsgProtocol protocol_;
  http::HttpServer http_;
  soap::SoapClient soap_client_;
  net::BinaryRpcServer binary_server_;
  net::BinaryRpcClient binary_client_;
  std::map<std::string, Exposed> exposed_;
  // call_remote scratch, consumed synchronously by the wire client
  // before the frame returns (completions fire on later scheduler
  // events, so a nested call never observes a live borrow). Entry
  // capacities persist call over call.
  soap::NamedValues params_scratch_;
  std::string ns_scratch_;
  std::string obs_scope_;
  obs::Counter& remote_calls_;
  obs::Counter& local_dispatches_;
  obs::Counter& remote_errors_;
  obs::Histogram& remote_latency_us_;
};

}  // namespace hcm::core
