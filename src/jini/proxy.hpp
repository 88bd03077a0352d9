// Client-side stub for a remote Jini service object — the analogue of
// the downloaded Jini proxy. Calls ride the jini family of the binary
// channel: one lazy connection per proxy, calls multiplexed on it, each
// timed out after kCallTimeout.
#pragma once

#include <string>

#include "common/service.hpp"
#include "jini/protocol.hpp"
#include "net/binary_channel.hpp"

namespace hcm::jini {

class Proxy {
 public:
  Proxy(net::Network& net, net::NodeId local_node, ServiceItem item);
  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  [[nodiscard]] const ServiceItem& item() const { return item_; }

  // Invokes a remote method. Arguments are checked against the proxy's
  // interface before anything touches the wire. A one_way method
  // completes with Value() once its request is sent.
  void invoke(const std::string& method, const ValueList& args,
              InvokeResultFn done);

  // One-way (no reply expected); only valid for one_way methods.
  Status invoke_one_way(const std::string& method, const ValueList& args);

 private:
  ServiceItem item_;
  net::BinaryRpcClient client_;
};

}  // namespace hcm::jini
