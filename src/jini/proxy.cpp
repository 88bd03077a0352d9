#include "jini/proxy.hpp"

namespace hcm::jini {

Proxy::Proxy(net::Network& net, net::NodeId local_node, ServiceItem item)
    : item_(std::move(item)), client_(net, local_node, "jini", kCallTimeout) {}

void Proxy::invoke(const std::string& method, const ValueList& args,
                   InvokeResultFn done) {
  const MethodDesc* desc = item_.interface.find_method(method);
  if (desc == nullptr) {
    done(not_found("interface " + item_.interface.name + " has no method " +
                   method));
    return;
  }
  if (auto status = check_args(*desc, args); !status.is_ok()) {
    done(status);
    return;
  }
  if (desc->one_way) {
    client_.call_one_way(item_.endpoint, item_.service_id, method, args,
                         std::move(done));
  } else {
    client_.call(item_.endpoint, item_.service_id, method, args,
                 std::move(done));
  }
}

Status Proxy::invoke_one_way(const std::string& method,
                             const ValueList& args) {
  const MethodDesc* desc = item_.interface.find_method(method);
  if (desc == nullptr) return not_found("no method " + method);
  if (!desc->one_way) {
    return invalid_argument(method + " is not a one-way method");
  }
  invoke(method, args, [](Result<Value>) {});
  return Status::ok();
}

}  // namespace hcm::jini
