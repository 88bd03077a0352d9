#include "jini/protocol.hpp"

namespace hcm::jini {

Value ServiceItem::to_value() const {
  return Value(ValueMap{
      {"id", Value(service_id)},
      {"name", Value(name)},
      {"iface", interface_to_value(interface)},
      {"node", Value(static_cast<std::int64_t>(endpoint.node))},
      {"port", Value(static_cast<std::int64_t>(endpoint.port))},
      {"attrs", Value(attributes)},
  });
}

Result<ServiceItem> ServiceItem::from_value(const Value& v) {
  if (!v.is_map()) return protocol_error("service item is not a map");
  ServiceItem item;
  if (!v.at("id").is_string()) return protocol_error("service item id");
  item.service_id = v.at("id").as_string();
  item.name = v.at("name").is_string() ? v.at("name").as_string() : "";
  auto iface = interface_from_value(v.at("iface"));
  if (!iface.is_ok()) return iface.status();
  item.interface = std::move(iface).take();
  auto node = v.at("node").to_int();
  auto port = v.at("port").to_int();
  if (!node.is_ok() || !port.is_ok()) {
    return protocol_error("service item endpoint");
  }
  item.endpoint = {static_cast<net::NodeId>(node.value()),
                   static_cast<std::uint16_t>(port.value())};
  if (v.at("attrs").is_map()) item.attributes = v.at("attrs").as_map();
  return item;
}

}  // namespace hcm::jini
