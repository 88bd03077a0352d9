#include "jini/protocol.hpp"

namespace hcm::jini {

Value ServiceItem::to_value() const {
  ValueMap out;
  out.reserve(6);
  out.emplace("id", service_id);
  out.emplace("name", name);
  out.emplace("iface", interface_to_value(interface));
  out.emplace("node", static_cast<std::int64_t>(endpoint.node));
  out.emplace("port", static_cast<std::int64_t>(endpoint.port));
  out.emplace("attrs", attributes);
  return Value(std::move(out));
}

namespace {
// Everything but the attributes, which the two overloads copy or move.
Result<ServiceItem> item_from_value(const Value& v) {
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
  return item;
}
}  // namespace

Result<ServiceItem> ServiceItem::from_value(const Value& v) {
  auto item = item_from_value(v);
  if (item.is_ok() && v.at("attrs").is_map()) {
    item.value().attributes = v.at("attrs").as_map();
  }
  return item;
}

Result<ServiceItem> ServiceItem::from_value(Value&& v) {
  auto item = item_from_value(v);
  if (!item.is_ok()) return item;
  auto attrs = v.as_map().find("attrs");
  if (attrs != v.as_map().end() && attrs->second.is_map()) {
    item.value().attributes = std::move(attrs->second.as_map());
  }
  return item;
}

}  // namespace hcm::jini
