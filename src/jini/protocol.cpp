#include "jini/protocol.hpp"

#include "common/value_codec.hpp"

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

Bytes encode_call(const CallMessage& m) {
  return encode_value(Value(ValueMap{
      {"id", Value(static_cast<std::int64_t>(m.call_id))},
      {"svc", Value(m.service_id)},
      {"method", Value(m.method)},
      {"args", Value(m.args)},
      {"oneWay", Value(m.one_way)},
  }));
}

Result<CallMessage> decode_call(ByteView b) {
  auto v = decode_value(b);
  if (!v.is_ok()) return v.status();
  const Value& m = v.value();
  if (!m.is_map()) return protocol_error("call is not a map");
  CallMessage out;
  auto id = m.at("id").to_int();
  if (!id.is_ok()) return protocol_error("call missing id");
  out.call_id = static_cast<std::uint64_t>(id.value());
  if (!m.at("svc").is_string() || !m.at("method").is_string()) {
    return protocol_error("call missing service/method");
  }
  out.service_id = m.at("svc").as_string();
  out.method = m.at("method").as_string();
  if (m.at("args").is_list()) out.args = m.at("args").as_list();
  out.one_way = m.at("oneWay").is_bool() && m.at("oneWay").as_bool();
  return out;
}

Bytes encode_reply(const ReplyMessage& m) {
  ValueMap map{
      {"id", Value(static_cast<std::int64_t>(m.call_id))},
      {"ok", Value(m.status.is_ok())},
  };
  if (m.status.is_ok()) {
    map["value"] = m.value;
  } else {
    map["code"] = Value(static_cast<std::int64_t>(m.status.code()));
    map["msg"] = Value(m.status.message());
  }
  return encode_value(Value(std::move(map)));
}

Result<ReplyMessage> decode_reply(ByteView b) {
  auto v = decode_value(b);
  if (!v.is_ok()) return v.status();
  const Value& m = v.value();
  if (!m.is_map()) return protocol_error("reply is not a map");
  ReplyMessage out;
  auto id = m.at("id").to_int();
  if (!id.is_ok()) return protocol_error("reply missing id");
  out.call_id = static_cast<std::uint64_t>(id.value());
  if (!m.at("ok").is_bool()) return protocol_error("reply missing ok");
  if (m.at("ok").as_bool()) {
    out.value = m.at("value");
  } else {
    auto code = m.at("code").to_int();
    if (!code.is_ok() || code.value() < 0 ||
        code.value() > static_cast<int>(StatusCode::kResourceExhausted)) {
      return protocol_error("reply missing error code");
    }
    out.status = Status(
        static_cast<StatusCode>(code.value()),
        m.at("msg").is_string() ? m.at("msg").as_string() : "");
  }
  return out;
}

}  // namespace hcm::jini
