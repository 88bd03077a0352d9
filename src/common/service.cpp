#include "common/service.hpp"

namespace hcm {

namespace {
Value method_to_value(const MethodDesc& m) {
  ValueList params;
  params.reserve(m.params.size());
  for (const auto& p : m.params) {
    ValueMap param;
    param.reserve(2);
    param.emplace("name", p.name);
    param.emplace("type", static_cast<std::int64_t>(p.type));
    params.emplace_back(std::move(param));
  }
  ValueMap out;
  out.reserve(4);
  out.emplace("name", m.name);
  out.emplace("params", std::move(params));
  out.emplace("return", static_cast<std::int64_t>(m.return_type));
  out.emplace("oneWay", m.one_way);
  return Value(std::move(out));
}
}  // namespace

Value interface_to_value(const InterfaceDesc& iface) {
  ValueList methods;
  methods.reserve(iface.methods.size());
  for (const auto& m : iface.methods) methods.push_back(method_to_value(m));
  ValueList events;
  events.reserve(iface.events.size());
  for (const auto& e : iface.events) events.push_back(method_to_value(e));
  ValueMap out;
  out.reserve(3);
  out.emplace("name", iface.name);
  out.emplace("methods", std::move(methods));
  out.emplace("events", std::move(events));
  return Value(std::move(out));
}

namespace {
Result<ValueType> type_from(const Value& v) {
  auto i = v.to_int();
  if (!i.is_ok()) return i.status();
  if (i.value() < 0 || i.value() > static_cast<int>(ValueType::kMap)) {
    return protocol_error("bad ValueType ordinal");
  }
  return static_cast<ValueType>(i.value());
}
}  // namespace

namespace {
Result<MethodDesc> method_from_value(const Value& mv) {
  if (!mv.is_map()) return protocol_error("method is not a map");
  MethodDesc m;
  if (!mv.at("name").is_string()) return protocol_error("method name");
  m.name = mv.at("name").as_string();
  auto ret = type_from(mv.at("return"));
  if (!ret.is_ok()) return ret.status();
  m.return_type = ret.value();
  m.one_way = mv.at("oneWay").is_bool() && mv.at("oneWay").as_bool();
  if (mv.at("params").is_list()) {
    for (const auto& pv : mv.at("params").as_list()) {
      ParamDesc p;
      p.name = pv.at("name").is_string() ? pv.at("name").as_string() : "";
      auto pt = type_from(pv.at("type"));
      if (!pt.is_ok()) return pt.status();
      p.type = pt.value();
      m.params.push_back(std::move(p));
    }
  }
  return m;
}
}  // namespace

Result<InterfaceDesc> interface_from_value(const Value& v) {
  if (!v.is_map()) return protocol_error("interface value is not a map");
  InterfaceDesc iface;
  if (!v.at("name").is_string()) {
    return protocol_error("interface missing name");
  }
  iface.name = v.at("name").as_string();
  if (!v.at("methods").is_list()) {
    return protocol_error("interface missing methods");
  }
  for (const auto& mv : v.at("methods").as_list()) {
    auto m = method_from_value(mv);
    if (!m.is_ok()) return m.status();
    iface.methods.push_back(std::move(m).take());
  }
  // "events" is absent in descriptors published before the event
  // bridge existed; treat missing as empty.
  if (v.at("events").is_list()) {
    for (const auto& ev : v.at("events").as_list()) {
      auto e = method_from_value(ev);
      if (!e.is_ok()) return e.status();
      iface.events.push_back(std::move(e).take());
    }
  }
  return iface;
}

}  // namespace hcm
