#include "soap/wsdl.hpp"

#include <cstdint>
#include <map>

#include "soap/value_xml.hpp"
#include "store/codec.hpp"
#include "xml/xml.hpp"

namespace hcm::soap {

std::string wsdl_digest(std::string_view text) {
  // The durable store owns the single digest implementation (FNV-1a
  // 64-bit rendered as 16 hex chars): a registry and the store behind
  // it key bodies on the same digest by construction, so replay can
  // never disagree with the wire protocol about "unchanged".
  return store::content_digest(text);
}

std::string emit_wsdl(const InterfaceDesc& iface,
                      const std::string& service_name, const Uri& endpoint) {
  const std::string tns = "urn:hcm:" + iface.name;
  std::string out;
  xml::Writer w(out);
  w.prolog()
      .start("wsdl:definitions")
      .attr("name", iface.name)
      .attr("targetNamespace", tns)
      .attr("xmlns:wsdl", "http://schemas.xmlsoap.org/wsdl/")
      .attr("xmlns:soap", "http://schemas.xmlsoap.org/wsdl/soap/")
      .attr("xmlns:xsd", "http://www.w3.org/2001/XMLSchema")
      .attr("xmlns:tns", tns);

  // <message> pairs per operation (methods and events alike; events are
  // one-way so well-formed ones only ever emit an Input message).
  auto emit_messages = [&w](const MethodDesc& m) {
    w.start("wsdl:message").attr("name", m.name + "Input");
    for (const auto& p : m.params) {
      w.start("wsdl:part")
          .attr("name", p.name)
          .attr("type", xsi_type_for(p.type))
          .end();
    }
    w.end();
    if (!m.one_way) {
      w.start("wsdl:message")
          .attr("name", m.name + "Output")
          .start("wsdl:part")
          .attr("name", "return")
          .attr("type", xsi_type_for(m.return_type))
          .end()
          .end();
    }
  };
  for (const auto& m : iface.methods) emit_messages(m);
  for (const auto& e : iface.events) emit_messages(e);

  auto emit_operation = [&w](const MethodDesc& m) {
    w.start("wsdl:operation")
        .attr("name", m.name)
        .start("wsdl:input")
        .attr("message", "tns:" + m.name + "Input")
        .end();
    if (!m.one_way) {
      w.start("wsdl:output").attr("message", "tns:" + m.name + "Output").end();
    }
    w.end();
  };

  // <portType> with operations.
  w.start("wsdl:portType").attr("name", iface.name + "PortType");
  for (const auto& m : iface.methods) emit_operation(m);
  w.end();

  // Events travel as a second portType of notification operations
  // (WSDL 1.1's one-way transmission primitive), named
  // <iface>EventsPortType so parse_wsdl can route them back into the
  // descriptor's events section.
  if (!iface.events.empty()) {
    w.start("wsdl:portType").attr("name", iface.name + "EventsPortType");
    for (const auto& e : iface.events) emit_operation(e);
    w.end();
  }

  // <binding>: rpc/encoded over SOAP-HTTP.
  w.start("wsdl:binding")
      .attr("name", iface.name + "Binding")
      .attr("type", "tns:" + iface.name + "PortType")
      .start("soap:binding")
      .attr("style", "rpc")
      .attr("transport", "http://schemas.xmlsoap.org/soap/http")
      .end()
      .end();

  // <service> with the endpoint address.
  w.start("wsdl:service")
      .attr("name", service_name)
      .start("wsdl:port")
      .attr("name", iface.name + "Port")
      .attr("binding", "tns:" + iface.name + "Binding")
      .start("soap:address")
      .attr("location", endpoint.to_string())
      .end()
      .end()
      .end();

  w.end();  // wsdl:definitions
  return out;
}

Result<WsdlDocument> parse_wsdl(std::string_view text) {
  auto doc = xml::parse(text);
  if (!doc.is_ok()) return doc.status();
  const xml::Element& defs = *doc.value();
  if (defs.local_name() != "definitions") {
    return protocol_error("not a WSDL document: " + defs.name());
  }
  WsdlDocument out;
  if (const auto* name = defs.attr("name")) out.interface.name = *name;

  // Collect messages: name -> parts.
  struct Part {
    std::string name;
    ValueType type;
  };
  std::map<std::string, std::vector<Part>> messages;
  for (const auto* msg : defs.children_named("message")) {
    const auto* mname = msg->attr("name");
    if (mname == nullptr) continue;
    auto& parts = messages[*mname];
    for (const auto* part : msg->children_named("part")) {
      Part p;
      if (const auto* pn = part->attr("name")) p.name = *pn;
      p.type = ValueType::kNull;
      if (const auto* pt = part->attr("type")) {
        p.type = value_type_for_xsi(*pt);
      }
      parts.push_back(std::move(p));
    }
  }

  auto strip_tns = [](const std::string& s) {
    auto colon = s.find(':');
    return colon == std::string::npos ? s : s.substr(colon + 1);
  };

  // Port types -> methods and events. The main portType is named
  // <iface>PortType; <iface>EventsPortType carries the events section.
  const auto port_types = defs.children_named("portType");
  if (port_types.empty()) return protocol_error("WSDL without portType");
  for (const auto* port_type : port_types) {
    const auto* ptname = port_type->attr("name");
    const bool is_events =
        ptname != nullptr && *ptname == out.interface.name + "EventsPortType";
    for (const auto* op : port_type->children_named("operation")) {
      MethodDesc method;
      if (const auto* oname = op->attr("name")) method.name = *oname;
      const auto* input = op->child("input");
      if (input != nullptr) {
        if (const auto* msg_ref = input->attr("message")) {
          for (const auto& part : messages[strip_tns(*msg_ref)]) {
            method.params.push_back({part.name, part.type});
          }
        }
      }
      const auto* output = op->child("output");
      if (output == nullptr) {
        method.one_way = true;
      } else if (const auto* msg_ref = output->attr("message")) {
        const auto& parts = messages[strip_tns(*msg_ref)];
        if (!parts.empty()) method.return_type = parts.front().type;
      }
      if (is_events) {
        out.interface.events.push_back(std::move(method));
      } else {
        out.interface.methods.push_back(std::move(method));
      }
    }
  }

  // Service / endpoint.
  const auto* service = defs.child("service");
  if (service != nullptr) {
    if (const auto* sname = service->attr("name")) out.service_name = *sname;
    if (const auto* port = service->child("port")) {
      if (const auto* addr = port->child("address")) {
        if (const auto* loc = addr->attr("location")) {
          auto uri = parse_uri(*loc);
          if (!uri.is_ok()) return uri.status();
          out.endpoint = uri.value();
        }
      }
    }
  }
  if (out.interface.name.empty()) {
    return protocol_error("WSDL definitions missing name");
  }
  return out;
}

}  // namespace hcm::soap
