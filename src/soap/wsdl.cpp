#include "soap/wsdl.hpp"

#include <cstdint>
#include <map>
#include <optional>

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

namespace {

// A <message>'s parts, and whether an <input> or <output> has claimed
// them.
struct Message {
  std::vector<ParamDesc> parts;
  bool claimed = false;
};

// An operation and the messages its <input> and <output> name (prefix
// stripped), resolved once every <message> is known: messages may
// follow the portTypes.
struct Operation {
  MethodDesc method;
  bool is_event = false;
  std::optional<std::string> input;
  std::optional<std::string> output;
};

Status read_message(xml::PullParser& p,
                    std::map<std::string, Message>& messages) {
  std::string name;
  const bool named = p.decoded_attr("name", name);
  Message msg;
  auto s = p.for_each_child([&] {
    if (p.local_name() == "part") {
      ParamDesc& part = msg.parts.emplace_back();
      p.decoded_attr("name", part.name);
      std::string type;
      p.decoded_attr("type", type);
      part.type = value_type_for_xsi(type);
    }
    return p.skip_element();
  });
  if (!s.is_ok() || !named) return s;  // an unnamed message is unreachable
  if (!messages.try_emplace(name, std::move(msg)).second) {
    return protocol_error("WSDL message defined twice: " + name);
  }
  return Status::ok();
}

Status read_operation(xml::PullParser& p, Operation& op) {
  p.decoded_attr("name", op.method.name);
  op.method.one_way = true;
  bool saw_input = false;
  return p.for_each_child([&] {
    const auto local = p.local_name();
    std::optional<std::string>* ref = nullptr;
    if (!saw_input && local == "input") {
      saw_input = true;
      ref = &op.input;
    } else if (op.method.one_way && local == "output") {
      op.method.one_way = false;
      ref = &op.output;
    }
    std::string qname;
    if (ref != nullptr && p.decoded_attr("message", qname)) {
      const auto colon = qname.find(':');
      *ref = colon == std::string::npos ? qname : qname.substr(colon + 1);
    }
    return p.skip_element();
  });
}

// The service's name, and its first <port>'s first <address location>.
Status read_service(xml::PullParser& p, WsdlDocument& out,
                    std::optional<std::string>& location) {
  p.decoded_attr("name", out.service_name);
  bool saw_port = false;
  return p.for_each_child([&] {
    if (saw_port || p.local_name() != "port") return p.skip_element();
    saw_port = true;
    bool saw_address = false;
    return p.for_each_child([&] {
      std::string loc;
      if (!saw_address && p.local_name() == "address") {
        saw_address = true;
        if (p.decoded_attr("location", loc)) location = std::move(loc);
      }
      return p.skip_element();
    });
  });
}

}  // namespace

Result<WsdlDocument> parse_wsdl(std::string_view text) {
  // One pass over the direct children of <definitions>; deeper elements
  // are skipped, so a nested decoy never counts.
  xml::PullParser p(text);
  WsdlDocument out;
  std::map<std::string, Message> messages;
  std::vector<Operation> operations;
  std::size_t port_types = 0;
  bool saw_service = false;
  std::optional<std::string> location;
  auto definitions_child = [&] {
    const auto local = p.local_name();
    if (local == "message") return read_message(p, messages);
    if (local == "portType") {
      // The main portType is named <iface>PortType;
      // <iface>EventsPortType carries the events section.
      ++port_types;
      std::string name;
      p.decoded_attr("name", name);
      const bool is_event = name == out.interface.name + "EventsPortType";
      return p.for_each_child([&] {
        if (p.local_name() != "operation") return p.skip_element();
        operations.push_back({{}, is_event, {}, {}});
        return read_operation(p, operations.back());
      });
    }
    if (!saw_service && local == "service") {
      saw_service = true;
      return read_service(p, out, location);
    }
    return p.skip_element();
  };
  auto s = p.for_each_child([&] {
    if (p.local_name() != "definitions") {
      return protocol_error("not a WSDL document: " + std::string(p.name()));
    }
    p.decoded_attr("name", out.interface.name);
    return p.for_each_child(definitions_child);
  });
  if (!s.is_ok()) return s;
  if (port_types == 0) return protocol_error("WSDL without portType");

  // Each message fills at most one input or output, so the interface
  // holds at most one param per <part>: a document that shares one
  // message among many operations cannot multiply its size.
  auto claim = [&messages](const std::optional<std::string>& ref)
      -> Result<Message*> {
    auto it = ref ? messages.find(*ref) : messages.end();
    if (it == messages.end()) return static_cast<Message*>(nullptr);
    if (it->second.claimed) {
      return protocol_error("WSDL message referenced twice: " + *ref);
    }
    it->second.claimed = true;
    return &it->second;
  };
  for (auto& op : operations) {
    auto input = claim(op.input);
    if (!input.is_ok()) return input.status();
    if (input.value() != nullptr) {
      op.method.params = std::move(input.value()->parts);
    }
    auto output = claim(op.output);
    if (!output.is_ok()) return output.status();
    if (output.value() != nullptr && !output.value()->parts.empty()) {
      op.method.return_type = output.value()->parts.front().type;
    }
    (op.is_event ? out.interface.events : out.interface.methods)
        .push_back(std::move(op.method));
  }

  if (location) {
    auto uri = parse_uri(*location);
    if (!uri.is_ok()) return uri.status();
    out.endpoint = uri.value();
  }
  if (out.interface.name.empty()) {
    return protocol_error("WSDL definitions missing name");
  }
  return out;
}

}  // namespace hcm::soap
