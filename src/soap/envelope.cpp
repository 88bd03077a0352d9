#include "soap/envelope.hpp"

#include <charconv>
#include <cstdlib>

#include "common/check.hpp"
#include "soap/value_xml.hpp"
#include "xml/xml.hpp"

namespace hcm::soap {

namespace {

constexpr const char* kEnvNs = "http://schemas.xmlsoap.org/soap/envelope/";
constexpr const char* kEncNs = "http://schemas.xmlsoap.org/soap/encoding/";
constexpr const char* kXsdNs = "http://www.w3.org/2001/XMLSchema";
constexpr const char* kXsiNs = "http://www.w3.org/2001/XMLSchema-instance";

// Clears `out` (keeping its capacity) and opens a writer on it with the
// prolog + <SOAP-ENV:Envelope> and the standard namespace set already
// written; the writer streams straight into the string.
xml::Writer open_envelope(std::string& out) {
  out.clear();
  if (out.capacity() < 512) out.reserve(512);
  xml::Writer w(out);
  w.prolog()
      .start("SOAP-ENV:Envelope")
      .attr("xmlns:SOAP-ENV", kEnvNs)
      .attr("xmlns:SOAP-ENC", kEncNs)
      .attr("xmlns:xsd", kXsdNs)
      .attr("xmlns:xsi", kXsiNs)
      .attr("SOAP-ENV:encodingStyle", kEncNs);
  return w;
}

std::string_view u64_chars(std::uint64_t v, char (&buf)[24]) {
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return {buf, static_cast<std::size_t>(end - buf)};
}

}  // namespace

CallParams::CallParams(const std::vector<ParamDesc>& param_names,
                       const ValueList& param_values)
    : names(param_names), values(param_values) {
  HCM_CHECK_MSG(names.size() == values.size(), "one name per call value");
}

Status Fault::to_status() const {
  // Client faults map to invalid argument; server faults carry the
  // status code we tunneled in the detail field when possible.
  if (detail.rfind("status:", 0) == 0) {
    auto rest = detail.substr(7);
    auto colon = rest.find(':');
    std::string code_name = rest.substr(0, colon);
    std::string msg = colon == std::string::npos ? string : rest.substr(colon + 1);
    for (int i = 0; i <= static_cast<int>(StatusCode::kResourceExhausted); ++i) {
      auto status_code = static_cast<StatusCode>(i);
      if (code_name == hcm::to_string(status_code)) {
        return {status_code, msg};
      }
    }
  }
  if (code.find("Client") != std::string::npos) {
    return invalid_argument(string);
  }
  return internal_error(string);
}

Fault Fault::from_status(const Status& status) {
  Fault f;
  f.code = status.code() == StatusCode::kInvalidArgument ? "SOAP-ENV:Client"
                                                         : "SOAP-ENV:Server";
  f.string = status.message();
  f.detail = std::string("status:") + hcm::to_string(status.code()) + ":" +
             status.message();
  return f;
}

std::string build_call(const std::string& ns, const std::string& method,
                       const NamedValues& params) {
  return build_call(ns, method, params, obs::TraceContext{});
}

std::string build_call(const std::string& ns, const std::string& method,
                       const NamedValues& params,
                       const obs::TraceContext& trace) {
  std::string out;
  build_call_into(out, ns, method, params, trace);
  return out;
}

std::string build_response(const std::string& ns, const std::string& method,
                           const Value& result) {
  std::string out;
  build_response_into(out, ns, method, result);
  return out;
}

std::string build_fault(const Fault& fault) {
  std::string out;
  build_fault_into(out, fault);
  return out;
}

void build_call_into(std::string& out, const std::string& ns,
                     const std::string& method, const CallParams& params,
                     const obs::TraceContext& trace) {
  xml::Writer w = open_envelope(out);
  if (trace.valid()) {
    char tid[24];
    char sid[24];
    w.start("SOAP-ENV:Header")
        .start("hcm:Trace")
        .attr("xmlns:hcm", "urn:hcm:trace")
        .attr("traceId", u64_chars(trace.trace_id, tid))
        .attr("spanId", u64_chars(trace.span_id, sid))
        .end()
        .end();
  }
  w.start("SOAP-ENV:Body").start("m:", method).attr("xmlns:m", ns);
  for (const auto& [name, value] : params.named) {
    value_write(name, value, w);
  }
  for (std::size_t i = 0; i < params.values.size(); ++i) {
    value_write(params.names[i].name, params.values[i], w);
  }
  w.end().end().end();
}

void build_response_into(std::string& out, const std::string& ns,
                         const std::string& method, const Value& result) {
  xml::Writer w = open_envelope(out);
  w.start("SOAP-ENV:Body")
      .start("m:", method, "Response")
      .attr("xmlns:m", ns);
  value_write("return", result, w);
  w.end().end().end();
}

void build_fault_into(std::string& out, const Fault& fault) {
  xml::Writer w = open_envelope(out);
  w.start("SOAP-ENV:Body")
      .start("SOAP-ENV:Fault")
      .leaf("faultcode", fault.code)
      .leaf("faultstring", fault.string);
  if (!fault.detail.empty()) w.leaf("detail", fault.detail);
  w.end().end().end();
}

namespace {

// <SOAP-ENV:Header>: the first <Trace> child carries the propagated
// trace context. Consumes through the header's end tag.
Status parse_header(xml::PullParser& p, Envelope& env) {
  bool saw_trace = false;
  return p.for_each_child([&] {
    if (!saw_trace && p.local_name() == "Trace") {
      saw_trace = true;
      std::string v;
      if (p.decoded_attr("traceId", v)) {
        env.trace.trace_id = std::strtoull(v.c_str(), nullptr, 10);
      }
      if (p.decoded_attr("spanId", v)) {
        env.trace.span_id = std::strtoull(v.c_str(), nullptr, 10);
      }
    }
    return p.skip_element();
  });
}

// <SOAP-ENV:Fault>: the first faultcode, faultstring and detail.
Status parse_fault(xml::PullParser& p, Envelope& env) {
  env.is_fault = true;
  env.params.clear();
  bool saw_code = false;
  bool saw_string = false;
  bool saw_detail = false;
  return p.for_each_child([&] {
    auto local = p.local_name();
    if (!saw_code && local == "faultcode") {
      saw_code = true;
      return p.collect_text(env.fault.code);
    }
    if (!saw_string && local == "faultstring") {
      saw_string = true;
      return p.collect_text(env.fault.string);
    }
    if (!saw_detail && local == "detail") {
      saw_detail = true;
      return p.collect_text(env.fault.detail);
    }
    return p.skip_element();
  });
}

// The first Body child is the operation element; the parser is
// positioned just past its start tag. Consumes through the operation's
// end tag.
Status parse_operation(xml::PullParser& p, Envelope& env) {
  if (p.local_name() == "Fault") return parse_fault(p, env);

  env.method.assign(p.local_name());
  // Namespace: the xmlns:<prefix> attribute matching the element prefix,
  // or default xmlns.
  std::string xmlns = "xmlns";
  if (auto colon = p.name().find(':'); colon != std::string_view::npos) {
    xmlns += ':';
    xmlns += p.name().substr(0, colon);
  }
  p.decoded_attr(xmlns, env.method_ns);

  // Param entries are reused by index (like MessageParser's header
  // slots): names assign into retained string capacity, values decode
  // into the trees the previous parse left, and the vector only grows
  // when a call carries more params than any before it.
  std::size_t n_params = 0;
  auto s = p.for_each_child([&]() -> Status {
    if (n_params == env.params.size()) env.params.emplace_back();
    auto& [name, value] = env.params[n_params++];
    name.assign(p.local_name());
    return value_from_pull(p, value, &env.spare);
  });
  env.params.resize(n_params);
  return s;
}

}  // namespace

void trim_for_reuse(Envelope& env) {
  for (auto& [name, value] : env.params) hcm::trim_for_reuse(value);
  for (Value& value : env.spare) hcm::trim_for_reuse(value);
}

Result<Envelope> parse_envelope(std::string_view body_text) {
  Envelope env;
  if (auto s = parse_envelope_into(body_text, env); !s.is_ok()) return s;
  return env;
}

Status parse_envelope_into(std::string_view body_text, Envelope& env) {
  env.is_fault = false;
  env.fault.code.clear();
  env.fault.string.clear();
  env.fault.detail.clear();
  env.method.clear();
  env.method_ns.clear();
  env.trace = obs::TraceContext{};
  // env.params is reconciled entry-by-entry in parse_operation.

  xml::PullParser p(body_text);
  bool saw_header = false;
  bool saw_body = false;
  bool saw_op = false;
  // The first Body child is the operation; later ones are ignored.
  auto body_child = [&] {
    if (saw_op) return p.skip_element();
    saw_op = true;
    return parse_operation(p, env);
  };
  auto envelope_child = [&] {
    auto local = p.local_name();
    if (!saw_header && local == "Header") {
      saw_header = true;
      return parse_header(p, env);
    }
    if (!saw_body && local == "Body") {
      saw_body = true;
      return p.for_each_child(body_child);
    }
    return p.skip_element();
  };
  auto s = p.for_each_child([&] {
    if (p.local_name() != "Envelope") {
      return protocol_error("not a SOAP envelope: " + std::string(p.name()));
    }
    return p.for_each_child(envelope_child);
  });
  if (!s.is_ok()) return s;
  if (!saw_body) return protocol_error("SOAP envelope without Body");
  if (!saw_op) return protocol_error("SOAP Body is empty");
  return Status::ok();
}

}  // namespace hcm::soap
