#include "soap/envelope.hpp"

#include <charconv>
#include <cstdlib>

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
// written; the writer streams straight into the string, no Element tree
// on the encode path.
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
                     const std::string& method, const NamedValues& params,
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
  std::string qname = "m:";
  qname += method;
  w.start("SOAP-ENV:Body").start(qname).attr("xmlns:m", ns);
  for (const auto& [name, value] : params) {
    value_write(name, value, w);
  }
  w.end().end().end();
}

void build_response_into(std::string& out, const std::string& ns,
                         const std::string& method, const Value& result) {
  xml::Writer w = open_envelope(out);
  std::string qname = "m:";
  qname += method;
  qname += "Response";
  w.start("SOAP-ENV:Body").start(qname).attr("xmlns:m", ns);
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

using Event = xml::PullParser::Event;

// Decoded value of the attribute named `name` on the current start tag,
// written into `out`. False when absent; decode errors surface through
// `err`.
bool decoded_attr(xml::PullParser& p, std::string_view name, std::string& out,
                  Status& err) {
  const auto* a = p.find_attr(name);
  if (a == nullptr) return false;
  std::string scratch;
  auto v = xml::PullParser::decode(a->raw_value, scratch);
  if (!v.is_ok()) {
    err = v.status();
    return false;
  }
  out.assign(v.value());
  return true;
}

// Concatenated direct text of the current element (the tree parser's
// Element::text() semantics: whitespace-only runs dropped, CDATA kept
// verbatim, nested elements skipped). Consumes through the matching
// end tag.
Status collect_text(xml::PullParser& p, std::string& out) {
  out.clear();
  while (true) {
    auto ev = p.next();
    if (!ev.is_ok()) return ev.status();
    if (ev.value() == Event::kEnd) return Status::ok();
    if (ev.value() == Event::kStart) {
      if (auto s = p.skip_element(); !s.is_ok()) return s;
      continue;
    }
    if (ev.value() == Event::kEof) {
      return protocol_error("unexpected end of document");
    }
    if (p.text_is_cdata()) {
      out.append(p.raw_text());
    } else if (!p.text_is_ws()) {
      std::string scratch;
      auto t = p.text(scratch);
      if (!t.is_ok()) return t.status();
      out.append(t.value());
    }
  }
}

// <SOAP-ENV:Header>: the first <Trace> child carries the propagated
// trace context. Consumes through the header's end tag.
Status parse_header(xml::PullParser& p, Envelope& env) {
  bool saw_trace = false;
  while (true) {
    auto ev = p.next();
    if (!ev.is_ok()) return ev.status();
    if (ev.value() == Event::kEnd) return Status::ok();
    if (ev.value() != Event::kStart) {
      if (ev.value() == Event::kEof) {
        return protocol_error("unexpected end of document");
      }
      continue;
    }
    if (!saw_trace && p.local_name() == "Trace") {
      saw_trace = true;
      Status err = Status::ok();
      std::string v;
      if (decoded_attr(p, "traceId", v, err)) {
        env.trace.trace_id = std::strtoull(v.c_str(), nullptr, 10);
      }
      if (!err.is_ok()) return err;
      if (decoded_attr(p, "spanId", v, err)) {
        env.trace.span_id = std::strtoull(v.c_str(), nullptr, 10);
      }
      if (!err.is_ok()) return err;
    }
    if (auto s = p.skip_element(); !s.is_ok()) return s;
  }
}

// The first Body child is the operation element; the parser is
// positioned just past its start tag. Consumes through the operation's
// end tag.
Status parse_operation(xml::PullParser& p, Envelope& env) {
  if (p.local_name() == "Fault") {
    env.is_fault = true;
    env.params.clear();
    bool saw_code = false;
    bool saw_string = false;
    bool saw_detail = false;
    std::string text;
    while (true) {
      auto ev = p.next();
      if (!ev.is_ok()) return ev.status();
      if (ev.value() == Event::kEnd) return Status::ok();
      if (ev.value() != Event::kStart) {
        if (ev.value() == Event::kEof) {
          return protocol_error("unexpected end of document");
        }
        continue;
      }
      auto local = p.local_name();
      if (!saw_code && local == "faultcode") {
        saw_code = true;
        if (auto s = collect_text(p, env.fault.code); !s.is_ok()) return s;
      } else if (!saw_string && local == "faultstring") {
        saw_string = true;
        if (auto s = collect_text(p, env.fault.string); !s.is_ok()) return s;
      } else if (!saw_detail && local == "detail") {
        saw_detail = true;
        if (auto s = collect_text(p, env.fault.detail); !s.is_ok()) return s;
      } else {
        if (auto s = p.skip_element(); !s.is_ok()) return s;
      }
    }
  }

  env.method.assign(p.local_name());
  // Namespace: the xmlns:<prefix> attribute matching the element prefix,
  // or default xmlns.
  Status err = Status::ok();
  auto colon = p.name().find(':');
  if (colon != std::string_view::npos) {
    std::string xmlns = "xmlns:";
    xmlns += p.name().substr(0, colon);
    decoded_attr(p, xmlns, env.method_ns, err);
  } else {
    decoded_attr(p, "xmlns", env.method_ns, err);
  }
  if (!err.is_ok()) return err;

  // Param entries are reused by index (like MessageParser's header
  // slots): names assign into retained string capacity, the vector only
  // grows when a call carries more params than any before it.
  std::size_t n_params = 0;
  while (true) {
    auto ev = p.next();
    if (!ev.is_ok()) return ev.status();
    if (ev.value() == Event::kEnd) {
      env.params.resize(n_params);
      return Status::ok();
    }
    if (ev.value() != Event::kStart) {
      if (ev.value() == Event::kEof) {
        return protocol_error("unexpected end of document");
      }
      continue;
    }
    auto name = p.local_name();  // view into the input; stays valid
    auto value = value_from_pull(p);
    if (!value.is_ok()) return value.status();
    if (n_params < env.params.size()) {
      env.params[n_params].first.assign(name);
      env.params[n_params].second = std::move(value).take();
    } else {
      env.params.emplace_back(std::string(name), std::move(value).take());
    }
    ++n_params;
  }
}

}  // namespace

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
  auto ev = p.next();
  if (!ev.is_ok()) return ev.status();
  if (p.local_name() != "Envelope") {
    return protocol_error("not a SOAP envelope: " + std::string(p.name()));
  }

  bool saw_header = false;
  bool saw_body = false;
  bool saw_op = false;
  while (true) {
    ev = p.next();
    if (!ev.is_ok()) return ev.status();
    if (ev.value() == Event::kEnd || ev.value() == Event::kEof) break;
    if (ev.value() != Event::kStart) continue;
    auto local = p.local_name();
    if (!saw_header && local == "Header") {
      saw_header = true;
      if (auto s = parse_header(p, env); !s.is_ok()) return s;
    } else if (!saw_body && local == "Body") {
      saw_body = true;
      // Children of Body: the first element is the operation, the rest
      // are ignored (matching the tree decoder, which took front()).
      while (true) {
        ev = p.next();
        if (!ev.is_ok()) return ev.status();
        if (ev.value() == Event::kEnd) break;
        if (ev.value() != Event::kStart) {
          if (ev.value() == Event::kEof) {
            return protocol_error("unexpected end of document");
          }
          continue;
        }
        if (saw_op) {
          if (auto s = p.skip_element(); !s.is_ok()) return s;
          continue;
        }
        saw_op = true;
        if (auto s = parse_operation(p, env); !s.is_ok()) return s;
      }
    } else {
      if (auto s = p.skip_element(); !s.is_ok()) return s;
    }
  }
  // Drain to EOF so trailing-garbage errors still surface, as they did
  // when the whole document was tree-parsed up front.
  while (ev.is_ok() && ev.value() != Event::kEof) ev = p.next();
  if (!ev.is_ok()) return ev.status();

  if (!saw_body) return protocol_error("SOAP envelope without Body");
  if (!saw_op) return protocol_error("SOAP Body is empty");
  return Status::ok();
}

}  // namespace hcm::soap
