// SOAP 1.1 envelope construction and parsing (RPC style, section-5
// encoding) — the control half of the VSG wire protocol.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"
#include "obs/trace.hpp"
#include "soap/value_xml.hpp"

namespace hcm::soap {

struct Fault {
  std::string code;    // e.g. "SOAP-ENV:Server"
  std::string string;  // human-readable
  std::string detail;

  [[nodiscard]] Status to_status() const;
  static Fault from_status(const Status& status);
};

using NamedValues = std::vector<std::pair<std::string, Value>>;
// Borrowed named values, for renderers (a NamedValues converts).
using NamedValuesView = std::span<const NamedValues::value_type>;

// A parsed RPC envelope: either a call/response body or a fault.
struct Envelope {
  bool is_fault = false;
  Fault fault;
  std::string method;      // body element local name
  std::string method_ns;   // body element namespace URI (xmlns attr)
  NamedValues params;      // in-order child parameters
  // From the <hcm:Trace> header, when present (zero ids otherwise).
  obs::TraceContext trace;
  // Decode scratch for the params' lists and maps, empty between
  // parses; recycled with the envelope so its capacity is kept.
  DecodeStack decode_stack;
};

[[nodiscard]] std::string build_call(const std::string& ns,
                                     const std::string& method,
                                     const NamedValues& params);
// As above, plus an <hcm:Trace traceId spanId> header when `trace` is
// valid — the cross-island propagation half of obs tracing. With an
// invalid (zeroed) context the output is byte-identical to the
// header-less form.
[[nodiscard]] std::string build_call(const std::string& ns,
                                     const std::string& method,
                                     const NamedValues& params,
                                     const obs::TraceContext& trace);
[[nodiscard]] std::string build_response(const std::string& ns,
                                         const std::string& method,
                                         const Value& result);
[[nodiscard]] std::string build_fault(const Fault& fault);

// Recycled-sink forms: byte-identical envelopes rendered into a
// caller-owned string (cleared first, capacity kept), so steady-state
// RPC loops rebuild bodies without reallocating.
void build_call_into(std::string& out, const std::string& ns,
                     const std::string& method, NamedValuesView params,
                     const obs::TraceContext& trace);
void build_response_into(std::string& out, const std::string& ns,
                         const std::string& method, const Value& result);
void build_fault_into(std::string& out, const Fault& fault);

[[nodiscard]] Result<Envelope> parse_envelope(std::string_view body);

// Parse into a caller-owned (typically recycled) Envelope: field and
// param-entry capacities from the previous parse are reused, so a
// steady-state RPC loop parses without per-call allocation. On error
// the envelope's contents are unspecified.
[[nodiscard]] Status parse_envelope_into(std::string_view body, Envelope& env);

}  // namespace hcm::soap
