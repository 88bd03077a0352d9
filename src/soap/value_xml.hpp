// Value <-> SOAP section-5 encoded XML, with xsi:type annotations —
// the data half of the VSG wire protocol.
#pragma once

#include "common/status.hpp"
#include "common/value.hpp"
#include "xml/xml.hpp"

namespace hcm::soap {

// Appends a child element <name xsi:type=...>...</name> encoding v.
void value_to_xml(const std::string& name, const Value& v, xml::Element& parent);

// Decodes an encoded element produced by value_to_xml (or by any SOAP
// peer using xsd/SOAP-ENC types).
[[nodiscard]] Result<Value> value_from_xml(const xml::Element& elem);

// Streaming forms for the wire hot path: byte-identical encoding
// rendered straight into the writer's buffer, and decoding straight off
// pull-parser events — no intermediate Element tree either way.
void value_write(std::string_view name, const Value& v, xml::Writer& w);
// Pre: the parser just produced kStart for the encoded element, which
// sits `depth` levels below the top-level value. Post: the matching
// kEnd has been consumed. Values nested past kMaxValueDepth are
// rejected.
[[nodiscard]] Result<Value> value_from_pull(xml::PullParser& p, int depth = 0);

// The xsi:type string used for a ValueType ("xsd:long", "xsd:string", ...).
[[nodiscard]] const char* xsi_type_for(ValueType t);
// Maps an xsi:type string back to a ValueType (kNull when unknown).
[[nodiscard]] ValueType value_type_for_xsi(std::string_view xsi);

}  // namespace hcm::soap
