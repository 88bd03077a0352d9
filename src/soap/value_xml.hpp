// Value <-> SOAP section-5 encoded XML, with xsi:type annotations —
// the data half of the VSG wire protocol.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"
#include "xml/xml.hpp"

namespace hcm::soap {

// The one Value <-> XML codec: encoding rendered straight into the
// writer's buffer, decoding straight off pull-parser events.
//
// Writes <name xsi:type=...>...</name> encoding v.
void value_write(std::string_view name, const Value& v, xml::Writer& w);
// Decodes an element written by value_write (or by any SOAP peer using
// xsd/SOAP-ENC types).
// Pre: the parser just produced kStart for the encoded element, which
// sits `depth` levels below the top-level value. Post: the matching
// kEnd has been consumed. Values nested past kMaxValueDepth are
// rejected.
[[nodiscard]] Result<Value> value_from_pull(xml::PullParser& p, int depth = 0);

// The element stack lists and maps decode through: every open level
// pushes its (key, value) children here and, at its end tag, moves them
// into a container reserved at exact size and truncates back to where it
// started (on errors too). Held by a caller that outlives the call (a
// recycled Envelope), it keeps its capacity, so a warm decode allocates
// one block per list or map and none for growing child vectors.
using DecodeStack = std::vector<std::pair<std::string, Value>>;
[[nodiscard]] Result<Value> value_from_pull(xml::PullParser& p,
                                            DecodeStack& stack, int depth = 0);

// The xsi:type string used for a ValueType ("xsd:long", "xsd:string", ...).
[[nodiscard]] const char* xsi_type_for(ValueType t);
// Maps an xsi:type string back to a ValueType (kNull when unknown).
[[nodiscard]] ValueType value_type_for_xsi(std::string_view xsi);

}  // namespace hcm::soap
