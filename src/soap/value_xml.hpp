// Value <-> SOAP section-5 encoded XML, with xsi:type annotations —
// the data half of the VSG wire protocol.
#pragma once

#include <string>

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
// xsd/SOAP-ENC types) into `out`, reusing the storage `out` already
// holds: a string's text accumulates in its own string, and a list's
// or map's children decode into its existing elements by index, the
// rest truncated. A recycled tree of the same shape therefore decodes
// without allocating. With `spare`, a list's truncated elements move
// there and a list longer than its recycled one takes them back first,
// so storage survives a shorter message between two longer ones. On
// error `out` holds some valid value.
// Pre: the parser just produced kStart for the encoded element, which
// sits `depth` levels below the top-level value. Post: the matching
// kEnd has been consumed. Values nested past kMaxValueDepth are
// rejected.
[[nodiscard]] Status value_from_pull(xml::PullParser& p, Value& out,
                                     ValueList* spare = nullptr,
                                     int depth = 0);
// The same into a fresh Value.
[[nodiscard]] Result<Value> value_from_pull(xml::PullParser& p, int depth = 0);

// The xsi:type string used for a ValueType ("xsd:long", "xsd:string", ...).
[[nodiscard]] const char* xsi_type_for(ValueType t);
// Maps an xsi:type string back to a ValueType (kNull when unknown).
[[nodiscard]] ValueType value_type_for_xsi(std::string_view xsi);

}  // namespace hcm::soap
