#include "hcm_lint/lint.hpp"

#include <set>
#include <sstream>

#include "common/value_codec.hpp"
#include "core/naming.hpp"
#include "soap/value_xml.hpp"
#include "soap/wsdl.hpp"
#include "xml/xml.hpp"

namespace hcm::lint {

namespace {

// A default-constructed Value of each representable type, used to
// prove the type survives the binary codec.
Value sample_value(ValueType t) {
  switch (t) {
    case ValueType::kNull: return {};
    case ValueType::kBool: return Value(false);
    case ValueType::kInt: return Value(std::int64_t{0});
    case ValueType::kDouble: return Value(0.0);
    case ValueType::kString: return Value(std::string{});
    case ValueType::kBytes: return Value(Bytes{});
    case ValueType::kList: return Value(ValueList{});
    case ValueType::kMap: return Value(ValueMap{});
  }
  return {};
}

bool valid_value_type(ValueType t) {
  switch (t) {
    case ValueType::kNull:
    case ValueType::kBool:
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kString:
    case ValueType::kBytes:
    case ValueType::kList:
    case ValueType::kMap:
      return true;
  }
  return false;
}

void check_value_type(ValueType t, const std::string& where,
                      const std::string& provenance, Diagnostics& out) {
  if (!valid_value_type(t)) {
    out.push_back({"unrepresentable-type", provenance,
                   where + " has ValueType " +
                       std::to_string(static_cast<int>(t)) +
                       " outside the ValueType enumeration"});
    return;
  }
  // Codec representability: the type must survive the binary codec and
  // the WSDL/xsd type table (both are what proxies marshal through).
  auto decoded = decode_value(encode_value(sample_value(t)));
  if (!decoded.is_ok() || decoded.value().type() != t) {
    out.push_back({"unrepresentable-type", provenance,
                   where + ": ValueType " + to_string(t) +
                       " does not round-trip the binary codec"});
  }
  if (soap::value_type_for_xsi(soap::xsi_type_for(t)) != t) {
    out.push_back({"unrepresentable-type", provenance,
                   where + ": ValueType " + to_string(t) +
                       " does not round-trip the WSDL type table"});
  }
}

}  // namespace

Diagnostics check_interface(const InterfaceDesc& iface,
                            const std::string& provenance) {
  Diagnostics out;
  if (iface.name.empty()) {
    out.push_back({"unnamed-interface", provenance, "interface has no name"});
  }
  std::set<std::string> seen;
  for (const auto& m : iface.methods) {
    const std::string where = iface.name + "." + m.name;
    if (m.name.empty()) {
      out.push_back({"unnamed-method", provenance,
                     "interface " + iface.name + " has an unnamed method"});
    }
    if (!seen.insert(m.name).second) {
      out.push_back({"duplicate-method", provenance,
                     "method " + where +
                         " declared more than once (proxy dispatch is by "
                         "name, so overloads cannot be distinguished)"});
    }
    if (m.one_way && m.return_type != ValueType::kNull) {
      out.push_back({"one-way-return", provenance,
                     "one_way method " + where + " declares return type " +
                         to_string(m.return_type) +
                         " but one-way calls have no reply to carry it"});
    }
    for (const auto& p : m.params) {
      check_value_type(p.type, where + " param '" + p.name + "'", provenance,
                       out);
    }
    check_value_type(m.return_type, where + " return", provenance, out);
  }
  // Events contract: every declared event must be a one-way,
  // null-returning signature — the bridge delivers events with no
  // reply channel, so anything else is undeliverable by construction.
  std::set<std::string> seen_events;
  for (const auto& e : iface.events) {
    const std::string where = iface.name + "." + e.name;
    if (e.name.empty()) {
      out.push_back({"unnamed-event", provenance,
                     "interface " + iface.name + " has an unnamed event"});
    }
    if (!seen_events.insert(e.name).second) {
      out.push_back({"duplicate-event", provenance,
                     "event " + where +
                         " declared more than once (subscriptions are by "
                         "name, so duplicates cannot be distinguished)"});
    }
    if (!e.one_way) {
      out.push_back({"event-not-one-way", provenance,
                     "event " + where +
                         " is not one_way; events are fire-and-forget "
                         "notifications and cannot be request/response"});
    }
    if (e.return_type != ValueType::kNull) {
      out.push_back({"event-return", provenance,
                     "event " + where + " declares return type " +
                         to_string(e.return_type) +
                         " but event delivery has no reply to carry it"});
    }
    for (const auto& p : e.params) {
      check_value_type(p.type, where + " param '" + p.name + "'", provenance,
                       out);
    }
  }
  return out;
}

Diagnostics check_wsdl_roundtrip(const InterfaceDesc& iface,
                                 const std::string& provenance) {
  Diagnostics out;
  const std::string service_name = "lint-probe";
  auto endpoint = parse_uri("http://lint-host:8080/services/lint-probe");
  if (!endpoint.is_ok()) {
    out.push_back({"wsdl-roundtrip", provenance,
                   "internal: probe URI failed to parse"});
    return out;
  }
  std::string wsdl = soap::emit_wsdl(iface, service_name, endpoint.value());
  auto doc = soap::parse_wsdl(wsdl);
  if (!doc.is_ok()) {
    out.push_back({"wsdl-roundtrip", provenance,
                   "emitted WSDL does not parse: " + doc.status().to_string()});
    return out;
  }
  if (!(doc.value().interface == iface)) {
    out.push_back({"wsdl-roundtrip", provenance,
                   "descriptor does not survive the WSDL round-trip "
                   "(emit_wsdl + parse_wsdl produced a different "
                   "interface)"});
  }
  if (doc.value().service_name != service_name) {
    out.push_back({"wsdl-roundtrip", provenance,
                   "service name does not survive the WSDL round-trip"});
  }
  if (doc.value().endpoint.to_string() != endpoint.value().to_string()) {
    out.push_back({"wsdl-roundtrip", provenance,
                   "endpoint does not survive the WSDL round-trip"});
  }
  return out;
}

Diagnostics check_vsr_entries(const std::vector<soap::RegistryEntry>& entries,
                              const VsrCheckContext& ctx) {
  Diagnostics out;
  for (const auto& entry : entries) {
    const std::string subject = "vsr entry '" + entry.name + "' (origin " +
                                entry.origin + ")";
    auto doc = soap::parse_wsdl(entry.wsdl);
    if (!doc.is_ok()) {
      out.push_back({"vsr-bad-wsdl", subject,
                     "stored WSDL does not parse: " +
                         doc.status().to_string()});
      continue;
    }
    core::VirtualServiceGateway* vsg =
        ctx.vsg_for_origin ? ctx.vsg_for_origin(entry.origin) : nullptr;
    if (vsg == nullptr) {
      out.push_back({"vsr-unknown-origin", subject,
                     "origin island has no live gateway"});
      continue;
    }
    if (!vsg->is_exposed(entry.name)) {
      out.push_back({"vsr-dangling-entry", subject,
                     "service is in the VSR but no longer exposed by its "
                     "origin gateway"});
      continue;
    }
    const std::string advertised = doc.value().endpoint.to_string();
    const std::string actual = vsg->exposure_uri(entry.name).to_string();
    if (advertised != actual) {
      out.push_back({"vsr-endpoint-mismatch", subject,
                     "advertised endpoint " + advertised +
                         " != live exposure URI " + actual});
    }
    if (ctx.net != nullptr) {
      auto resolved = core::resolve_endpoint(*ctx.net, doc.value().endpoint);
      if (!resolved.is_ok()) {
        out.push_back({"vsr-unresolvable-endpoint", subject,
                       "advertised endpoint " + advertised +
                           " does not resolve: " +
                           resolved.status().to_string()});
      }
    }
  }
  return out;
}

namespace {

// Round-trips one value through both encodings that carry registry
// traffic: the binary Value codec (VSG binary channel) and the SOAP
// value codec that envelopes run, rendered and re-read off the wire
// bytes.
void check_wire_value(const Value& v, const std::string& where,
                      const std::string& subject, Diagnostics& out) {
  auto decoded = decode_value(encode_value(v));
  if (!decoded.is_ok() || !(decoded.value() == v)) {
    out.push_back({"registry-wire-codec", subject,
                   where + " does not round-trip the binary value codec"});
  }
  std::string wire;
  xml::Writer w(wire);
  soap::value_write("v", v, w);
  xml::PullParser p(wire);
  auto start = p.next();
  Result<Value> back =
      !start.is_ok() ? Result<Value>(start.status()) : soap::value_from_pull(p);
  if (!back.is_ok()) {
    out.push_back({"registry-wire-codec", subject,
                   where + " does not decode from the SOAP value encoding: " +
                       back.status().to_string()});
  } else if (!(back.value() == v)) {
    out.push_back({"registry-wire-codec", subject,
                   where + " does not round-trip the SOAP value encoding"});
  }
}

}  // namespace

Diagnostics check_registry_wire(const std::vector<std::string>& wire_ops,
                                const std::vector<WireFixture>& fixtures) {
  Diagnostics out;
  std::set<std::string> covered;
  for (const auto& f : fixtures) covered.insert(f.op);
  for (const auto& op : wire_ops) {
    if (covered.count(op) == 0) {
      out.push_back({"registry-wire-uncovered", "registry op '" + op + "'",
                     "mounted wire op has no round-trip fixture — add one to "
                     "registry_wire_fixtures()"});
    }
  }
  std::set<std::string> mounted(wire_ops.begin(), wire_ops.end());
  for (const auto& f : fixtures) {
    const std::string subject = "registry op '" + f.op + "'";
    if (!mounted.empty() && mounted.count(f.op) == 0) {
      out.push_back({"registry-wire-unknown-op", subject,
                     "fixture names an op the registry does not mount"});
    }
    for (const auto& [name, v] : f.request) {
      check_wire_value(v, "request param '" + name + "'", subject, out);
    }
    check_wire_value(f.response, "response", subject, out);
  }
  return out;
}

std::vector<WireFixture> registry_wire_fixtures() {
  const Value wsdl(std::string("<definitions name=\"Switchable\"/>"));
  const Value digest(std::string("00cafe1234567890"));
  const Value entry(ValueMap{{"name", Value(std::string("lamp-1"))},
                             {"category", Value(std::string("Switchable"))},
                             {"origin", Value(std::string("x10-island"))},
                             {"wsdl", wsdl},
                             {"digest", digest}});
  const Value upsert(ValueMap{{"kind", Value(std::string("upsert"))},
                              {"name", Value(std::string("lamp-1"))},
                              {"category", Value(std::string("Switchable"))},
                              {"origin", Value(std::string("x10-island"))},
                              {"digest", digest},
                              {"wsdl", wsdl}});
  return {
      {"publish",
       {{"name", Value(std::string("lamp-1"))},
        {"category", Value(std::string("Switchable"))},
        {"origin", Value(std::string("x10-island"))},
        {"wsdl", wsdl},
        {"ttl", Value(std::int64_t{120000000})}},
       Value(true)},
      {"unpublish", {{"name", Value(std::string("lamp-1"))}}, Value(true)},
      {"renewOrigin",
       {{"origin", Value(std::string("x10-island"))},
        {"fingerprint", digest},
        {"ttl", Value(std::int64_t{120000000})}},
       Value(std::int64_t{3})},
      {"changesSince",
       {{"epoch", Value(std::int64_t{1})},
        {"cursor", Value(std::int64_t{42})},
        {"snapshot", Value(false)},
        {"known", Value(ValueList{digest})}},
       Value(ValueMap{{"epoch", Value(std::int64_t{1})},
                      {"cursor", Value(std::int64_t{43})},
                      {"full", Value(false)},
                      {"resync", Value(false)},
                      {"changes", Value(ValueList{upsert})}})},
      {"list", {}, Value(ValueList{entry})},
  };
}

Diagnostics check_store_records(
    const std::vector<store::RecordType>& types,
    const std::vector<StoreRecordFixture>& fixtures) {
  Diagnostics out;
  std::set<store::RecordType> covered;
  for (const auto& f : fixtures) covered.insert(f.record.type);
  for (store::RecordType t : types) {
    if (covered.count(t) == 0) {
      out.push_back(
          {"store-record-uncovered",
           std::string("store record '") + store::record_type_name(t) + "'",
           "durable record type has no codec round-trip fixture — add one "
           "to store_record_fixtures()"});
    }
  }
  for (const auto& f : fixtures) {
    const std::string subject = std::string("store record '") +
                                store::record_type_name(f.record.type) + "'";
    const std::string encoded = store::encode_record(f.record);
    auto decoded = store::decode_record(encoded);
    if (!decoded.is_ok()) {
      out.push_back({"store-record-codec", subject,
                     "fixture does not decode: " +
                         decoded.status().to_string()});
      continue;
    }
    if (!(decoded.value() == f.record)) {
      out.push_back({"store-record-codec", subject,
                     "decode(encode(fixture)) differs from the fixture — "
                     "a field is dropped or misread by the codec"});
      continue;
    }
    if (store::encode_record(decoded.value()) != encoded) {
      out.push_back({"store-record-codec", subject,
                     "re-encoding the decoded record is not byte-identical "
                     "— the encoding is not canonical, which breaks the "
                     "log's hash chain reproducibility"});
    }
  }
  return out;
}

std::vector<StoreRecordFixture> store_record_fixtures() {
  const std::string digest = "00cafe1234567890";
  const std::string wsdl = "<definitions name=\"Switchable\"/>";
  store::Record epoch;
  epoch.type = store::RecordType::kEpoch;
  epoch.epoch = store::EpochRecord{7};
  store::Record body;
  body.type = store::RecordType::kBody;
  body.body = store::BodyRecord{digest, wsdl};
  store::Record upsert;
  upsert.type = store::RecordType::kUpsert;
  upsert.upsert = store::UpsertRecord{42,       "lamp-1", "Switchable",
                                      "x10-island", digest,   120000000};
  store::Record remove;
  remove.type = store::RecordType::kRemove;
  remove.remove = store::RemoveRecord{43, "lamp-1", digest};
  store::Record touch;
  touch.type = store::RecordType::kTouch;
  touch.touch = store::TouchRecord{"lamp-1", 240000000};
  store::Record checkpoint;
  checkpoint.type = store::RecordType::kCheckpoint;
  checkpoint.checkpoint = store::CheckpointRecord{
      7,
      43,
      12,
      {store::UpsertRecord{42, "lamp-1", "Switchable", "x10-island", digest,
                           120000000}},
      {store::JournalEntry{42, false, "lamp-1", digest},
       store::JournalEntry{43, true, "vcr-1", digest}}};
  return {{epoch}, {body}, {upsert}, {remove}, {touch}, {checkpoint}};
}

Diagnostics check_vsg_op_metrics(const core::VirtualServiceGateway& vsg,
                                 const obs::Registry& registry) {
  Diagnostics out;
  for (const auto& [service, method] : vsg.exposed_ops()) {
    const std::string op = vsg.obs_scope() + ".op." + service + "." + method;
    const std::string subject =
        "vsg op '" + service + "." + method + "' (" + vsg.obs_scope() + ")";
    const obs::Histogram* latency = registry.find_histogram(op + "_us");
    if (latency == nullptr) {
      out.push_back({"obs-op-missing", subject,
                     "mounted wire op has no latency histogram '" + op +
                         "_us' — expose() must register per-op metrics"});
      continue;
    }
    const obs::Counter* calls = registry.find_counter(op + ".calls");
    if (calls != nullptr && calls->value() > 0 && latency->count() == 0) {
      out.push_back({"obs-op-unsampled", subject,
                     std::to_string(calls->value()) +
                         " dispatch(es) recorded but the latency histogram "
                         "is empty — a completion path skips the observe "
                         "wrapper"});
    }
  }
  return out;
}

std::string format_diagnostics(const Diagnostics& diags) {
  std::ostringstream os;
  for (const auto& d : diags) {
    os << d.check << ": " << d.subject << ": " << d.message << "\n";
  }
  return os.str();
}

}  // namespace hcm::lint
