// hcm_lint: static consistency checker for the machine-readable
// artifacts that replace per-service glue code. The paper's zero-glue
// property (§3.2, proxy auto-generation) rests on InterfaceDesc, WSDL
// and VSR entries staying mutually consistent; these checks make that
// verifiable. Built as a normal CMake target and run via ctest; any
// diagnostic fails the build. docs/CORRECTNESS.md documents the rules.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/interface_desc.hpp"
#include "core/vsg.hpp"
#include "obs/metrics.hpp"
#include "net/network.hpp"
#include "soap/uddi.hpp"
#include "store/codec.hpp"

namespace hcm::lint {

struct Diagnostic {
  std::string check;    // invariant id, e.g. "duplicate-method"
  std::string subject;  // provenance: service/interface/file
  std::string message;  // human-readable violation
};

using Diagnostics = std::vector<Diagnostic>;

// Structural invariants on one interface descriptor:
//   - interface and method names are non-empty,
//   - no duplicate method names (proxy dispatch is by name),
//   - one_way methods return kNull (no reply exists to carry a value),
//   - every param/return ValueType is a valid, codec-representable
//     enumerator (survives the binary codec and the WSDL type table).
[[nodiscard]] Diagnostics check_interface(const InterfaceDesc& iface,
                                          const std::string& provenance);

// Round-trip invariant: emit_wsdl followed by parse_wsdl must
// reproduce the descriptor, the service name and the endpoint exactly.
// Drift here means the VSR advertises something other than what the
// island exposes.
[[nodiscard]] Diagnostics check_wsdl_roundtrip(const InterfaceDesc& iface,
                                               const std::string& provenance);

// Liveness of VSR entries against the gateways that published them.
struct VsrCheckContext {
  // Resolves an entry's origin island to its live VSG (nullptr if the
  // island is unknown).
  std::function<core::VirtualServiceGateway*(const std::string& origin)>
      vsg_for_origin;
  // Optional: when set, entry endpoints must also resolve to a network
  // endpoint (catches URIs naming nodes that left the simulation).
  net::Network* net = nullptr;
};

// For every registry entry: the WSDL parses, the origin island exists,
// the service is still exposed there, and the advertised endpoint is
// the exposure's actual URI.
[[nodiscard]] Diagnostics check_vsr_entries(
    const std::vector<soap::RegistryEntry>& entries,
    const VsrCheckContext& ctx);

// --- registry wire contract --------------------------------------------
// One request/response exemplar for a registry wire op. The fixture's
// request params and response value must survive both value codecs
// (binary and XML) value-for-value — they are what actually crosses the
// backbone for that op.
struct WireFixture {
  std::string op;  // mounted method name ("publish", "changesSince", ...)
  soap::NamedValues request;
  Value response;
};

// Registry wire contract: every mounted wire op has at least one
// fixture ("registry-wire-uncovered" otherwise — adding an op without
// extending the fixture set fails the lint run), every fixture names a
// mounted op ("registry-wire-unknown-op"), and each fixture value
// round-trips the binary Value codec and the SOAP value codec the
// envelope path runs ("registry-wire-codec").
[[nodiscard]] Diagnostics check_registry_wire(
    const std::vector<std::string>& wire_ops,
    const std::vector<WireFixture>& fixtures);

// The canonical fixture set covering soap::UddiRegistry's ops, one
// representative exemplar per op, shaped like the live handlers'
// requests/responses.
[[nodiscard]] std::vector<WireFixture> registry_wire_fixtures();

// --- store record contract ---------------------------------------------
// One exemplar per durable-store record type. Mirrors the registry-wire
// rule: the on-disk log format is a compatibility surface exactly like
// the wire, so adding a store::RecordType without a round-trip fixture
// fails the lint run.
struct StoreRecordFixture {
  store::Record record;  // exemplar; record.type declares what it covers
};

// Store record contract: every enumerator store::all_record_types()
// reports has at least one fixture ("store-record-uncovered"), and each
// fixture survives encode -> decode with struct equality and re-encodes
// byte-identically ("store-record-codec" — a canonical encoding is what
// makes the log's hash chain and fsck's digests reproducible).
[[nodiscard]] Diagnostics check_store_records(
    const std::vector<store::RecordType>& types,
    const std::vector<StoreRecordFixture>& fixtures);

// The canonical fixture set, one populated exemplar per record type.
[[nodiscard]] std::vector<StoreRecordFixture> store_record_fixtures();

// --- observability contract --------------------------------------------
// Every wire op a gateway mounts must observe its dispatch latency:
//   - "obs-op-missing": the op has no per-op latency histogram in the
//     registry at "<scope>.op.<service>.<method>_us" (expose() failed
//     to register it — instrumentation was bypassed at mount time);
//   - "obs-op-unsampled": the op's call counter shows dispatches but
//     the histogram holds no samples (a completion path skips the
//     observe wrapper, so latency silently vanishes).
// Drive at least one invocation through the gateway before running the
// sampled check, or it can only prove registration, not sampling.
[[nodiscard]] Diagnostics check_vsg_op_metrics(
    const core::VirtualServiceGateway& vsg, const obs::Registry& registry);

// Renders diagnostics one per line ("check: subject: message").
std::string format_diagnostics(const Diagnostics& diags);

}  // namespace hcm::lint
