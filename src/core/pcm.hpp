// Protocol Conversion Manager (paper §3.2): per-island component that
// keeps the two proxy populations in sync with reality:
//   refresh() publishes every local service through a generated Client
//   Proxy (VSG exposure + WSDL in the VSR), and imports every foreign
//   VSR entry as a generated Server Proxy exported into the local
//   middleware. Services that disappear from the VSR are unexported.
//
// The PCM is the only writer of its island's VSR entries: framework
// services with no native middleware behind them (observability, the
// testbed's motion sensor) are published through host_service(), so
// every entry of origin X is in X's published set and one renewOrigin
// call covers them all.
//
// The PCM also keeps the parsed description of every foreign entry it
// imported, whether or not the local middleware accepted the export,
// and the record of every service it published. The island's event
// bridge resolves subscriptions there, on both sides, without asking
// the VSR or the adapter.
//
// Synchronization is incremental: the PCM keeps a per-registry cursor
// and only parses / generates proxies for entries that changed, and
// steady-state lease renewal is one fingerprint-guarded renewOrigin
// call instead of S republications. The paper's full transfer (publish
// everything, download everything) survives as the delta protocol's
// own resync: on first contact, after journal compaction and after a
// registry restart the changesSince reply is the registry's whole set,
// and a refused renewal republishes the island's whole set.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "core/adapter.hpp"
#include "core/proxygen.hpp"
#include "core/vsr.hpp"

namespace hcm::core {

class Pcm {
 public:
  Pcm(net::Network& net, VirtualServiceGateway& vsg, net::Endpoint vsr,
      std::unique_ptr<MiddlewareAdapter> adapter);

  using DoneFn = std::function<void(const Status&)>;

  // Full synchronization pass (publish CPs, then import/retire SPs).
  void refresh(DoneFn done);

  // Hosts a framework service on this island: exposes `handler` on the
  // VSG, emits its WSDL once and publishes it, initiated from the
  // gateway's shard; `published` receives the outcome. The service then
  // rides the island's lease renewal like a native one, and refresh()
  // never retires it.
  [[nodiscard]] Status host_service(const std::string& name,
                                    const InterfaceDesc& iface,
                                    ServiceHandler handler, DoneFn published);

  [[nodiscard]] MiddlewareAdapter& adapter() { return *adapter_; }
  [[nodiscard]] VirtualServiceGateway& vsg() { return vsg_; }
  [[nodiscard]] ProxyGenerator& proxygen() { return proxygen_; }

  struct PublishedRecord {
    std::string wsdl;      // document as last emitted (cached)
    std::string digest;    // soap::wsdl_digest(wsdl)
    std::string category;  // interface name, the entry's VSR category
    bool hosted = false;   // host_service(): no native listing behind it
  };

  [[nodiscard]] std::size_t published_count() const {
    return published_.size();
  }
  // A service this island published, or nullptr.
  [[nodiscard]] const PublishedRecord* find_published(
      const std::string& name) const {
    auto it = published_.find(name);
    return it == published_.end() ? nullptr : &it->second;
  }
  // A foreign entry this island imported, parsed from its WSDL. It is
  // kept whether or not the local middleware accepted the export.
  struct ForeignRecord {
    std::string digest;     // of the entry's WSDL
    LocalService service;   // as offered to the adapter for export
    Uri endpoint;           // the origin VSG's exposure of the service
    bool exported = false;  // a Server Proxy is live in the middleware
  };
  // The record of a foreign entry, or nullptr. A retired entry has none.
  [[nodiscard]] const ForeignRecord* find_foreign(
      const std::string& name) const {
    auto it = foreign_.find(name);
    return it == foreign_.end() ? nullptr : &it->second;
  }

  // The three below count exported Server Proxies only.
  [[nodiscard]] std::size_t imported_count() const;
  [[nodiscard]] bool has_imported(const std::string& name) const {
    auto it = foreign_.find(name);
    return it != foreign_.end() && it->second.exported;
  }
  // Digest of an imported entry ("" when not imported) — lets tests
  // assert convergence by diffing (name, digest) maps across PCMs.
  [[nodiscard]] std::string imported_digest(const std::string& name) const {
    auto it = foreign_.find(name);
    return it == foreign_.end() || !it->second.exported ? ""
                                                        : it->second.digest;
  }

  // How many times a WSDL document was generated for a local service.
  // Stays at published_count() across steady-state refreshes: emitted
  // documents are cached per service, not regenerated every lease.
  [[nodiscard]] std::uint64_t wsdl_generations() const {
    return wsdl_generations_.value();
  }
  // Times the O(1) renewOrigin fast path was refused and the PCM fell
  // back to republishing its full set (registry restart, lapsed lease).
  [[nodiscard]] std::uint64_t renew_fallbacks() const {
    return renew_fallbacks_.value();
  }

  // Lease used for VSR publications; refresh() renews them.
  static constexpr sim::Duration kPublishTtl = sim::seconds(120);

 private:
  void publish_locals(DoneFn done);
  void publish_record(const std::string& name, const PublishedRecord& rec,
                      DoneFn done);
  void renew_origin_lease(DoneFn done);  // steady state: one call
  void republish_all(DoneFn done);       // fallback when renewal refused
  void import_delta(DoneFn done);
  // Converges the imports to a full changesSince reply: upserts every
  // foreign entry and retires each import the set does not name.
  void converge_imports(const std::vector<VsrChange>& entries);
  // Imports/updates one foreign entry; returns false on the non-fatal
  // conversion failures (bad WSDL, impossible export). A refused export
  // keeps the record and is retried the next time the entry is applied.
  bool apply_upsert(const std::string& name, const std::string& origin,
                    const std::string& digest, const std::string& wsdl);
  void retire_import(const std::string& name);

  net::Network& net_;
  VirtualServiceGateway& vsg_;
  VsrClient vsr_;
  std::unique_ptr<MiddlewareAdapter> adapter_;
  ProxyGenerator proxygen_;
  // Names this island put in the VSR, with their cached documents:
  // native services and hosted ones alike.
  std::map<std::string, PublishedRecord> published_;
  // Foreign entries, by name.
  std::map<std::string, ForeignRecord> foreign_;
  std::string obs_scope_;
  obs::Counter& wsdl_generations_;
  obs::Counter& renew_fallbacks_;
  obs::Counter& refreshes_;
  obs::Histogram& refresh_latency_us_;
};

}  // namespace hcm::core
