// Virtual Service Repository (paper §3.3): the virtual database of
// service locations and descriptions. With the SOAP VSG protocol it is
// "implemented with WSDL and UDDI" — exactly what this wraps: a UDDI
// registry service hosting WSDL documents, one instance per home.
#pragma once

#include <memory>
#include <string>

#include "common/uri.hpp"
#include "core/naming.hpp"
#include "soap/uddi.hpp"
#include "store/vsr_store.hpp"

namespace hcm::core {

class VsrServer {
 public:
  // A non-empty `store_dir` makes the repository durable: the registry
  // writes every journaled change through a store::VsrStore in that
  // directory and, on restart over the same directory, resumes the same
  // epoch/sequence so warm client cursors stay valid. If the store
  // cannot be opened (deep corruption — a bad pack, an unreadable dir)
  // the server degrades to the in-memory registry rather than failing
  // to start; store_open_failed() reports it.
  VsrServer(net::Network& net, net::NodeId node, std::uint16_t port = 8000,
            std::size_t journal_capacity =
                soap::UddiRegistry::kDefaultJournalCapacity,
            std::string store_dir = "");

  [[nodiscard]] Status start() { return http_.start(); }

  [[nodiscard]] net::Endpoint endpoint() const { return http_.endpoint(); }
  [[nodiscard]] Uri uri() {
    return endpoint_uri(net_, "http", http_.endpoint(), "/uddi");
  }
  [[nodiscard]] const soap::UddiRegistry& registry() const {
    return registry_;
  }

  // Client connections accepted since start(): VSR clients pool theirs,
  // so this stays at one per client across refreshes.
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return http_.connections_accepted();
  }

  [[nodiscard]] const store::VsrStore* store() const { return store_.get(); }
  [[nodiscard]] bool store_open_failed() const { return store_open_failed_; }

 private:
  net::Network& net_;
  http::HttpServer http_;
  bool store_open_failed_ = false;
  // Declared before registry_: the registry adopts the recovered state
  // during construction and writes through for its whole lifetime.
  std::unique_ptr<store::VsrStore> store_;
  soap::UddiRegistry registry_;
};

// Per-island access to the VSR. (The paper draws one VSR per
// middleware network, all synchronized; a single shared repository is
// the degenerate-but-equivalent deployment we default to, and tests
// exercise gateway failure separately.)
using VsrEntry = soap::RegistryEntry;
using VsrClient = soap::UddiClient;
using VsrDelta = soap::RegistryDelta;
using VsrChange = soap::RegistryChange;

}  // namespace hcm::core
