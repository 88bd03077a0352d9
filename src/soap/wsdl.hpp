// WSDL 1.1 emit/parse for service interfaces. The Virtual Service
// Repository stores these documents; Server Proxies are generated from
// parsed WSDL on the consuming island (paper §3.3, §4.1).
#pragma once

#include <string>

#include "common/interface_desc.hpp"
#include "common/status.hpp"
#include "common/uri.hpp"

namespace hcm::soap {

struct WsdlDocument {
  InterfaceDesc interface;
  std::string service_name;  // deployed service instance name
  Uri endpoint;              // soap:address location
};

// Emits a WSDL 1.1 document (rpc/encoded binding) for the interface,
// advertising `endpoint` as the SOAP address.
[[nodiscard]] std::string emit_wsdl(const InterfaceDesc& iface,
                                    const std::string& service_name,
                                    const Uri& endpoint);

// Parses a document produced by emit_wsdl (or a compatible subset).
[[nodiscard]] Result<WsdlDocument> parse_wsdl(std::string_view text);

// Stable content digest of a WSDL document (FNV-1a 64-bit, rendered as
// 16 lowercase hex chars). The VSR delta-sync protocol keys description
// caches and lease renewals on this, so two registries/clients agree on
// "unchanged" without comparing (or transferring) document bodies.
[[nodiscard]] std::string wsdl_digest(std::string_view text);

}  // namespace hcm::soap
