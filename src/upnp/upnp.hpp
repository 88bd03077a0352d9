// UPnP-like middleware: SSDP-style multicast discovery, XML device
// descriptions over HTTP, and SOAP control actions. §5 of the paper
// argues any new middleware joins the framework by writing one PCM —
// the UPnP PCM in core/ is that demonstration, and this is the
// middleware it converts.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/service.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "soap/rpc.hpp"
#include "soap/wsdl.hpp"

namespace hcm::upnp {

constexpr net::GroupId kSsdpGroup = 0x55506E50;  // "UPnP"
constexpr std::uint16_t kSsdpPort = 1900;

// One advertised service of a device.
struct ServiceDescription {
  std::string service_id;      // "urn:hcm:svc:lamp-1"
  InterfaceDesc interface;
  net::Endpoint control;       // SOAP control endpoint
  std::string control_path;    // e.g. "/control/lamp-1"
};

struct DeviceDescription {
  std::string friendly_name;
  std::string udn;             // unique device name
  std::vector<ServiceDescription> services;
};

// A device description document as a control point reads it. The
// interface of each service comes from its SCPD, fetched separately.
struct DescriptionDocument {
  std::string friendly_name;
  std::string udn;
  std::vector<std::pair<std::string, std::string>> scpds;  // serviceId, SCPDURL
};

// Reads a device description: the first <device> child of the root
// (whose own name is not checked), its first <friendlyName> and <UDN>,
// and each <service> of its first <serviceList> that names both a
// <serviceId> and an <SCPDURL>. Text is the element's direct text runs
// concatenated, without trimming.
[[nodiscard]] Result<DescriptionDocument> parse_device_description(
    std::string_view xml_text);

// A device: announces itself over SSDP and serves its description,
// per-service WSDL-style SCPD documents, and SOAP control endpoints.
class UpnpDevice {
 public:
  UpnpDevice(net::Network& net, net::NodeId node, std::string friendly_name,
             std::uint16_t http_port = 5000);
  ~UpnpDevice();
  UpnpDevice(const UpnpDevice&) = delete;
  UpnpDevice& operator=(const UpnpDevice&) = delete;

  Status start();

  // Adds a controllable service (call before or after start()).
  void add_service(const std::string& service_id, InterfaceDesc iface,
                   ServiceHandler handler);

  // GENA-style eventing: control points SUBSCRIBE/UNSUBSCRIBE at
  // /gena/<service_id> with a CALLBACK URL; post_event NOTIFYs every
  // subscriber of the service.
  void post_event(const std::string& service_id, const std::string& event,
                  const Value& payload);
  [[nodiscard]] std::size_t subscriber_count(
      const std::string& service_id) const;

  [[nodiscard]] const std::string& udn() const { return udn_; }
  [[nodiscard]] net::Endpoint http_endpoint() const {
    return {node_, http_port_};
  }

 private:
  void on_ssdp(net::Endpoint from, const Bytes& data);
  void handle_gena(const std::string& service_id, const http::Request& req,
                   http::RespondFn respond);
  std::string description_xml() const;

  net::Network& net_;
  net::NodeId node_;
  std::string friendly_name_;
  std::string udn_;
  std::uint16_t http_port_;
  http::HttpServer http_;
  http::HttpClient notify_client_;
  struct Mounted {
    InterfaceDesc iface;
    std::unique_ptr<soap::SoapService> control;
  };
  std::map<std::string, Mounted> services_;
  struct GenaSubscriber {
    net::Endpoint callback;
    std::string path;
  };
  // service_id -> SID -> subscriber callback.
  std::map<std::string, std::map<std::string, GenaSubscriber>> subscribers_;
  std::uint64_t next_sid_ = 1;
};

// Control point: discovers devices and invokes their actions.
class ControlPoint {
 public:
  ControlPoint(net::Network& net, net::NodeId node);

  using DevicesFn = std::function<void(std::vector<DeviceDescription>)>;
  // M-SEARCH: collects device descriptions for `wait`.
  void search(sim::Duration wait, DevicesFn done);

  // Invokes an action on a discovered service.
  void invoke(const ServiceDescription& service, const std::string& action,
              const ValueList& args, InvokeResultFn done);

  // GENA: subscribes to a service's events. NOTIFYs arrive at a
  // lazily-started callback server; `done` receives the SID.
  using EventFn = std::function<void(const std::string& service_id,
                                     const std::string& event,
                                     const Value& payload)>;
  using SubscribeDoneFn = std::function<void(Result<std::string>)>;
  void subscribe(const ServiceDescription& service, EventFn on_event,
                 SubscribeDoneFn done);
  void unsubscribe(const ServiceDescription& service, const std::string& sid);

 private:
  void fetch_description(net::Endpoint http_endpoint,
                         std::function<void(Result<DeviceDescription>)> done);
  [[nodiscard]] Status ensure_notify_server();

  net::Network& net_;
  net::NodeId node_;
  http::HttpClient http_;
  soap::SoapClient soap_;
  std::uint16_t reply_port_ = 21900;
  std::unique_ptr<http::HttpServer> notify_server_;
  std::uint16_t notify_port_ = 5390;
  struct GenaSub {
    std::string service_id;
    EventFn on_event;
  };
  std::map<std::string, GenaSub> gena_subs_;  // by SID
};

}  // namespace hcm::upnp
