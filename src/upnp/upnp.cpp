#include "upnp/upnp.hpp"

#include <atomic>
#include <optional>

#include "common/join.hpp"
#include "common/strings.hpp"
#include "soap/value_xml.hpp"
#include "xml/xml.hpp"

namespace hcm::upnp {

namespace {
constexpr const char* kSearchMagic = "M-SEARCH * HTTP/1.1";

// Reads a GENA propertyset body as post_event writes it: <event> and
// <payload> decode through the SOAP value codec (depth-bounded); any
// other child is skipped.
Status parse_propertyset(std::string_view body, std::string& event,
                         Value& payload) {
  xml::PullParser p(body);
  return p.for_each_child([&] {
    return p.for_each_child([&]() -> Status {
      const std::string_view local = p.local_name();
      if (local != "event" && local != "payload") return p.skip_element();
      auto v = soap::value_from_pull(p);
      if (!v.is_ok()) return v.status();
      if (local == "payload") {
        payload = std::move(v).take();
      } else if (v.value().is_string()) {
        event = v.value().as_string();
      } else {
        return protocol_error("event is not a string");
      }
      return Status::ok();
    });
  });
}

// Atomic so device construction across future shard workers still
// yields unique UDNs without a data race. Being process-wide, a UDN
// still depends on how many devices the process built before.
// hcm:allow(static-atomic-counter): pending ROADMAP 3(a), per-network UDNs
std::atomic<std::uint64_t> g_udn_counter{0};

// One <service> of the <serviceList>: its first serviceId and SCPDURL.
Status read_service(xml::PullParser& p, DescriptionDocument& out) {
  std::optional<std::string> id;
  std::optional<std::string> scpd;
  auto s = p.for_each_child([&] {
    const auto local = p.local_name();
    std::optional<std::string>* field = local == "serviceId" ? &id
                                        : local == "SCPDURL" ? &scpd
                                                             : nullptr;
    if (field == nullptr || field->has_value()) return p.skip_element();
    return p.collect_text(field->emplace());
  });
  if (s.is_ok() && id && scpd) {
    out.scpds.emplace_back(std::move(*id), std::move(*scpd));
  }
  return s;
}

// <device>: its first friendlyName, UDN and serviceList.
Status read_device(xml::PullParser& p, DescriptionDocument& out) {
  bool saw_name = false;
  bool saw_udn = false;
  bool saw_list = false;
  return p.for_each_child([&] {
    const auto local = p.local_name();
    if (!saw_name && local == "friendlyName") {
      saw_name = true;
      return p.collect_text(out.friendly_name);
    }
    if (!saw_udn && local == "UDN") {
      saw_udn = true;
      return p.collect_text(out.udn);
    }
    if (!saw_list && local == "serviceList") {
      saw_list = true;
      return p.for_each_child([&] {
        if (p.local_name() != "service") return p.skip_element();
        return read_service(p, out);
      });
    }
    return p.skip_element();
  });
}

}  // namespace

Result<DescriptionDocument> parse_device_description(
    std::string_view xml_text) {
  xml::PullParser p(xml_text);
  DescriptionDocument out;
  bool saw_device = false;
  auto s = p.for_each_child([&] {  // the root, whatever its name
    return p.for_each_child([&] {
      if (saw_device || p.local_name() != "device") return p.skip_element();
      saw_device = true;
      return read_device(p, out);
    });
  });
  if (!s.is_ok()) return s;
  if (!saw_device) return protocol_error("description without device");
  return out;
}

UpnpDevice::UpnpDevice(net::Network& net, net::NodeId node,
                       std::string friendly_name, std::uint16_t http_port)
    : net_(net),
      node_(node),
      friendly_name_(std::move(friendly_name)),
      udn_("uuid:hcm-" + std::to_string(g_udn_counter.fetch_add(1) + 1)),
      http_port_(http_port),
      http_(net, node, http_port),
      notify_client_(net, node) {}

UpnpDevice::~UpnpDevice() {
  if (net::Node* n = net_.node(node_)) n->unbind(kSsdpPort);
}

Status UpnpDevice::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("upnp device: no such node");
  auto status = http_.start();
  if (!status.is_ok()) return status;
  http_.route("/description.xml",
              [this](const http::Request&, http::RespondFn respond) {
                respond(http::Response::make(200, "OK", description_xml(),
                                             "text/xml"));
              });
  net_.join_group(node_, kSsdpGroup);
  status = n->bind(kSsdpPort, [this](net::Endpoint from, const Bytes& data) {
    on_ssdp(from, data);
  });
  if (!status.is_ok()) return status;
  return Status::ok();
}

void UpnpDevice::add_service(const std::string& service_id,
                             InterfaceDesc iface, ServiceHandler handler) {
  Mounted mounted;
  mounted.iface = iface;
  const std::string control_path = "/control/" + service_id;
  const std::string scpd_path = "/scpd/" + service_id;
  mounted.control = std::make_unique<soap::SoapService>(http_, control_path);
  // Every interface method becomes a SOAP action on the control URL.
  for (const auto& m : iface.methods) {
    mounted.control->register_method(
        m.name, [handler, name = m.name](const soap::NamedValues& params,
                                         soap::CallResultFn done) {
          ValueList args;
          args.reserve(params.size());
          for (const auto& [k, v] : params) args.push_back(v);
          handler(name, args, std::move(done));
        });
  }
  // SCPD document: we serve WSDL, which carries the same information.
  Uri endpoint{"http", "node-" + std::to_string(node_), http_port_,
               control_path};
  const std::string scpd =
      soap::emit_wsdl(iface, service_id, endpoint);
  http_.route(scpd_path, [scpd](const http::Request&,
                                http::RespondFn respond) {
    respond(http::Response::make(200, "OK", scpd, "text/xml"));
  });
  http_.route("/gena/" + service_id,
              [this, service_id](const http::Request& req,
                                 http::RespondFn respond) {
                handle_gena(service_id, req, std::move(respond));
              });
  services_[service_id] = std::move(mounted);
}

void UpnpDevice::handle_gena(const std::string& service_id,
                             const http::Request& req,
                             http::RespondFn respond) {
  if (req.method == "SUBSCRIBE") {
    const std::string* cb = req.header("CALLBACK");
    if (cb == nullptr) {
      respond(http::Response::make(400, "Bad Request", "missing CALLBACK"));
      return;
    }
    std::string url = *cb;
    if (url.size() >= 2 && url.front() == '<' && url.back() == '>') {
      url = url.substr(1, url.size() - 2);
    }
    auto uri = parse_uri(url);
    if (!uri.is_ok() || uri.value().host.rfind("node-", 0) != 0) {
      respond(http::Response::make(400, "Bad Request", "bad CALLBACK"));
      return;
    }
    auto id = parse_uint(uri.value().host.substr(5));
    if (id <= 0) {
      respond(http::Response::make(400, "Bad Request", "bad CALLBACK host"));
      return;
    }
    GenaSubscriber sub;
    sub.callback = {static_cast<net::NodeId>(id), uri.value().port};
    sub.path = uri.value().path;
    const std::string sid = "uuid:gena-" + std::to_string(next_sid_++);
    subscribers_[service_id][sid] = std::move(sub);
    auto resp = http::Response::make(200, "OK", sid);
    resp.set_header("SID", sid);
    respond(std::move(resp));
    return;
  }
  if (req.method == "UNSUBSCRIBE") {
    const std::string* sid = req.header("SID");
    bool removed = false;
    if (sid != nullptr) {
      auto it = subscribers_.find(service_id);
      if (it != subscribers_.end()) removed = it->second.erase(*sid) > 0;
    }
    if (removed) {
      respond(http::Response::make(200, "OK", ""));
    } else {
      respond(http::Response::make(412, "Precondition Failed", ""));
    }
    return;
  }
  respond(http::Response::make(405, "Method Not Allowed", ""));
}

void UpnpDevice::post_event(const std::string& service_id,
                            const std::string& event, const Value& payload) {
  auto it = subscribers_.find(service_id);
  if (it == subscribers_.end() || it->second.empty()) return;
  std::string body;
  xml::Writer w(body);
  soap::value_write("service", Value(service_id), w.start("propertyset"));
  soap::value_write("event", Value(event), w);
  soap::value_write("payload", payload, w);
  w.end();
  for (const auto& [sid, sub] : it->second) {
    http::Request req;
    req.method = "NOTIFY";
    req.target = sub.path;
    req.set_header("SID", sid);
    req.set_header("Content-Type", "text/xml");
    req.body = body;
    notify_client_.request(sub.callback, std::move(req),
                           [](Result<http::Response>) {});
  }
}

std::size_t UpnpDevice::subscriber_count(const std::string& service_id) const {
  auto it = subscribers_.find(service_id);
  return it == subscribers_.end() ? 0 : it->second.size();
}

void UpnpDevice::on_ssdp(net::Endpoint from, const Bytes& data) {
  if (to_string(data).rfind(kSearchMagic, 0) != 0) return;
  // Unicast response with our description location.
  std::string resp = "HTTP/1.1 200 OK\r\nLOCATION: http://node-" +
                     std::to_string(node_) + ":" +
                     std::to_string(http_port_) +
                     "/description.xml\r\nUSN: " + udn_ + "\r\n\r\n";
  Bytes out = net_.datagram_buffer();
  out.assign(resp.begin(), resp.end());
  net_.send_datagram({node_, kSsdpPort}, from, std::move(out));
}

std::string UpnpDevice::description_xml() const {
  std::string out = "<?xml version=\"1.0\"?>";
  xml::Writer w(out);
  w.start("root")
      .attr("xmlns", "urn:schemas-upnp-org:device-1-0")
      .start("device")
      .leaf("friendlyName", friendly_name_)
      .leaf("UDN", udn_)
      .start("serviceList");
  for (const auto& [id, mounted] : services_) {
    w.start("service")
        .leaf("serviceId", id)
        .leaf("controlURL", "/control/" + id)
        .leaf("SCPDURL", "/scpd/" + id)
        .end();
  }
  w.end().end().end();  // serviceList, device, root
  return out;
}

// --- Control point --------------------------------------------------------

ControlPoint::ControlPoint(net::Network& net, net::NodeId node)
    : net_(net), node_(node), http_(net, node), soap_(net, node) {}

void ControlPoint::search(sim::Duration wait, DevicesFn done) {
  net::Node* n = net_.node(node_);
  if (n == nullptr) {
    done({});
    return;
  }
  auto locations = std::make_shared<std::vector<net::Endpoint>>();
  const std::uint16_t port = reply_port_++;
  n->bind(port, [locations](net::Endpoint, const Bytes& data) {
    // Parse the LOCATION header of the SSDP response.
    auto text = to_string(data);
    for (const auto& line : split(text, '\n')) {
      auto trimmed = trim(line);
      if (!starts_with(to_lower(trimmed), "location:")) continue;
      auto uri = parse_uri(std::string(trim(trimmed.substr(9))));
      if (!uri.is_ok()) continue;
      // Host form is "node-<id>".
      auto host = uri.value().host;
      if (host.rfind("node-", 0) != 0) continue;
      auto id = parse_uint(host.substr(5));
      if (id <= 0) continue;
      locations->push_back(
          {static_cast<net::NodeId>(id), uri.value().port});
    }
  });
  net_.send_multicast({node_, port}, kSsdpGroup, kSsdpPort,
                      to_bytes(std::string(kSearchMagic) +
                               "\r\nMAN: \"ssdp:discover\"\r\n\r\n"));

  net_.scheduler().after(wait, [this, port, locations,
                                done = std::move(done)] {
    if (net::Node* n2 = net_.node(node_)) n2->unbind(port);
    const auto devices = collect<DeviceDescription>(1, std::move(done));
    for (const auto& loc : *locations) {
      devices.add();
      fetch_description(loc, devices);
    }
    devices.skip();
  });
}

void ControlPoint::fetch_description(
    net::Endpoint http_endpoint,
    std::function<void(Result<DeviceDescription>)> done) {
  http::Request req;
  req.target = "/description.xml";
  http_.request(http_endpoint, std::move(req), [this, http_endpoint,
                                                done = std::move(done)](
                                                   Result<http::Response> r) {
    if (!r.is_ok()) {
      done(r.status());
      return;
    }
    auto parsed = parse_device_description(r.value().body);
    if (!parsed.is_ok()) {
      done(parsed.status());
      return;
    }
    // Fetch each service's SCPD (WSDL) to learn its interface.
    const auto services = collect<ServiceDescription>(
        1, [friendly_name = std::move(parsed.value().friendly_name),
            udn = std::move(parsed.value().udn), done = std::move(done)](
               std::vector<ServiceDescription> found) mutable {
          DeviceDescription desc;
          desc.friendly_name = std::move(friendly_name);
          desc.udn = std::move(udn);
          desc.services = std::move(found);
          done(std::move(desc));
        });
    for (const auto& [id, path] : parsed.value().scpds) {
      http::Request scpd_req;
      scpd_req.target = path;
      services.add();
      http_.request(
          http_endpoint, std::move(scpd_req),
          [services, id = id, http_endpoint](Result<http::Response> sr) {
            if (!sr.is_ok()) return services.skip();
            auto wsdl = soap::parse_wsdl(sr.value().body);
            if (!wsdl.is_ok()) return services.skip();
            ServiceDescription s;
            s.service_id = id;
            s.interface = wsdl.value().interface;
            s.control = {http_endpoint.node, wsdl.value().endpoint.port};
            s.control_path = wsdl.value().endpoint.path;
            services(std::move(s));
          });
    }
    services.skip();
  });
}

Status ControlPoint::ensure_notify_server() {
  if (notify_server_ != nullptr) return Status::ok();
  auto server = std::make_unique<http::HttpServer>(net_, node_, notify_port_);
  auto status = server->start();
  if (!status.is_ok()) return status;
  server->route("/notify", [this](const http::Request& req,
                                  http::RespondFn respond) {
    const std::string* sid = req.header("SID");
    if (sid == nullptr) {
      respond(http::Response::make(400, "Bad Request", "missing SID"));
      return;
    }
    auto sub = gena_subs_.find(*sid);
    if (sub == gena_subs_.end()) {
      respond(http::Response::make(412, "Precondition Failed", ""));
      return;
    }
    std::string event;
    Value payload;
    if (!parse_propertyset(req.body, event, payload).is_ok()) {
      respond(http::Response::make(400, "Bad Request", "bad propertyset"));
      return;
    }
    // Copy: the handler may unsubscribe (and erase the map entry).
    auto handler = sub->second.on_event;
    const std::string service_id = sub->second.service_id;
    respond(http::Response::make(200, "OK", ""));
    if (handler) handler(service_id, event, payload);
  });
  notify_server_ = std::move(server);
  return Status::ok();
}

void ControlPoint::subscribe(const ServiceDescription& service,
                             EventFn on_event, SubscribeDoneFn done) {
  if (auto status = ensure_notify_server(); !status.is_ok()) {
    done(status);
    return;
  }
  http::Request req;
  req.method = "SUBSCRIBE";
  req.target = "/gena/" + service.service_id;
  req.set_header("CALLBACK", "<http://node-" + std::to_string(node_) + ":" +
                                 std::to_string(notify_port_) + "/notify>");
  http_.request(service.control, std::move(req),
                [this, service_id = service.service_id,
                 on_event = std::move(on_event),
                 done = std::move(done)](Result<http::Response> r) mutable {
                  if (!r.is_ok()) {
                    done(r.status());
                    return;
                  }
                  const std::string* sid = r.value().header("SID");
                  if (r.value().status != 200 || sid == nullptr) {
                    done(protocol_error("SUBSCRIBE rejected: " +
                                        r.value().reason));
                    return;
                  }
                  gena_subs_[*sid] = GenaSub{service_id, std::move(on_event)};
                  done(*sid);
                });
}

void ControlPoint::unsubscribe(const ServiceDescription& service,
                               const std::string& sid) {
  gena_subs_.erase(sid);
  http::Request req;
  req.method = "UNSUBSCRIBE";
  req.target = "/gena/" + service.service_id;
  req.set_header("SID", sid);
  http_.request(service.control, std::move(req),
                [](Result<http::Response>) {});
}

void ControlPoint::invoke(const ServiceDescription& service,
                          const std::string& action, const ValueList& args,
                          InvokeResultFn done) {
  const MethodDesc* desc = service.interface.find_method(action);
  if (desc == nullptr) {
    done(not_found("service has no action " + action));
    return;
  }
  if (auto status = check_args(*desc, args); !status.is_ok()) {
    done(status);
    return;
  }
  soap::NamedValues params;
  for (std::size_t i = 0; i < args.size(); ++i) {
    params.emplace_back(desc->params[i].name, args[i]);
  }
  soap_.call(service.control, service.control_path,
             "urn:hcm:" + service.interface.name, action, params,
             std::move(done));
}

}  // namespace hcm::upnp
