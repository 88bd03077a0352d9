#include "core/vsg.hpp"

#include "common/logging.hpp"
#include "obs/instrument.hpp"
#include "obs/slab.hpp"
#include "obs/trace.hpp"

namespace hcm::core {

const char* to_string(VsgProtocol p) {
  switch (p) {
    case VsgProtocol::kSoap: return "soap";
    case VsgProtocol::kBinary: return "hcmb";
  }
  return "?";
}

VirtualServiceGateway::VirtualServiceGateway(net::Network& net,
                                             net::NodeId gateway_node,
                                             std::string island_name,
                                             std::uint16_t port,
                                             VsgProtocol protocol)
    : net_(net),
      node_(gateway_node),
      island_name_(std::move(island_name)),
      port_(port),
      protocol_(protocol),
      http_(net, gateway_node, port),
      // The VSG backbone reuses one connection per peer gateway: the
      // cross-island call rate makes per-call TCP setup the dominant
      // latency term otherwise.
      soap_client_(net, gateway_node,
                   http::HttpClient::Options{.keep_alive = true}),
      binary_server_(net, gateway_node, static_cast<std::uint16_t>(port + 1),
                     "binary"),
      // Binary calls time out like the SOAP client's HTTP requests.
      binary_client_(net, gateway_node, "binary",
                     http::HttpClient::Options{}.request_timeout),
      obs_scope_(
          obs::shard_registry().unique_scope("vsg." + island_name_)),
      remote_calls_(
          obs::shard_registry().counter(obs_scope_ + ".remote_calls")),
      local_dispatches_(
          obs::shard_registry().counter(obs_scope_ + ".local_dispatches")),
      remote_errors_(
          obs::shard_registry().counter(obs_scope_ + ".remote_errors")),
      remote_latency_us_(obs::shard_registry().histogram(
          obs_scope_ + ".remote_latency_us")) {}

VirtualServiceGateway::~VirtualServiceGateway() = default;

Status VirtualServiceGateway::start() {
  if (protocol_ == VsgProtocol::kSoap) return http_.start();
  return binary_server_.start();
}

Result<Uri> VirtualServiceGateway::expose(const std::string& name,
                                          const InterfaceDesc& iface,
                                          ServiceHandler local_invoke) {
  if (exposed_.count(name) != 0) {
    return already_exists("already exposed through VSG: " + name);
  }
  Exposed exposed;
  exposed.iface = iface;
  exposed.handler = local_invoke;

  // Per-op metrics, created eagerly so every mounted wire op has a
  // registered latency histogram even before its first call (hcm_lint's
  // vsg-op-latency rule checks exactly this). Resolved once here — the
  // dispatch path must not rebuild metric names or look them up by
  // string per call.
  struct OpMetrics {
    obs::Counter* calls;
    obs::Histogram* latency_us;
    std::string span_label;
  };
  auto& reg = obs::Registry::global();
  auto ops = std::make_shared<std::map<std::string, OpMetrics, std::less<>>>();
  for (const auto& m : iface.methods) {
    const std::string op = obs_scope_ + ".op." + name + "." + m.name;
    (*ops)[m.name] = OpMetrics{&reg.counter(op + ".calls"),
                               &reg.histogram(op + "_us"),
                               "vsg.dispatch:" + name + "." + m.name};
  }
  // Dispatch glue shared by both protocols: count the op, open a span
  // (child of whatever wire context the channel made current), and
  // observe latency + close the span when the handler completes.
  auto dispatch = [this, name, ops](const ServiceHandler& handler,
                                    const std::string& method,
                                    const ValueList& args,
                                    InvokeResultFn done) {
    local_dispatches_.inc();
    auto& sched = net_.scheduler();
    auto it = ops->find(method);
    if (it == ops->end()) {
      // Off-interface method straight off the wire (a client-side
      // check rejects these before sending); keep the old lazy-metric
      // behaviour for it.
      auto& r = obs::Registry::global();
      const std::string op = obs_scope_ + ".op." + name + "." + method;
      it = ops->emplace(method, OpMetrics{&r.counter(op + ".calls"),
                                          &r.histogram(op + "_us"),
                                          "vsg.dispatch:" + name + "." +
                                              method})
               .first;
    }
    const OpMetrics& om = it->second;
    om.calls->inc();
    auto& tracer = obs::Tracer::global();
    const std::uint64_t span_id =
        tracer.begin_span(om.span_label, obs_scope_, sched.now());
    obs::Tracer::Scope scope(tracer, tracer.context_of(span_id));
    handler(method, args,
            obs::observe_completion(sched, *om.latency_us, nullptr, span_id,
                                    std::move(done)));
  };

  const std::string path = "/vsg/" + name;
  if (protocol_ == VsgProtocol::kSoap) {
    exposed.soap_service = std::make_unique<soap::SoapService>(http_, path);
    // One SOAP method per interface method; generated client proxy.
    for (const auto& m : iface.methods) {
      exposed.soap_service->register_method(
          m.name,
          // args lives in the (mutable) closure so its capacity is
          // reused call over call; dispatch consumes it synchronously
          // and nested re-entry is impossible within a frame (loopback
          // delivery is scheduled, never inline).
          [dispatch, handler = exposed.handler, method = m.name,
           args = ValueList{}](soap::NamedValues& params,
                               soap::CallResultFn done) mutable {
            args.clear();
            args.reserve(params.size());
            for (auto& [k, v] : params) args.push_back(std::move(v));
            dispatch(handler, method, args, std::move(done));
          });
    }
    Uri uri = endpoint_uri(net_, "http", {node_, port_}, path);
    exposed_[name] = std::move(exposed);
    return uri;
  }

  // Binary protocol: register under the service name directly.
  binary_server_.register_service(
      name, [dispatch, handler = exposed.handler](const std::string& method,
                                                  const ValueList& args,
                                                  InvokeResultFn done) {
        dispatch(handler, method, args, std::move(done));
      });
  Uri uri = endpoint_uri(net_, "hcmb",
                         {node_, static_cast<std::uint16_t>(port_ + 1)}, "/" + name);
  exposed_[name] = std::move(exposed);
  return uri;
}

std::vector<std::pair<std::string, std::string>>
VirtualServiceGateway::exposed_ops() const {
  std::vector<std::pair<std::string, std::string>> ops;
  for (const auto& [name, exposed] : exposed_) {
    for (const auto& m : exposed.iface.methods) ops.emplace_back(name, m.name);
  }
  return ops;
}

Uri VirtualServiceGateway::exposure_uri(const std::string& name) {
  if (protocol_ == VsgProtocol::kSoap) {
    return endpoint_uri(net_, "http", {node_, port_}, "/vsg/" + name);
  }
  return endpoint_uri(net_, "hcmb",
                      {node_, static_cast<std::uint16_t>(port_ + 1)},
                      "/" + name);
}

void VirtualServiceGateway::unexpose(const std::string& name) {
  auto it = exposed_.find(name);
  if (it == exposed_.end()) return;
  if (protocol_ == VsgProtocol::kSoap) {
    // SoapService unregisters its route when destroyed with the entry.
  } else {
    binary_server_.unregister_service(name);
  }
  exposed_.erase(it);
}

void VirtualServiceGateway::call_remote(const Uri& endpoint,
                                        const std::string& service_name,
                                        const InterfaceDesc& iface,
                                        const std::string& method,
                                        const ValueList& args,
                                        InvokeResultFn done) {
  const MethodDesc* desc = iface.find_method(method);
  if (desc == nullptr) {
    done(not_found("interface " + iface.name + " has no method " + method));
    return;
  }
  if (auto status = check_args(*desc, args); !status.is_ok()) {
    done(status);
    return;
  }
  auto resolved = resolve_endpoint(net_, endpoint);
  if (!resolved.is_ok()) {
    done(resolved.status());
    return;
  }
  remote_calls_.inc();
  auto& tracer = obs::Tracer::global();
  auto& sched = net_.scheduler();
  // Label built only when a trace is being recorded — begin_span is a
  // no-op when disabled, but the concatenation wouldn't be.
  const std::uint64_t span_id =
      tracer.enabled()
          ? tracer.begin_span("vsg.call:" + service_name + "." + method,
                              obs_scope_, sched.now())
          : 0;
  // Current while the wire client starts, so its span nests under ours.
  obs::Tracer::Scope scope(tracer, tracer.context_of(span_id));
  done = obs::observe_completion(sched, remote_latency_us_, &remote_errors_,
                                 span_id, std::move(done));
  if (endpoint.scheme == "hcmb") {
    binary_client_.call(resolved.value(), service_name, method, args,
                        std::move(done));
    return;
  }
  // Scratch reuse: entry names assign into retained capacity, values
  // copy-assign (no allocation for scalars), and the namespace string
  // rebuilds in place. Both are done with by the time soap_client_.call
  // returns (the call body renders synchronously).
  auto& params = params_scratch_;
  params.resize(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i < desc->params.size()) {
      params[i].first.assign(desc->params[i].name);
    } else {
      params[i].first.assign("arg");
      params[i].first += std::to_string(i);
    }
    params[i].second = args[i];
  }
  ns_scratch_.assign("urn:hcm:");
  ns_scratch_ += iface.name;
  soap_client_.call(resolved.value(), endpoint.path, ns_scratch_, method,
                    params, std::move(done));
}

}  // namespace hcm::core
