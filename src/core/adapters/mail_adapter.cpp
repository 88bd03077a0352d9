#include "core/adapters/mail_adapter.hpp"

#include <charconv>

#include "common/strings.hpp"

namespace hcm::core {

MailAdapter::MailAdapter(net::Network& net, net::NodeId gateway_node,
                         net::NodeId mail_server, std::string account,
                         sim::Duration poll_interval)
    : net_(net),
      node_(gateway_node),
      server_(mail_server),
      account_(std::move(account)),
      poll_interval_(poll_interval),
      sender_(net, gateway_node, mail_server) {}

MailAdapter::~MailAdapter() = default;

void MailAdapter::list_services(ServicesFn done) {
  std::vector<LocalService> services;
  LocalService service;
  service.name = "mail-" + account_;
  service.interface = InterfaceDesc{
      "MailService",
      {MethodDesc{"sendMail",
                  {{"to", ValueType::kString},
                   {"subject", ValueType::kString},
                   {"body", ValueType::kString}},
                  ValueType::kBool,
                  false}}};
  service.interface.events.push_back(
      MethodDesc{"messageArrived",
                 {{"from", ValueType::kString},
                  {"subject", ValueType::kString}},
                 ValueType::kNull,
                 true});
  services.push_back(std::move(service));
  net_.scheduler().after(0, [services = std::move(services),
                             done = std::move(done)]() mutable {
    done(std::move(services));
  });
}

void MailAdapter::invoke(const std::string& service_name,
                         const std::string& method, const ValueList& args,
                         InvokeResultFn done) {
  obs::ScopedInvoke obs_invoke(net_.scheduler(), invoke_metrics_,
                               service_name, method);
  done = obs_invoke.wrap(std::move(done));
  // Imported services dispatch through their server proxy directly
  // (programmatic equivalent of mailing the service mailbox, minus the
  // polling latency).
  if (auto exported = exported_.find(service_name);
      exported != exported_.end()) {
    exported->second.handler(method, args, std::move(done));
    return;
  }
  if (service_name != "mail-" + account_ || method != "sendMail") {
    net_.scheduler().after(0, [service_name, method, done = std::move(done)] {
      done(not_found("mail adapter: no " + service_name + "." + method));
    });
    return;
  }
  if (args.size() != 3 || !args[0].is_string() || !args[1].is_string() ||
      !args[2].is_string()) {
    net_.scheduler().after(0, [done = std::move(done)] {
      done(invalid_argument("sendMail(to, subject, body)"));
    });
    return;
  }
  // The DATA section is rendered from the arguments themselves, and the
  // completion holds `done` inline: it must fit DoneFn's inline room.
  auto sent = [done = std::move(done)](const Status& s) {
    if (s.is_ok()) {
      done(Value(true));
    } else {
      done(s);
    }
  };
  static_assert(sizeof(sent) <= mail::MailClient::kDoneInline);
  sender_.send({account_, args[0].as_string(), args[1].as_string(),
                args[2].as_string()},
               std::move(sent));
}

Value MailAdapter::parse_arg(const std::string& line) {
  auto t = trim(line);
  if (t == "true") return Value(true);
  if (t == "false") return Value(false);
  std::int64_t i = 0;
  auto [ip, iec] = std::from_chars(t.data(), t.data() + t.size(), i);
  if (iec == std::errc{} && ip == t.data() + t.size()) return Value(i);
  double d = 0;
  auto [dp, dec] = std::from_chars(t.data(), t.data() + t.size(), d);
  if (dec == std::errc{} && dp == t.data() + t.size()) return Value(d);
  return Value(std::string(t));
}

Status MailAdapter::export_service(const LocalService& service,
                                   ServiceHandler handler) {
  if (exported_.count(service.name) != 0) {
    return already_exists("already exported to mail: " + service.name);
  }
  Exported exported;
  exported.handler = std::move(handler);
  exported.watcher =
      std::make_unique<mail::MailClient>(net_, node_, server_);
  exported.watcher->watch(
      "svc-" + service.name, poll_interval_,
      [this, name = service.name](const mail::Message& m) {
        on_service_mail(name, m);
      });
  exported_[service.name] = std::move(exported);
  return Status::ok();
}

void MailAdapter::unexport_service(const std::string& name) {
  exported_.erase(name);
}

Status MailAdapter::watch_events(const LocalService& service,
                                 AdapterEventFn on_event) {
  if (service.name != "mail-" + account_) {
    return not_found("mail adapter: no local service " + service.name);
  }
  if (account_watcher_ != nullptr) return Status::ok();
  account_watcher_ = std::make_unique<mail::MailClient>(net_, node_, server_);
  account_watcher_->watch(
      account_, poll_interval_,
      [name = service.name, on_event = std::move(on_event)](
          const mail::Message& m) {
        on_event(name, "messageArrived",
                 Value(ValueMap{{"from", Value(m.from)},
                                {"subject", Value(m.subject)}}));
      });
  return Status::ok();
}

void MailAdapter::unwatch_events(const std::string& service_name) {
  if (service_name != "mail-" + account_) return;
  account_watcher_.reset();
}

void MailAdapter::emit_event(const std::string& service_name,
                             const std::string& event, const Value& payload) {
  // Native re-emission: remote events become messages in the
  // "evt-<account>" mailbox, where any mail client can poll them.
  sender_.send({service_name, "evt-" + account_, service_name + "." + event,
                payload.to_string()},
               [](const Status&) {});
}

void MailAdapter::on_service_mail(const std::string& service_name,
                                  const mail::Message& m) {
  auto it = exported_.find(service_name);
  if (it == exported_.end()) return;
  const std::string method = std::string(trim(m.subject));
  ValueList args;
  if (!m.body.empty()) {
    for (const auto& line : split(m.body, '\n')) {
      if (!trim(line).empty()) args.push_back(parse_arg(line));
    }
  }
  it->second.handler(
      method, args,
      [this, reply_to = m.from, method](Result<Value> result) {
        if (reply_to.empty()) return;
        sender_.send({account_, reply_to, "Re: " + method,
                      result.is_ok() ? result.value().to_string()
                                     : "ERROR " + result.status().to_string()},
                     [](const Status&) {});
      });
}

}  // namespace hcm::core
