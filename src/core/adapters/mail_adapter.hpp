// Internet Mail PCM adapter (paper Fig. 3 includes a Mail PCM).
// Conversions:
//   CP direction: the mail account becomes a "MailService" with
//     sendMail(to, subject, body) — any middleware can send email.
//   SP direction: a foreign service bound to mailbox "svc-<name>";
//     an arriving message invokes it (subject = method, body = one
//     argument per line), and the result is mailed back to the sender.
//     The mailbox is polled — HTTP/SMTP give no push, which is the
//     §4.2 asynchronous-notification limitation in miniature.
#pragma once

#include <map>
#include <memory>

#include "core/adapter.hpp"
#include "mail/mail.hpp"
#include "obs/instrument.hpp"

namespace hcm::core {

class MailAdapter : public MiddlewareAdapter {
 public:
  MailAdapter(net::Network& net, net::NodeId gateway_node,
              net::NodeId mail_server, std::string account,
              sim::Duration poll_interval = sim::seconds(5));
  ~MailAdapter() override;

  [[nodiscard]] std::string middleware_name() const override { return "mail"; }
  void list_services(ServicesFn done) override;
  void invoke(const std::string& service_name, const std::string& method,
              const ValueList& args, InvokeResultFn done) override;
  [[nodiscard]] Status export_service(const LocalService& service,
                                      ServiceHandler handler) override;
  void unexport_service(const std::string& name) override;

  // Event bridge: messageArrived fires when the account's mailbox
  // receives a message (polled — mail gives no push); emit_event
  // mails remote events into the "evt-<account>" mailbox.
  [[nodiscard]] Status watch_events(const LocalService& service,
                                    AdapterEventFn on_event) override;
  void unwatch_events(const std::string& service_name) override;
  void emit_event(const std::string& service_name, const std::string& event,
                  const Value& payload) override;

  // Parses one body line into a typed argument (int, double, bool,
  // else string). Exposed for tests.
  static Value parse_arg(const std::string& line);

  [[nodiscard]] const std::string& account() const { return account_; }

 private:
  void on_service_mail(const std::string& service_name,
                       const mail::Message& m);

  net::Network& net_;
  net::NodeId node_;
  net::NodeId server_;
  std::string account_;
  sim::Duration poll_interval_;
  mail::MailClient sender_;
  obs::InvokeMetrics invoke_metrics_{"mail"};
  struct Exported {
    ServiceHandler handler;
    std::unique_ptr<mail::MailClient> watcher;
  };
  std::map<std::string, Exported> exported_;
  std::unique_ptr<mail::MailClient> account_watcher_;  // event bridge
};

}  // namespace hcm::core
