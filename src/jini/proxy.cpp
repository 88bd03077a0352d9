#include "jini/proxy.hpp"

#include "common/frame_reader.hpp"

namespace hcm::jini {

struct Proxy::Shared {
  net::StreamPtr stream;
  FrameReader reader;
  bool connecting = false;
  std::vector<std::function<void(const Status&)>> waiters;
  std::uint64_t next_call_id = 1;
  struct Pending {
    InvokeResultFn done;
    sim::EventId timeout_event = 0;
  };
  std::map<std::uint64_t, Pending> pending;
  sim::Scheduler* sched = nullptr;

  void fail_all(const Status& status) {
    auto pending_now = std::move(pending);
    pending.clear();
    for (auto& [id, p] : pending_now) {
      if (p.timeout_event != 0) sched->cancel(p.timeout_event);
      if (p.done) p.done(status);
    }
    auto waiters_now = std::move(waiters);
    waiters.clear();
    for (auto& w : waiters_now) w(status);
  }
};

Proxy::Proxy(net::Network& net, net::NodeId local_node, ServiceItem item,
             sim::Duration call_timeout)
    : net_(net),
      local_node_(local_node),
      item_(std::move(item)),
      call_timeout_(call_timeout),
      shared_(std::make_shared<Shared>()) {
  shared_->sched = &net.scheduler();
}

Proxy::~Proxy() {
  if (shared_->stream) shared_->stream->close();
  shared_->fail_all(cancelled("proxy destroyed"));
}

void Proxy::ensure_connected(std::function<void(const Status&)> then) {
  if (shared_->stream && shared_->stream->is_open()) {
    then(Status::ok());
    return;
  }
  shared_->waiters.push_back(std::move(then));
  if (shared_->connecting) return;
  shared_->connecting = true;
  auto shared = shared_;
  net_.connect(local_node_, item_.endpoint,
               [shared](Result<net::StreamPtr> r) {
                 shared->connecting = false;
                 if (!r.is_ok()) {
                   auto waiters = std::move(shared->waiters);
                   shared->waiters.clear();
                   for (auto& w : waiters) w(r.status());
                   return;
                 }
                 shared->stream = r.value();
                 shared->reader = FrameReader{};
                 shared->stream->set_on_close(
                     [shared] { shared->fail_all(unavailable("peer closed")); });
                 shared->stream->set_on_data([shared](BlockStream&& data) {
                   auto on_reply = [&shared](ByteView f) {
                     auto reply = decode_reply(f);
                     if (!reply.is_ok()) return Status::ok();
                     auto it = shared->pending.find(reply.value().call_id);
                     if (it == shared->pending.end()) return Status::ok();
                     auto p = std::move(it->second);
                     shared->pending.erase(it);
                     if (p.timeout_event != 0) {
                       shared->sched->cancel(p.timeout_event);
                     }
                     if (reply.value().status.is_ok()) {
                       p.done(reply.value().value);
                     } else {
                       p.done(reply.value().status);
                     }
                     return Status::ok();
                   };
                   auto status = shared->reader.feed(std::move(data), on_reply);
                   if (!status.is_ok()) shared->stream->close();
                 });
                 auto waiters = std::move(shared->waiters);
                 shared->waiters.clear();
                 for (auto& w : waiters) w(Status::ok());
               });
}

void Proxy::invoke(const std::string& method, const ValueList& args,
                   InvokeResultFn done) {
  const MethodDesc* desc = item_.interface.find_method(method);
  if (desc == nullptr) {
    done(not_found("interface " + item_.interface.name + " has no method " +
                   method));
    return;
  }
  if (auto status = check_args(*desc, args); !status.is_ok()) {
    done(status);
    return;
  }
  CallMessage msg;
  msg.call_id = shared_->next_call_id++;
  msg.service_id = item_.service_id;
  msg.method = method;
  msg.args = args;
  msg.one_way = desc->one_way;
  send_call(std::move(msg), std::move(done));
}

Status Proxy::invoke_one_way(const std::string& method,
                             const ValueList& args) {
  const MethodDesc* desc = item_.interface.find_method(method);
  if (desc == nullptr) return not_found("no method " + method);
  if (!desc->one_way) {
    return invalid_argument(method + " is not a one-way method");
  }
  invoke(method, args, [](Result<Value>) {});
  return Status::ok();
}

void Proxy::send_call(CallMessage msg, InvokeResultFn done) {
  auto shared = shared_;
  auto timeout_after = call_timeout_;
  ensure_connected([shared, timeout_after, msg = std::move(msg),
                    done = std::move(done)](const Status& status) mutable {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    if (msg.one_way) {
      shared->stream->send(frame(encode_call(msg)));
      done(Value());
      return;
    }
    auto call_id = msg.call_id;
    Shared::Pending pending;
    pending.done = std::move(done);
    pending.timeout_event =
        shared->sched->after(timeout_after, [shared, call_id] {
          auto it = shared->pending.find(call_id);
          if (it == shared->pending.end()) return;
          auto p = std::move(it->second);
          shared->pending.erase(it);
          p.done(timeout("jini call timed out"));
        });
    shared->pending.emplace(call_id, std::move(pending));
    shared->stream->send(frame(encode_call(msg)));
  });
}

ServiceHandler Proxy::as_handler() {
  // The handler shares the proxy's connection state, so it stays valid
  // for the proxy's lifetime (PCMs own their proxies).
  return [this](const std::string& method, const ValueList& args,
                InvokeResultFn done) { invoke(method, args, std::move(done)); };
}

}  // namespace hcm::jini
