#include "net/binary_channel.hpp"

#include <algorithm>

#include "obs/slab.hpp"

namespace hcm::net {

namespace {

// Frame kinds (binary_channel.hpp has the layout).
constexpr std::uint8_t kRequest = 1;
constexpr std::uint8_t kOk = 2;
constexpr std::uint8_t kError = 3;
constexpr std::uint8_t kOneWay = 4;
constexpr std::uint8_t kTraced = 0x80;

// A decoded frame header; the names borrow from the frame.
struct Header {
  std::uint64_t id = 0;
  std::uint8_t kind = 0;  // without kTraced
  std::string_view svc;
  std::string_view method;
  obs::TraceContext trace;
};

Result<std::string_view> read_name(BufReader& r) {
  auto n = r.u16();
  if (!n.is_ok()) return n.status();
  return r.view(n.value());
}

Result<Header> read_header(BufReader& r) {
  Header h;
  auto id = r.u64();
  auto kind = r.u8();
  if (!id.is_ok() || !kind.is_ok()) return protocol_error("binary: short");
  h.id = id.value();
  h.kind = kind.value() & ~kTraced;
  const bool traced = (kind.value() & kTraced) != 0;
  const bool request = h.kind == kRequest || h.kind == kOneWay;
  if (h.kind < kRequest || h.kind > kOneWay || (traced && !request)) {
    return protocol_error("binary: unknown frame kind");
  }
  if (request) {
    auto svc = read_name(r);
    if (!svc.is_ok()) return svc.status();
    auto method = read_name(r);
    if (!method.is_ok()) return method.status();
    h.svc = svc.value();
    h.method = method.value();
  }
  if (traced) {
    auto trace_id = r.u64();
    auto span_id = r.u64();
    if (!trace_id.is_ok() || !span_id.is_ok()) {
      return protocol_error("binary: short trace ids");
    }
    h.trace = {trace_id.value(), span_id.value()};
  }
  return h;
}

}  // namespace

BlockStream encode_request(std::uint64_t id, std::string_view service,
                           std::string_view method, const ValueList& args,
                           const obs::TraceContext& trace, bool one_way) {
  return build_frame([&](BlockStream& f) {
    const std::uint8_t kind = one_way ? kOneWay : kRequest;
    f.put_u64(id);
    f.put_u8(trace.valid() ? kind | kTraced : kind);
    f.put_u16(static_cast<std::uint16_t>(service.size()));
    f.put_raw(service);
    f.put_u16(static_cast<std::uint16_t>(method.size()));
    f.put_raw(method);
    if (trace.valid()) {
      f.put_u64(trace.trace_id);
      f.put_u64(trace.span_id);
    }
    encode_value(args, f);
  });
}

struct BinaryRpcServer::Conn {
  StreamPtr stream;
  FrameReader reader;
  // Decode scratch reused call over call: handlers consume the args
  // synchronously, as on the SOAP path (vsg.cpp).
  std::string method;
  ValueList args;
};

BinaryRpcServer::BinaryRpcServer(Network& net, NodeId node,
                                 std::uint16_t port, std::string_view family)
    : net_(net),
      node_(node),
      port_(port),
      family_(family),
      obs_scope_(obs::shard_registry().unique_scope(family_ + ".server")),
      calls_served_(obs::shard_registry().counter(obs_scope_ + ".calls")),
      rejected_(obs::shard_registry().counter(obs_scope_ + ".rejected")),
      dispatch_latency_us_(
          obs::shard_registry().histogram(obs_scope_ + ".latency_us")) {}

BinaryRpcServer::~BinaryRpcServer() { stop(); }

Status BinaryRpcServer::start() {
  Node* n = net_.node(node_);
  if (n == nullptr) return not_found(family_ + " rpc: no such node");
  auto status = n->listen(port_, [this](StreamPtr s) { on_accept(s); });
  if (!status.is_ok()) return status;
  listening_ = true;
  return Status::ok();
}

void BinaryRpcServer::stop() {
  if (!listening_) return;
  if (Node* n = net_.node(node_)) n->stop_listening(port_);
  listening_ = false;
  for (auto& weak : connections_) {
    if (auto conn = weak.lock(); conn && conn->stream) {
      conn->stream->set_on_data(nullptr);
      conn->stream->close();
      conn->stream = nullptr;
    }
  }
  connections_.clear();
}

void BinaryRpcServer::register_service(const std::string& name,
                                       ServiceHandler handler) {
  services_[name] = std::move(handler);
}

void BinaryRpcServer::unregister_service(const std::string& name) {
  services_.erase(name);
}

void BinaryRpcServer::on_accept(StreamPtr stream) {
  auto conn = std::make_shared<Conn>();
  conn->stream = stream;
  std::erase_if(connections_,
                [](const std::weak_ptr<Conn>& w) { return w.expired(); });
  connections_.push_back(conn);
  stream->set_on_close([conn] { conn->stream = nullptr; });
  stream->set_on_data([this, conn](BlockStream&& data) {
    auto status = conn->reader.feed(
        std::move(data), [&](ByteView f) { return serve(conn, f); });
    if (status.is_ok()) return;
    rejected_.inc();
    if (conn->stream) conn->stream->close();
  });
}

Status BinaryRpcServer::serve(const std::shared_ptr<Conn>& conn,
                              ByteView frame) {
  BufReader r(frame);
  auto header = read_header(r);
  if (!header.is_ok()) return header.status();
  const Header& h = header.value();
  if (h.kind != kRequest && h.kind != kOneWay) {
    return protocol_error("binary: reply to server");
  }
  if (auto s = decode_value(r, conn->args); !s.is_ok()) return s;
  if (!r.at_end()) return protocol_error("binary: trailing bytes");
  conn->method.assign(h.method);
  calls_served_.inc();

  // Rejoin the caller's trace for the duration of the dispatch.
  auto& tracer = obs::Tracer::global();
  auto& sched = net_.scheduler();
  obs::Tracer::Scope wire_scope(tracer, h.trace);
  const std::uint64_t span_id =
      tracer.enabled()
          ? tracer.begin_span(family_ + ".server:" + conn->method,
                              family_ + ".server", sched.now())
          : 0;
  obs::Tracer::Scope span_scope(tracer, tracer.context_of(span_id));

  InvokeResultFn reply = [conn, id = h.id, one_way = h.kind == kOneWay,
                          &sched, span_id, &latency = dispatch_latency_us_,
                          start = sched.now()](Result<Value> result) {
    latency.observe(sched.now() - start);
    obs::Tracer::global().end_span(span_id, sched.now(), result.is_ok());
    if (one_way || !conn->stream || !conn->stream->is_open()) return;
    conn->stream->send(build_frame([&](BlockStream& out) {
      out.put_u64(id);
      if (result.is_ok()) {
        out.put_u8(kOk);
        encode_value(result.value(), out);
      } else {
        out.put_u8(kError);
        out.put_u8(static_cast<std::uint8_t>(result.status().code()));
        out.put_string(result.status().message());
      }
    }));
  };
  auto it = services_.find(h.svc);
  if (it == services_.end()) {
    reply(not_found("no " + family_ + " service: " + std::string(h.svc)));
  } else {
    it->second(conn->method, conn->args, std::move(reply));
  }
  return Status::ok();
}

struct BinaryRpcClient::Conn {
  // A call awaiting its reply, with the timer, span and latency
  // bookkeeping that complete it.
  struct Pending {
    std::uint64_t id;
    std::uint64_t span_id;
    sim::SimTime start;
    sim::EventId timer;
    InvokeResultFn done;
  };
  // A request encoded while connecting. A one-way request completes
  // `sent` once handed to the stream; a call waits in `pending`.
  struct Unsent {
    BlockStream frame;
    InvokeResultFn sent;
  };

  Conn(sim::Scheduler& s, obs::Counter& e, obs::Histogram& l)
      : sched(s), errors(e), latency(l) {}

  sim::Scheduler& sched;
  obs::Counter& errors;
  obs::Histogram& latency;
  StreamPtr stream;
  FrameReader reader;
  bool connecting = false;
  std::uint64_t next_id = 1;
  std::vector<Pending> pending;  // oldest first; capacity reused
  std::vector<Unsent> unsent;

  void finish(Pending p, Result<Value> r) {
    sched.cancel(p.timer);
    latency.observe(sched.now() - p.start);
    if (!r.is_ok()) errors.inc();
    obs::Tracer::global().end_span(p.span_id, sched.now(), r.is_ok());
    p.done(std::move(r));
  }

  // Completes the pending call `id`, if it is still pending.
  void complete(std::uint64_t id, Result<Value> r) {
    auto it = std::find_if(pending.begin(), pending.end(),
                           [id](const Pending& p) { return p.id == id; });
    if (it == pending.end()) return;
    Pending p = std::move(*it);
    pending.erase(it);
    finish(std::move(p), std::move(r));
  }

  void fail_all(const Status& s) {
    auto dropped = std::move(unsent);
    unsent.clear();
    for (auto& u : dropped) {
      if (u.sent) {
        errors.inc();
        u.sent(s);
      }
    }
    auto failed = std::move(pending);
    pending.clear();
    for (auto& p : failed) finish(std::move(p), s);
  }

  Status on_reply(ByteView frame) {
    BufReader r(frame);
    auto header = read_header(r);
    if (!header.is_ok()) return header.status();
    Result<Value> result = Value();
    if (header.value().kind == kOk) {
      result = decode_value(r);
      if (!result.is_ok()) return result.status();
    } else if (header.value().kind == kError) {
      auto code = r.u8();
      auto msg = r.string();
      if (!code.is_ok() || !msg.is_ok() || code.value() == 0 ||
          code.value() > static_cast<int>(StatusCode::kResourceExhausted)) {
        return protocol_error("binary: bad error reply");
      }
      result = Status(static_cast<StatusCode>(code.value()),
                      std::move(msg).take());
    } else {
      return protocol_error("binary: request sent to client");
    }
    if (!r.at_end()) return protocol_error("binary: trailing bytes");
    complete(header.value().id, std::move(result));  // unknown ids drop
    return Status::ok();
  }
};

BinaryRpcClient::BinaryRpcClient(Network& net, NodeId node,
                                 std::string_view family,
                                 sim::Duration call_timeout)
    : net_(net),
      node_(node),
      family_(family),
      call_timeout_(call_timeout),
      calls_(obs::shard_registry().counter(family_ + ".client.calls")),
      errors_(obs::shard_registry().counter(family_ + ".client.errors")),
      rejected_(obs::shard_registry().counter(family_ + ".client.rejected")),
      latency_(
          obs::shard_registry().histogram(family_ + ".client.latency_us")) {}

BinaryRpcClient::~BinaryRpcClient() {
  for (auto& [dest, conn] : conns_) {
    if (conn->stream) conn->stream->close();
    conn->fail_all(cancelled("client destroyed"));
  }
}

std::shared_ptr<BinaryRpcClient::Conn> BinaryRpcClient::conn_for(
    Endpoint dest) {
  auto it = conns_.find(dest);
  if (it != conns_.end()) return it->second;
  auto conn = std::make_shared<Conn>(net_.scheduler(), errors_, latency_);
  conns_[dest] = conn;
  return conn;
}

void BinaryRpcClient::call(Endpoint dest, const std::string& service,
                           const std::string& method, const ValueList& args,
                           InvokeResultFn done) {
  send(dest, service, method, args, std::move(done), false);
}

void BinaryRpcClient::call_one_way(Endpoint dest, const std::string& service,
                                   const std::string& method,
                                   const ValueList& args,
                                   InvokeResultFn done) {
  send(dest, service, method, args, std::move(done), true);
}

void BinaryRpcClient::send(Endpoint dest, const std::string& service,
                           const std::string& method, const ValueList& args,
                           InvokeResultFn done, bool one_way) {
  calls_.inc();
  if (service.size() > 0xFFFF || method.size() > 0xFFFF) {
    errors_.inc();
    done(invalid_argument("binary: service or method name too long"));
    return;
  }
  auto& tracer = obs::Tracer::global();
  auto conn = conn_for(dest);
  const std::uint64_t id = conn->next_id++;
  // A call is a client span; a one-way request carries the current
  // context, so its server span still joins the caller's trace.
  std::uint64_t span_id = 0;
  if (!one_way && tracer.enabled()) {
    span_id = tracer.begin_span(family_ + ".call:" + method,
                                family_ + ".client", conn->sched.now());
  }
  BlockStream out = encode_request(
      id, service, method, args,
      one_way ? tracer.current() : tracer.context_of(span_id), one_way);
  const bool open = conn->stream && conn->stream->is_open();
  if (one_way) {
    if (open) {
      conn->stream->send(std::move(out));
      done(Value());
      return;
    }
    conn->unsent.push_back({std::move(out), std::move(done)});
  } else {
    std::weak_ptr<Conn> wconn = conn;
    const sim::EventId timer =
        conn->sched.after(call_timeout_, [wconn, id] {
          if (auto c = wconn.lock()) {
            c->complete(id, timeout("binary: call timed out"));
          }
        });
    conn->pending.push_back(
        {id, span_id, conn->sched.now(), timer, std::move(done)});
    if (open) {
      conn->stream->send(std::move(out));
      return;
    }
    conn->unsent.push_back({std::move(out), nullptr});
  }
  if (conn->connecting) return;
  conn->connecting = true;
  net_.connect(node_, dest, [conn, &rejected = rejected_](
                                Result<StreamPtr> r) {
    conn->connecting = false;
    if (!r.is_ok()) {
      conn->fail_all(r.status());
      return;
    }
    conn->stream = r.value();
    conn->reader = FrameReader{};
    // Weak captures: conn owns the stream, and the client's conns_ map
    // owns conn — a strong capture here would be a Conn<->Stream cycle
    // that outlives the client.
    std::weak_ptr<Conn> wconn = conn;
    conn->stream->set_on_close([wconn] {
      if (auto c = wconn.lock()) {
        c->fail_all(unavailable("binary peer closed"));
      }
    });
    conn->stream->set_on_data([wconn, &rejected](BlockStream&& data) {
      auto conn = wconn.lock();
      if (!conn) return;
      auto status = conn->reader.feed(
          std::move(data), [&conn](ByteView f) { return conn->on_reply(f); });
      if (status.is_ok()) return;
      rejected.inc();
      conn->stream->close();
      conn->fail_all(unavailable("binary: rejected: " + status.message()));
    });
    auto unsent = std::move(conn->unsent);
    conn->unsent.clear();
    for (auto& u : unsent) {
      conn->stream->send(std::move(u.frame));
      if (u.sent) u.sent(Value());
    }
  });
}

}  // namespace hcm::net
