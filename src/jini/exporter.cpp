#include "jini/exporter.hpp"

#include "common/logging.hpp"

namespace hcm::jini {

Exporter::Exporter(net::Network& net, net::NodeId node, std::uint16_t port)
    : net_(net), node_(node), port_(port) {}

Exporter::~Exporter() { stop(); }

Status Exporter::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("exporter: no such node");
  auto status =
      n->listen(port_, [this](net::StreamPtr stream) { on_accept(stream); });
  if (!status.is_ok()) return status;
  listening_ = true;
  return Status::ok();
}

void Exporter::stop() {
  if (!listening_) return;
  if (net::Node* n = net_.node(node_)) n->stop_listening(port_);
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

void Exporter::export_object(const std::string& service_id,
                             ServiceHandler handler) {
  objects_[service_id] = std::move(handler);
}

void Exporter::unexport_object(const std::string& service_id) {
  objects_.erase(service_id);
}

void Exporter::on_accept(net::StreamPtr stream) {
  auto conn = std::make_shared<Conn>();
  conn->stream = stream;
  std::erase_if(connections_,
                [](const std::weak_ptr<Conn>& w) { return w.expired(); });
  connections_.push_back(conn);
  stream->set_on_close([conn] { conn->stream = nullptr; });
  stream->set_on_data([this, conn](BlockStream&& data) {
    auto status = conn->reader.feed(
        std::move(data), [&](ByteView f) { return handle_frame(f, conn); });
    if (!status.is_ok()) {
      log_warn("jini", "bad frame, closing: ", status.to_string());
      if (conn->stream) conn->stream->close();
    }
  });
}

Status Exporter::handle_frame(ByteView payload,
                              const std::shared_ptr<Conn>& conn) {
  auto call = decode_call(payload);
  if (!call.is_ok()) return call.status();
  ++calls_served_;
  const CallMessage& msg = call.value();
  auto reply_with = [conn, call_id = msg.call_id,
                     one_way = msg.one_way](Result<Value> result) {
    if (one_way) return;  // fire-and-forget
    if (!conn->stream || !conn->stream->is_open()) return;
    ReplyMessage reply;
    reply.call_id = call_id;
    if (result.is_ok()) {
      reply.value = std::move(result).take();
    } else {
      reply.status = result.status();
    }
    conn->stream->send(frame(encode_reply(reply)));
  };

  auto it = objects_.find(msg.service_id);
  if (it == objects_.end()) {
    reply_with(not_found("no exported object: " + msg.service_id));
    return Status::ok();
  }
  it->second(msg.method, msg.args, reply_with);
  return Status::ok();
}

}  // namespace hcm::jini
