// Compact binary RPC channel: the alternative VSG wire protocol for the
// §3.1 ablation ("a simple protocol is enough to integrate simple
// services ... which protocol depends on the purpose"). Length-framed
// binary messages over a stream instead of SOAP/XML over HTTP.
//
// Frame layout, integers big-endian:
//
//   u32 length      bytes that follow (at most FrameReader::kMaxFrame)
//   u64 id          call id; a reply echoes its request's
//   u8  kind        1 request, 2 ok reply, 3 error reply; a request
//                   ORs in 0x80 when trace ids follow
//   request only:   u16 length + service name, u16 length + method
//   with 0x80:      u64 trace_id, u64 span_id of the caller's span
//   body            request:  encode_value(args), a list value
//                   ok:       encode_value(result)
//                   error:    u8 StatusCode, u32 length + message
//
// A message is encoded straight into one pooled BlockStream (the length
// is a placeholder patched once the body is written) and sent as one
// stream message. Frames are decoded from common::FrameReader views. A
// frame that does not decode exactly — truncated, an unknown kind,
// trailing bytes, an oversized length — closes the connection and
// counts in binary.{server,client}.rejected; the client then fails its
// pending calls with kUnavailable.
#pragma once

#include <map>
#include <memory>

#include "common/frame_reader.hpp"
#include "common/service.hpp"
#include "common/value_codec.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/slab.hpp"
#include "obs/trace.hpp"

namespace hcm::core {

// One request frame exactly as BinaryRpcClient sends it. Service and
// method names must fit their u16 length fields.
[[nodiscard]] BlockStream encode_request(std::uint64_t id,
                                         std::string_view service,
                                         std::string_view method,
                                         const ValueList& args,
                                         const obs::TraceContext& trace = {});

// Serves named services over the binary protocol.
class BinaryRpcServer {
 public:
  BinaryRpcServer(net::Network& net, net::NodeId node, std::uint16_t port);
  ~BinaryRpcServer();
  BinaryRpcServer(const BinaryRpcServer&) = delete;
  BinaryRpcServer& operator=(const BinaryRpcServer&) = delete;

  [[nodiscard]] Status start();
  void stop();

  void register_service(const std::string& name, ServiceHandler handler);
  void unregister_service(const std::string& name);

  [[nodiscard]] net::Endpoint endpoint() const { return {node_, port_}; }
  [[nodiscard]] std::uint64_t calls_served() const {
    return calls_served_.value();
  }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_.value(); }

 private:
  struct Conn;
  void on_accept(net::StreamPtr stream);
  [[nodiscard]] Status serve(const std::shared_ptr<Conn>& conn,
                             ByteView frame);

  net::Network& net_;
  net::NodeId node_;
  std::uint16_t port_;
  bool listening_ = false;
  // Live connections, detached on stop() (their callbacks capture this).
  std::vector<std::weak_ptr<Conn>> connections_;
  std::map<std::string, ServiceHandler, std::less<>> services_;
  std::string obs_scope_;
  obs::Counter& calls_served_;
  obs::Counter& rejected_;
  obs::Histogram& dispatch_latency_us_;
};

// Client: one lazy connection per destination endpoint.
class BinaryRpcClient {
 public:
  BinaryRpcClient(net::Network& net, net::NodeId node)
      : net_(net), node_(node) {}
  ~BinaryRpcClient();
  BinaryRpcClient(const BinaryRpcClient&) = delete;
  BinaryRpcClient& operator=(const BinaryRpcClient&) = delete;

  void call(net::Endpoint dest, const std::string& service,
            const std::string& method, const ValueList& args,
            InvokeResultFn done);

 private:
  struct Conn;
  std::shared_ptr<Conn> conn_for(net::Endpoint dest);

  net::Network& net_;
  net::NodeId node_;
  std::map<net::Endpoint, std::shared_ptr<Conn>> conns_;
  // Registry handles bound per instance (clients are per-island, so no
  // shard ever reaches another island's client); the metrics are still
  // the shared global names and the counters themselves are atomic.
  obs::Counter& calls_ = obs::shard_registry().counter("binary.client.calls");
  obs::Counter& errors_ =
      obs::shard_registry().counter("binary.client.errors");
  obs::Counter& rejected_ =
      obs::shard_registry().counter("binary.client.rejected");
  obs::Histogram& latency_ =
      obs::shard_registry().histogram("binary.client.latency_us");
};

}  // namespace hcm::core
