// Compact binary RPC channel: the one framed RPC in the tree. Two
// families ride it, named at construction:
//   - "binary": the alternative VSG wire protocol for the §3.1 ablation
//     ("a simple protocol is enough to integrate simple services ...
//     which protocol depends on the purpose") — length-framed binary
//     messages over a stream instead of SOAP/XML over HTTP;
//   - "jini": the Jini island's call protocol (lookup, leases, remote
//     calls and remote events), the stand-in for Java RMI's JRMP.
// The family names the metrics (<family>.client.*, the unique
// <family>.server scope) and the span labels; the wire is the same.
//
// Frame layout, integers big-endian:
//
//   u32 length      bytes that follow (at most kMaxMessageBytes)
//   u64 id          call id; a reply echoes its request's
//   u8  kind        1 request, 2 ok reply, 3 error reply, 4 one-way
//                   request (no reply is sent); a request of either
//                   kind ORs in 0x80 when trace ids follow
//   requests only:  u16 length + service name, u16 length + method
//   with 0x80:      u64 trace_id, u64 span_id of the caller's span
//   body            request:  encode_value(args), a list value
//                   ok:       encode_value(result)
//                   error:    u8 StatusCode, u32 length + message
//
// A message is encoded straight into one pooled BlockStream (the length
// is a placeholder patched once the body is written) and sent as one
// stream message. Frames are decoded from common::FrameReader views. A
// frame that does not decode exactly — truncated, an unknown kind,
// trailing bytes, an oversized length, an error reply whose code is
// kOk — closes the connection and counts in <family>.{server,client}
// .rejected; the client then fails its pending calls with kUnavailable.
//
// The client times every call out after the timeout it was built with
// (the VSG passes its HTTP request timeout, jini its kCallTimeout). A
// reply or a failed connection cancels the timer; a reply that arrives
// after the timeout is dropped like any reply to an unknown id.
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

namespace hcm::net {

// One request frame exactly as BinaryRpcClient sends it. Service and
// method names must fit their u16 length fields.
[[nodiscard]] BlockStream encode_request(std::uint64_t id,
                                         std::string_view service,
                                         std::string_view method,
                                         const ValueList& args,
                                         const obs::TraceContext& trace = {},
                                         bool one_way = false);

// Serves named services over the binary protocol.
class BinaryRpcServer {
 public:
  BinaryRpcServer(Network& net, NodeId node, std::uint16_t port,
                  std::string_view family);
  ~BinaryRpcServer();
  BinaryRpcServer(const BinaryRpcServer&) = delete;
  BinaryRpcServer& operator=(const BinaryRpcServer&) = delete;

  [[nodiscard]] Status start();
  void stop();

  void register_service(const std::string& name, ServiceHandler handler);
  void unregister_service(const std::string& name);

  [[nodiscard]] Endpoint endpoint() const { return {node_, port_}; }
  [[nodiscard]] std::uint64_t calls_served() const {
    return calls_served_.value();
  }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_.value(); }

 private:
  struct Conn;
  void on_accept(StreamPtr stream);
  [[nodiscard]] Status serve(const std::shared_ptr<Conn>& conn,
                             ByteView frame);

  Network& net_;
  NodeId node_;
  std::uint16_t port_;
  bool listening_ = false;
  // Live connections, detached on stop() (their callbacks capture this).
  std::vector<std::weak_ptr<Conn>> connections_;
  std::map<std::string, ServiceHandler, std::less<>> services_;
  std::string family_;
  std::string obs_scope_;
  obs::Counter& calls_served_;
  obs::Counter& rejected_;
  obs::Histogram& dispatch_latency_us_;
};

// Client: one lazy connection per destination endpoint.
class BinaryRpcClient {
 public:
  BinaryRpcClient(Network& net, NodeId node, std::string_view family,
                  sim::Duration call_timeout);
  ~BinaryRpcClient();
  BinaryRpcClient(const BinaryRpcClient&) = delete;
  BinaryRpcClient& operator=(const BinaryRpcClient&) = delete;

  void call(Endpoint dest, const std::string& service,
            const std::string& method, const ValueList& args,
            InvokeResultFn done);
  // Sends a one-way request: `done` gets Value() once the frame is
  // handed to the stream, or the error if connecting fails.
  void call_one_way(Endpoint dest, const std::string& service,
                    const std::string& method, const ValueList& args,
                    InvokeResultFn done);

 private:
  struct Conn;
  std::shared_ptr<Conn> conn_for(Endpoint dest);
  void send(Endpoint dest, const std::string& service,
            const std::string& method, const ValueList& args,
            InvokeResultFn done, bool one_way);

  Network& net_;
  NodeId node_;
  std::string family_;
  sim::Duration call_timeout_;
  std::map<Endpoint, std::shared_ptr<Conn>> conns_;
  // Registry handles bound per instance (clients are per-island, so no
  // shard ever reaches another island's client); the metrics are still
  // the shared global names and the counters themselves are atomic.
  obs::Counter& calls_;
  obs::Counter& errors_;
  obs::Counter& rejected_;
  obs::Histogram& latency_;
};

}  // namespace hcm::net
