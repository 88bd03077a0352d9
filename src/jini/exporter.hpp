// Exporter: serves remote calls for local Jini service objects — the
// analogue of exporting a java.rmi.Remote. One exporter per node can
// host many service objects, dispatched by service id.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/frame_reader.hpp"
#include "common/service.hpp"
#include "jini/protocol.hpp"
#include "net/network.hpp"

namespace hcm::jini {

class Exporter {
 public:
  Exporter(net::Network& net, net::NodeId node, std::uint16_t port);
  ~Exporter();
  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  Status start();
  void stop();

  // Registers a service object under an id; remote calls to that id are
  // dispatched to `handler`.
  void export_object(const std::string& service_id, ServiceHandler handler);
  void unexport_object(const std::string& service_id);
  [[nodiscard]] bool has_object(const std::string& service_id) const {
    return objects_.count(service_id) != 0;
  }

  [[nodiscard]] net::Endpoint endpoint() const { return {node_, port_}; }
  [[nodiscard]] std::uint64_t calls_served() const { return calls_served_; }

 private:
  struct Conn {
    net::StreamPtr stream;
    FrameReader reader;
  };

  void on_accept(net::StreamPtr stream);
  [[nodiscard]] Status handle_frame(ByteView payload,
                                    const std::shared_ptr<Conn>& conn);

  net::Network& net_;
  net::NodeId node_;
  std::uint16_t port_;
  bool listening_ = false;
  // Live connections, detached on stop() (their callbacks capture this).
  std::vector<std::weak_ptr<Conn>> connections_;
  std::map<std::string, ServiceHandler> objects_;
  std::uint64_t calls_served_ = 0;
};

}  // namespace hcm::jini
