// Raw-stream peers for driving the mail protocols byte by byte: a
// scripted server that stands in for MailServer, and a scripted client
// that stands in for MailClient. Both record every delivery with its
// virtual arrival time, so a test can pin the exact wire bytes and the
// send() boundaries of the real side.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace hcm::mail::mailtest {

struct Delivery {
  sim::SimTime at = 0;
  std::string bytes;
  bool operator==(const Delivery&) const = default;
};

inline void PrintTo(const Delivery& d, std::ostream* os) {
  *os << "{" << d.at << ", " << ::testing::PrintToString(d.bytes) << "}";
}

inline void send_text(net::Stream& s, std::string_view text) {
  BlockStream out;
  out.append(text);
  s.send(std::move(out));
}

// Listens on `port`; on accept sends `greeting`, then answers the n-th
// delivery it receives with replies[n], each string its own send. A
// delivery past the script gets no answer.
class ScriptedServer {
 public:
  ScriptedServer(net::Network& net, net::Node& node, std::uint16_t port,
                 std::string greeting,
                 std::vector<std::vector<std::string>> replies)
      : net_(net),
        greeting_(std::move(greeting)),
        replies_(std::move(replies)) {
    (void)node.listen(port, [this](net::StreamPtr s) {
      stream = s;
      s->set_on_data([this](BlockStream&& d) {
        received.push_back({net_.scheduler().now(), d.to_string()});
        const std::size_t n = received.size() - 1;
        if (n >= replies_.size() || !stream) return;
        for (const auto& r : replies_[n]) send_text(*stream, r);
      });
      s->set_on_close([this] { closed = true; });
      if (!greeting_.empty()) send_text(*s, greeting_);
      if (hang_up_after_greeting) s->close();
    });
  }

  std::vector<Delivery> received;
  net::StreamPtr stream;
  bool closed = false;
  bool hang_up_after_greeting = false;

 private:
  net::Network& net_;
  std::string greeting_;
  std::vector<std::vector<std::string>> replies_;
};

// Connects to `to`; after its n-th delivery (counting from 1) sends
// after[n], if present. after[0] is sent as soon as the connection is up.
class ScriptedClient {
 public:
  ScriptedClient(net::Network& net, net::NodeId from, net::Endpoint to,
                 std::map<std::size_t, std::string> after)
      : net_(net), after_(std::move(after)) {
    net.connect(from, to, [this](Result<net::StreamPtr> r) {
      if (!r.is_ok()) return;
      stream = r.value();
      stream->set_on_data([this](BlockStream&& d) {
        received.push_back({net_.scheduler().now(), d.to_string()});
        send_step(received.size());
      });
      stream->set_on_close([this] { closed = true; });
      send_step(0);
    });
  }

  // One more send, outside the script.
  void send(std::string_view text) {
    if (stream) send_text(*stream, text);
  }

  [[nodiscard]] std::string text() const {
    std::string all;
    for (const auto& d : received) all += d.bytes;
    return all;
  }

  std::vector<Delivery> received;
  net::StreamPtr stream;
  bool closed = false;

 private:
  void send_step(std::size_t n) {
    auto it = after_.find(n);
    if (it != after_.end() && stream) send_text(*stream, it->second);
  }

  net::Network& net_;
  std::map<std::size_t, std::string> after_;
};

}  // namespace hcm::mail::mailtest
