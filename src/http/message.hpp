// HTTP/1.1 message model and incremental parser. SOAP (the VSG wire
// protocol), the UDDI-like registry and UPnP descriptions all ride on
// this.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/block_stream.hpp"
#include "common/status.hpp"

namespace hcm::http {

using Headers = std::vector<std::pair<std::string, std::string>>;

// Case-insensitive header lookup; returns nullptr if absent.
[[nodiscard]] const std::string* find_header(const Headers& headers,
                                             std::string_view name);
void set_header(Headers& headers, std::string name, std::string value);
// Value slot for `name`, appended if absent: hot callers clear/assign
// into the returned string so a recycled header entry's capacity is
// reused instead of building a temporary value.
[[nodiscard]] std::string& header_slot(Headers& headers,
                                       std::string_view name);

struct Request {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  [[nodiscard]] const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }
  void set_header(std::string name, std::string value) {
    http::set_header(headers, std::move(name), std::move(value));
  }
  // Appends the message, with a correct Content-Length, to pooled
  // blocks.
  void serialize_to(BlockStream& out) const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  [[nodiscard]] const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }
  void set_header(std::string name, std::string value) {
    http::set_header(headers, std::move(name), std::move(value));
  }
  void serialize_to(BlockStream& out) const;

  static Response make(int status, std::string reason, std::string body,
                       std::string content_type = "text/plain");
};

// Incremental parser for a byte stream carrying back-to-back messages.
// Feed bytes; complete messages pop out via the callbacks.
//
// Accumulation lives in a BlockStream, so a delivered payload splices
// in without copying and steady-state parsing does no buffer
// grow/shrink heap traffic; heads are scanned in place (the scratch
// string only backs a head that straddles a block seam).
class MessageParser {
 public:
  enum class Mode { kRequest, kResponse };
  explicit MessageParser(Mode mode) : mode_(mode) {}

  // Splices the delivered blocks into accumulation without copying.
  // Returns a protocol error on malformed input, including a head whose
  // Content-Length exceeds kMaxMessageBytes (rejected before any body
  // byte is buffered); the connection should then be dropped.
  Status feed(BlockStream&& data);

  // Allocation-free draining, in arrival order: moves the oldest
  // completed message into `out`, false when none is pending.
  [[nodiscard]] bool pop_request(Request& out);
  [[nodiscard]] bool pop_response(Response& out);

 private:
  Status try_parse();
  Status parse_head(std::string_view head);

  Mode mode_;
  BlockStream buf_;
  std::size_t head_scan_ = 0;  // where the head-terminator search resumes
  std::string head_scratch_;  // backs heads spanning a block seam
  // Parsing state: when a head has been parsed we know the body length.
  bool in_body_ = false;
  std::size_t body_needed_ = 0;
  Request cur_req_;
  Response cur_resp_;
  // FIFO of completed messages, kept as a ring of reusable slots:
  // [next_, used_) are pending, slots past used_ hold drained messages
  // whose storage the next completion swaps back into service. Slots
  // are never destroyed, so consumers run allocation-free at steady
  // state.
  std::vector<Request> requests_;
  std::vector<Response> responses_;
  std::size_t next_req_ = 0;
  std::size_t next_resp_ = 0;
  std::size_t used_req_ = 0;
  std::size_t used_resp_ = 0;
};

}  // namespace hcm::http
