#include "http/message.hpp"

#include <charconv>

#include "common/strings.hpp"
#include "common/value_codec.hpp"

namespace hcm::http {

const std::string* find_header(const Headers& headers, std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

void set_header(Headers& headers, std::string name, std::string value) {
  for (auto& [k, v] : headers) {
    if (iequals(k, name)) {
      v = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::move(name), std::move(value));
}

std::string& header_slot(Headers& headers, std::string_view name) {
  for (auto& [k, v] : headers) {
    if (iequals(k, name)) return v;
  }
  headers.emplace_back(std::string(name), std::string());
  return headers.back().second;
}

namespace {

// Serialization renders straight into the wire path's pooled
// BlockStream, with no intermediate std::string.
void append_uint(BlockStream& out, unsigned long long v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void serialize_headers(BlockStream& out, const Headers& headers,
                       std::size_t body_size) {
  bool have_length = false;
  for (const auto& [k, v] : headers) {
    out.append(k);
    out.append(": ");
    if (iequals(k, "Content-Length")) {
      have_length = true;
      append_uint(out, body_size);
    } else {
      out.append(v);
    }
    out.append("\r\n");
  }
  if (!have_length) {
    out.append("Content-Length: ");
    append_uint(out, body_size);
    out.append("\r\n");
  }
  out.append("\r\n");
}

}  // namespace

void Request::serialize_to(BlockStream& out) const {
  out.append(method);
  out.append(" ");
  out.append(target);
  out.append(" ");
  out.append(version);
  out.append("\r\n");
  serialize_headers(out, headers, body.size());
  out.append(body);
}

void Response::serialize_to(BlockStream& out) const {
  out.append(version);
  out.append(" ");
  append_uint(out, static_cast<unsigned long long>(status));
  out.append(" ");
  out.append(reason);
  out.append("\r\n");
  serialize_headers(out, headers, body.size());
  out.append(body);
}

Response Response::make(int status, std::string reason, std::string body,
                        std::string content_type) {
  Response r;
  r.status = status;
  r.reason = std::move(reason);
  r.body = std::move(body);
  r.set_header("Content-Type", std::move(content_type));
  return r;
}

Status MessageParser::feed(BlockStream&& data) {
  buf_.splice(std::move(data));
  return try_parse();
}

Status MessageParser::try_parse() {
  while (true) {
    if (!in_body_) {
      auto head_end = buf_.find("\r\n\r\n", head_scan_);
      if (head_end == BlockStream::npos) {
        if (buf_.size() > 64 * 1024) {
          return protocol_error("HTTP header section too large");
        }
        // Resume here next feed: only the last three bytes can start a
        // terminator that the next delivery completes.
        head_scan_ = buf_.size() > 3 ? buf_.size() - 3 : 0;
        return Status::ok();  // need more data
      }
      head_scan_ = 0;
      auto status = parse_head(buf_.view(0, head_end, head_scratch_));
      if (!status.is_ok()) return status;
      buf_.consume(head_end + 4);
      in_body_ = true;
    }
    // Body phase. The body is written into the current message's
    // (capacity-retaining) string, and the finished message is swapped
    // into a FIFO slot rather than moved — slots are never destroyed,
    // so at steady state the whole parse cycle reuses previously grown
    // storage instead of touching the heap.
    if (buf_.size() < body_needed_) return Status::ok();
    std::string& body = mode_ == Mode::kRequest ? cur_req_.body : cur_resp_.body;
    body.resize(body_needed_);
    if (body_needed_ > 0) {
      buf_.copy_to(body.data(), 0, body_needed_);
      buf_.consume(body_needed_);
    }
    in_body_ = false;
    if (mode_ == Mode::kRequest) {
      if (used_req_ < requests_.size()) {
        std::swap(requests_[used_req_], cur_req_);
      } else {
        requests_.push_back(std::move(cur_req_));
      }
      ++used_req_;
    } else {
      if (used_resp_ < responses_.size()) {
        std::swap(responses_[used_resp_], cur_resp_);
      } else {
        responses_.push_back(std::move(cur_resp_));
      }
      ++used_resp_;
    }
  }
}

Status MessageParser::parse_head(std::string_view head) {
  auto line_end = head.find("\r\n");
  auto first = head.substr(0, line_end);
  // Header entries are assigned into the recycled message's existing
  // pairs — at steady state the name/value strings keep their grown
  // capacity across messages, so header parsing is allocation-free.
  Headers& headers =
      mode_ == Mode::kRequest ? cur_req_.headers : cur_resp_.headers;
  std::size_t n_headers = 0;

  // Header lines.
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    auto eol = rest.find("\r\n");
    auto line = eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      return protocol_error("malformed header line");
    }
    auto name = trim(line.substr(0, colon));
    auto value = trim(line.substr(colon + 1));
    if (n_headers < headers.size()) {
      headers[n_headers].first.assign(name);
      headers[n_headers].second.assign(value);
    } else {
      headers.emplace_back(std::string(name), std::string(value));
    }
    ++n_headers;
  }
  headers.resize(n_headers);

  long long length = 0;
  if (const auto* cl = find_header(headers, "Content-Length")) {
    length = parse_uint(trim(*cl));
    if (length < 0) return protocol_error("bad Content-Length");
    if (length > kMaxMessageBytes) {
      return protocol_error("HTTP body too large");
    }
  }
  body_needed_ = static_cast<std::size_t>(length);

  if (mode_ == Mode::kRequest) {
    // "METHOD SP target SP version" — parsed in place; a method or
    // target containing a space is malformed anyway.
    auto sp1 = first.find(' ');
    auto sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : first.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos ||
        first.find(' ', sp2 + 1) != std::string_view::npos || sp1 == 0 ||
        sp2 == sp1 + 1 || sp2 + 1 == first.size()) {
      return protocol_error("malformed request line");
    }
    cur_req_.method.assign(first.substr(0, sp1));
    cur_req_.target.assign(first.substr(sp1 + 1, sp2 - sp1 - 1));
    cur_req_.version.assign(first.substr(sp2 + 1));
  } else {
    // "HTTP/1.1 200 OK" — reason may contain spaces.
    auto sp1 = first.find(' ');
    if (sp1 == std::string_view::npos) {
      return protocol_error("malformed status line");
    }
    auto sp2 = first.find(' ', sp1 + 1);
    cur_resp_.version.assign(first.substr(0, sp1));
    auto code_sv = sp2 == std::string_view::npos
                       ? first.substr(sp1 + 1)
                       : first.substr(sp1 + 1, sp2 - sp1 - 1);
    auto code = parse_uint(code_sv);
    if (code < 100 || code > 599) return protocol_error("bad status code");
    cur_resp_.status = static_cast<int>(code);
    if (sp2 == std::string_view::npos) {
      cur_resp_.reason.clear();
    } else {
      cur_resp_.reason.assign(first.substr(sp2 + 1));
    }
  }
  return Status::ok();
}

bool MessageParser::pop_request(Request& out) {
  if (next_req_ >= used_req_) return false;
  // Swap, not move: the caller's drained scratch message rotates its
  // grown string/vector capacities back into the slot for reuse.
  std::swap(out, requests_[next_req_++]);
  if (next_req_ == used_req_) {
    next_req_ = used_req_ = 0;
  }
  return true;
}

bool MessageParser::pop_response(Response& out) {
  if (next_resp_ >= used_resp_) return false;
  std::swap(out, responses_[next_resp_++]);
  if (next_resp_ == used_resp_) {
    next_resp_ = used_resp_ = 0;
  }
  return true;
}

}  // namespace hcm::http
