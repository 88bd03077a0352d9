#include "http/message.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/block_pool.hpp"
#include "common/block_stream.hpp"
#include "common/value_codec.hpp"
#include "soap/envelope.hpp"

namespace hcm::http {
namespace {

// The stack's only wire form: a message rendered into pooled blocks.
template <class Msg>
BlockStream wire_of(const Msg& msg) {
  BlockStream out;
  msg.serialize_to(out);
  return out;
}

BlockStream raw_wire(std::string_view bytes) {
  BlockStream out;
  out.append(bytes);
  return out;
}

TEST(HttpMessageTest, RequestSerializeIncludesContentLength) {
  Request req;
  req.method = "POST";
  req.target = "/soap";
  req.body = "hello";
  req.set_header("Content-Type", "text/xml");
  const std::string s = wire_of(req).to_string();
  EXPECT_NE(s.find("POST /soap HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(s.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(s.find("\r\n\r\nhello"), std::string::npos);
}

TEST(HttpMessageTest, HeaderLookupCaseInsensitive) {
  Request req;
  req.set_header("Content-Type", "text/xml");
  ASSERT_NE(req.header("content-type"), nullptr);
  EXPECT_EQ(*req.header("CONTENT-TYPE"), "text/xml");
  EXPECT_EQ(req.header("X-Missing"), nullptr);
}

TEST(HttpMessageTest, SetHeaderOverwrites) {
  Response r;
  r.set_header("X-A", "1");
  r.set_header("x-a", "2");
  EXPECT_EQ(*r.header("X-A"), "2");
  EXPECT_EQ(r.headers.size(), 1u);
}

TEST(HttpParserTest, ParseSingleRequest) {
  MessageParser p(MessageParser::Mode::kRequest);
  Request req;
  req.method = "POST";
  req.target = "/x";
  req.body = "body!";
  ASSERT_TRUE(p.feed(wire_of(req)).is_ok());
  Request got;
  ASSERT_TRUE(p.pop_request(got));
  EXPECT_EQ(got.method, "POST");
  EXPECT_EQ(got.target, "/x");
  EXPECT_EQ(got.body, "body!");
  EXPECT_FALSE(p.pop_request(got));
}

TEST(HttpParserTest, ParseResponseWithReasonPhrase) {
  MessageParser p(MessageParser::Mode::kResponse);
  Response resp = Response::make(404, "Not Found", "nope");
  ASSERT_TRUE(p.feed(wire_of(resp)).is_ok());
  Response got;
  ASSERT_TRUE(p.pop_response(got));
  EXPECT_EQ(got.status, 404);
  EXPECT_EQ(got.reason, "Not Found");
  EXPECT_EQ(got.body, "nope");
  EXPECT_FALSE(p.pop_response(got));
}

TEST(HttpParserTest, ByteAtATimeFeeding) {
  MessageParser p(MessageParser::Mode::kRequest);
  Request req;
  req.body = "chunky";
  const std::string wire = wire_of(req).to_string();
  std::vector<std::string> bodies;
  Request got;
  for (char c : wire) {
    ASSERT_TRUE(p.feed(raw_wire(std::string_view(&c, 1))).is_ok());
    while (p.pop_request(got)) bodies.push_back(got.body);
  }
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_EQ(bodies[0], "chunky");
}

TEST(HttpParserTest, PipelinedMessages) {
  MessageParser p(MessageParser::Mode::kRequest);
  Request a, b;
  a.target = "/one";
  b.target = "/two";
  b.body = "data";
  BlockStream wire = wire_of(a);
  b.serialize_to(wire);
  ASSERT_TRUE(p.feed(std::move(wire)).is_ok());
  Request got;
  ASSERT_TRUE(p.pop_request(got));
  EXPECT_EQ(got.target, "/one");
  ASSERT_TRUE(p.pop_request(got));
  EXPECT_EQ(got.target, "/two");
  EXPECT_EQ(got.body, "data");
  EXPECT_FALSE(p.pop_request(got));
}

TEST(HttpParserTest, ZeroLengthBody) {
  MessageParser p(MessageParser::Mode::kRequest);
  ASSERT_TRUE(p.feed(raw_wire("GET / HTTP/1.1\r\n\r\n")).is_ok());
  Request got;
  ASSERT_TRUE(p.pop_request(got));
  EXPECT_EQ(got.body, "");
  EXPECT_FALSE(p.pop_request(got));
}

TEST(HttpParserTest, MalformedRequestLine) {
  MessageParser p(MessageParser::Mode::kRequest);
  EXPECT_FALSE(p.feed(raw_wire("NONSENSE\r\n\r\n")).is_ok());
}

TEST(HttpParserTest, MalformedHeaderLine) {
  MessageParser p(MessageParser::Mode::kRequest);
  EXPECT_FALSE(
      p.feed(raw_wire("GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n")).is_ok());
}

TEST(HttpParserTest, BadContentLength) {
  MessageParser p(MessageParser::Mode::kRequest);
  EXPECT_FALSE(
      p.feed(raw_wire("GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"))
          .is_ok());
}

std::string head_with_length(std::uint64_t n) {
  return "POST /bulk HTTP/1.1\r\nContent-Length: " + std::to_string(n) +
         "\r\n\r\n";
}

TEST(HttpParserTest, ContentLengthAtBoundWaitsForBody) {
  MessageParser p(MessageParser::Mode::kRequest);
  ASSERT_TRUE(p.feed(raw_wire(head_with_length(kMaxMessageBytes))).is_ok());
  Request got;
  EXPECT_FALSE(p.pop_request(got));  // still waiting for the body
}

TEST(HttpParserTest, ContentLengthOverBoundRejectedAtHead) {
  for (std::uint64_t n : {std::uint64_t{kMaxMessageBytes} + 1,
                          std::uint64_t{999'999'999'999}}) {
    SCOPED_TRACE(n);
    MessageParser p(MessageParser::Mode::kRequest);
    EXPECT_EQ(p.feed(raw_wire(head_with_length(n))).code(),
              StatusCode::kProtocolError);
  }
}

TEST(HttpParserTest, BadStatusCode) {
  MessageParser p(MessageParser::Mode::kResponse);
  EXPECT_FALSE(p.feed(raw_wire("HTTP/1.1 XX OK\r\n\r\n")).is_ok());
}

TEST(HttpParserTest, OversizedHeadersRejected) {
  MessageParser p(MessageParser::Mode::kRequest);
  std::string big = "GET / HTTP/1.1\r\nX-Pad: ";
  big += std::string(100 * 1024, 'a');  // never terminates headers
  EXPECT_FALSE(p.feed(raw_wire(big)).is_ok());
}

// A head trickled in one byte per delivery: each delivery is copied
// into the tail block's spare room and the terminator search resumes
// where it stopped, so pool use stays at the head's own size and the
// parse is linear.
TEST(HttpParserTest, HeadTrickledOneBytePerSegmentStaysBounded) {
  BlockPool pool({.max_blocks = 64, .lanes = 1});
  BlockPool* const previous = bind_thread_block_pool(&pool);
  std::string head = "GET /trickle HTTP/1.1\r\n";
  std::size_t pads = 0;
  while (head.size() + 64 < 64 * 1024) {
    head += "X-Pad-" + std::to_string(pads++) + ": " + std::string(40, 'p') +
            "\r\n";
  }
  head += "X-Last: " + std::string(64 * 1024 - head.size() - 12, 'l') +
          "\r\n\r\n";
  ASSERT_EQ(head.size(), 64u * 1024);
  {
    MessageParser p(MessageParser::Mode::kRequest);
    for (char c : head) {
      ASSERT_TRUE(p.feed(raw_wire(std::string_view(&c, 1))).is_ok());
    }
    Request got;
    ASSERT_TRUE(p.pop_request(got));
    EXPECT_EQ(got.target, "/trickle");
    EXPECT_EQ(got.headers.size(), pads + 1);
  }
  {  // One byte past the head bound without a terminator is rejected.
    MessageParser p(MessageParser::Mode::kRequest);
    const std::string endless = head.substr(0, head.size() - 4) + "xxxxx";
    std::size_t fed = 0;
    for (char c : endless) {
      ++fed;
      if (!p.feed(raw_wire(std::string_view(&c, 1))).is_ok()) break;
    }
    EXPECT_EQ(fed, 64u * 1024 + 1);
  }
  EXPECT_LE(pool.stats().high_water, 6u);  // 64 KB in 16 KB blocks
  EXPECT_EQ(pool.stats().heap_fallbacks, 0u);
  bind_thread_block_pool(previous);
}

TEST(HttpParserTest, HeaderWhitespaceTrimmed) {
  MessageParser p(MessageParser::Mode::kRequest);
  ASSERT_TRUE(
      p.feed(raw_wire("GET / HTTP/1.1\r\nX-K:   padded value  \r\n\r\n"))
          .is_ok());
  Request got;
  ASSERT_TRUE(p.pop_request(got));
  EXPECT_EQ(*got.header("X-K"), "padded value");
}

TEST(HttpParserTest, LargeBodySpansBlockSeams) {
  // A body several times the pool block size: the serialized frame and
  // the parser's reassembly stream both chain multiple 16 KB blocks,
  // so head scanning, body extraction and consume all cross seams.
  Request req;
  req.method = "POST";
  req.target = "/bulk";
  req.set_header("Content-Type", "application/octet-stream");
  while (req.body.size() < 3 * BlockPool::kBlockCapacity + 123) {
    req.body += "0123456789abcdef";
  }
  BlockStream wire;
  req.serialize_to(wire);
  ASSERT_GT(wire.size(), 3 * BlockPool::kBlockCapacity);

  MessageParser p(MessageParser::Mode::kRequest);
  ASSERT_TRUE(p.feed(std::move(wire)).is_ok());
  Request got;
  ASSERT_TRUE(p.pop_request(got));
  EXPECT_EQ(got.target, "/bulk");
  EXPECT_EQ(got.body, req.body);
  EXPECT_FALSE(p.pop_request(got));
}

TEST(HttpParserTest, SoapEnvelopeSplitAcrossDeliveries) {
  // A SOAP POST arriving in arbitrary stream chunks must reassemble to
  // the exact envelope, and the body must decode as SOAP afterwards.
  const std::string envelope = soap::build_call(
      "urn:hcm:Calc", "add",
      {{"a", Value(std::int64_t{20})}, {"b", Value(std::int64_t{22})}});
  Request req;
  req.method = "POST";
  req.target = "/vsg/calc";
  req.body = envelope;
  req.set_header("Content-Type", "text/xml");
  const std::string wire = wire_of(req).to_string();

  for (std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, wire.size()}) {
    MessageParser parser(MessageParser::Mode::kRequest);
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      ASSERT_TRUE(
          parser.feed(raw_wire(std::string_view(wire).substr(off, chunk)))
              .is_ok());
    }
    Request got;
    ASSERT_TRUE(parser.pop_request(got)) << "chunk size " << chunk;
    EXPECT_FALSE(parser.pop_request(got));
    EXPECT_EQ(got.body, envelope);
    auto env = soap::parse_envelope(got.body);
    ASSERT_TRUE(env.is_ok()) << env.status().to_string();
    EXPECT_EQ(env.value().method, "add");
    ASSERT_EQ(env.value().params.size(), 2u);
    EXPECT_EQ(env.value().params[1].second, Value(std::int64_t{22}));
  }
}

}  // namespace
}  // namespace hcm::http
