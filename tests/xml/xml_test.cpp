#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "xml_drain.hpp"

namespace hcm::xml {
namespace {

using xmltest::drain;

using Event = PullParser::Event;

// Positions a parser on the root's start tag.
void open_root(PullParser& p) {
  auto root = p.next();
  ASSERT_TRUE(root.is_ok()) << root.status().to_string();
  ASSERT_EQ(root.value(), Event::kStart);
}

// Asserts that only the end of input is left.
void expect_eof(PullParser& p) {
  auto ev = p.next();
  ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
  EXPECT_EQ(ev.value(), Event::kEof);
}

// The root's collected text, after which the document must end.
Result<std::string> root_text(std::string_view doc) {
  PullParser p(doc);
  auto root = p.next();
  if (!root.is_ok()) return root.status();
  std::string text;
  if (auto s = p.collect_text(text); !s.is_ok()) return s;
  auto eof = p.next();
  if (!eof.is_ok()) return eof.status();
  if (eof.value() != Event::kEof) return internal_error("not at the end");
  return text;
}

// The decoded attribute `name` of the root, or an error.
Result<std::string> root_attr(std::string_view doc, std::string_view name) {
  PullParser p(doc);
  auto root = p.next();
  if (!root.is_ok()) return root.status();
  std::string value;
  if (!p.decoded_attr(name, value)) return not_found(std::string(name));
  return value;
}

TEST(XmlBuildTest, SimpleElement) {
  std::string out;
  Writer(out).start("root").attr("id", "1").leaf("child", "hello").end();
  EXPECT_EQ(out, "<root id=\"1\"><child>hello</child></root>");
  PullParser p(out);
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  EXPECT_EQ(p.name(), "root");
  std::string id;
  ASSERT_TRUE(p.decoded_attr("id", id));
  EXPECT_EQ(id, "1");
  std::vector<std::string> kids;
  ASSERT_TRUE(p.for_each_child([&] {
                 kids.emplace_back(p.name());
                 std::string text;
                 auto s = p.collect_text(text);
                 kids.back() += "=" + text;
                 return s;
               }).is_ok());
  EXPECT_EQ(kids, std::vector<std::string>{"child=hello"});
}

TEST(XmlBuildTest, EmptyElementSelfCloses) {
  std::string out;
  Writer(out).start("empty").end();
  EXPECT_EQ(out, "<empty/>");
  PullParser p(out);
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  EXPECT_TRUE(p.attrs().empty());
  std::string text = "stale";
  ASSERT_TRUE(p.collect_text(text).is_ok());
  EXPECT_EQ(text, "");
  expect_eof(p);
}

TEST(XmlBuildTest, EscapingInTextAndAttrs) {
  std::string s;
  Writer(s).start("x").attr("a", "q\"<>&'").text("<tag> & text").end();
  EXPECT_NE(s.find("&quot;"), std::string::npos);
  EXPECT_NE(s.find("&lt;tag&gt; &amp; text"), std::string::npos);
  EXPECT_EQ(root_attr(s, "a").value(), "q\"<>&'");
  EXPECT_EQ(root_text(s).value(), "<tag> & text");
}

TEST(XmlPullTest, LocalName) {
  PullParser e("<soap:Envelope/>");
  ASSERT_NO_FATAL_FAILURE(open_root(e));
  EXPECT_EQ(e.name(), "soap:Envelope");
  EXPECT_EQ(e.local_name(), "Envelope");
  PullParser plain("<Body/>");
  ASSERT_NO_FATAL_FAILURE(open_root(plain));
  EXPECT_EQ(plain.local_name(), "Body");
}

TEST(XmlPullTest, ForEachChildVisitsDirectChildrenOnly) {
  PullParser p(
      "<list>\n  <item>1</item><ns:item>2<item>nested</item></ns:item>"
      "<other><item>3</item></other>\n</list>");
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  std::vector<std::string> seen;
  ASSERT_TRUE(p.for_each_child([&] {
                 std::string text;
                 auto s = p.collect_text(text);
                 seen.push_back(std::string(p.local_name()) + "=" + text);
                 return s;
               }).is_ok());
  // collect_text leaves the parser on the child's end tag.
  EXPECT_EQ(seen,
            (std::vector<std::string>{"item=1", "item=2", "other="}));
  expect_eof(p);
}

TEST(XmlPullTest, RoundTripSimple) {
  std::string out;
  Writer(out)
      .start("root")
      .attr("version", "1.0")
      .leaf("a", "alpha")
      .start("b")
      .attr("k", "v")
      .end()
      .end();
  EXPECT_EQ(out, "<root version=\"1.0\"><a>alpha</a><b k=\"v\"/></root>");
  PullParser p(out);
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  ASSERT_EQ(p.attrs().size(), 1u);
  EXPECT_EQ(p.attrs()[0].name, "version");
  EXPECT_EQ(p.attrs()[0].raw_value, "1.0");
  ASSERT_EQ(p.next().value(), Event::kStart);
  EXPECT_EQ(p.name(), "a");
  std::string text;
  ASSERT_TRUE(p.collect_text(text).is_ok());
  EXPECT_EQ(text, "alpha");
  ASSERT_EQ(p.next().value(), Event::kStart);
  EXPECT_EQ(p.name(), "b");
  std::string k;
  ASSERT_TRUE(p.decoded_attr("k", k));
  EXPECT_EQ(k, "v");
  ASSERT_EQ(p.next().value(), Event::kEnd);  // implied </b>
  ASSERT_EQ(p.next().value(), Event::kEnd);  // </root>
  expect_eof(p);
}

TEST(XmlPullTest, SkipsPrologDoctypeComments) {
  PullParser p(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE html>\n"
      "<!-- top comment -->\n"
      "<root><!-- inner --><a>x</a></root>");
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  EXPECT_EQ(p.name(), "root");
  ASSERT_EQ(p.next().value(), Event::kStart);  // <a>, past the comment
  std::string text;
  ASSERT_TRUE(p.collect_text(text).is_ok());
  EXPECT_EQ(text, "x");
}

TEST(XmlPullTest, CollectTextDecodesEntities) {
  EXPECT_EQ(root_text("<x>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</x>").value(),
            "<>&\"'AB");
}

TEST(XmlPullTest, CollectTextKeepsCdataVerbatim) {
  EXPECT_EQ(root_text("<x><![CDATA[<raw> & stuff]]></x>").value(),
            "<raw> & stuff");
  // CDATA content is neither entity-decoded nor treated as markup.
  EXPECT_EQ(
      root_text("<x><![CDATA[<not-a-tag> &amp; \"raw\" ]]&gt;-ish]]></x>")
          .value(),
      "<not-a-tag> &amp; \"raw\" ]]&gt;-ish");
}

TEST(XmlPullTest, WhitespaceOnlyCdataIsKept) {
  // Regular whitespace-only runs are formatting noise and dropped;
  // CDATA says "this is content" explicitly.
  EXPECT_EQ(root_text("<x><![CDATA[   ]]></x>").value(), "   ");
}

TEST(XmlPullTest, CollectTextDropsWhitespaceRunsAndSkipsChildren) {
  EXPECT_EQ(root_text("<root>\n  <a>1</a>\n  <b>2</b>\n</root>").value(), "");
  // Runs around children concatenate untrimmed; a run of spaces that
  // decodes from references is still whitespace only.
  EXPECT_EQ(root_text("<r> a <k>no</k>b &#32; <k/> c</r>").value(),
            " a b    c");
  EXPECT_EQ(root_text("<r>x<k/>&#32;&#9;</r>").value(), "x");
  EXPECT_FALSE(root_text("<r>x<k>&bad;</k></r>").is_ok());
}

TEST(XmlPullTest, SingleQuotedAttributes) {
  EXPECT_EQ(root_attr("<x a='v1' b=\"v2\"/>", "a").value(), "v1");
  EXPECT_EQ(root_attr("<x a='v1' b=\"v2\"/>", "b").value(), "v2");
}

TEST(XmlPullTest, MalformedInputs) {
  EXPECT_FALSE(drain("").is_ok());
  EXPECT_FALSE(drain("<a>").is_ok());                 // unterminated
  EXPECT_FALSE(drain("<a></b>").is_ok());             // mismatched
  EXPECT_FALSE(drain("<a><b></a></b>").is_ok());      // crossed
  EXPECT_FALSE(drain("<a x=1/>").is_ok());            // unquoted attr
  EXPECT_FALSE(drain("<a>&unknown;</a>").is_ok());    // bad entity
  EXPECT_FALSE(drain("<a/><b/>").is_ok());            // two roots
  EXPECT_FALSE(drain("just text").is_ok());
  EXPECT_TRUE(drain("<a><b>&amp;</b><!-- c --></a>\n<!-- t -->").is_ok());
}

std::string nested(int depth) {
  std::string doc;
  doc.reserve(static_cast<std::size_t>(depth) * 7 + 1);
  for (int i = 0; i < depth; ++i) doc += "<e>";
  doc += "x";
  for (int i = 0; i < depth; ++i) doc += "</e>";
  return doc;
}

TEST(XmlPullTest, NestingAtTheDepthLimitIsAccepted) {
  const std::string doc = nested(256);
  PullParser p(doc);
  int depth = 0;
  int max_depth = 0;
  while (true) {
    auto ev = p.next();
    ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
    if (ev.value() == Event::kEof) break;
    if (ev.value() == Event::kStart) {
      max_depth = std::max(max_depth, ++depth);
    } else if (ev.value() == Event::kEnd) {
      --depth;
    }
  }
  EXPECT_EQ(max_depth, 256);
  EXPECT_TRUE(drain(doc).is_ok());
  // A self-closing element at depth 256 is inside the bound as well.
  EXPECT_TRUE(drain(nested(255).insert(255 * 3, "<e/>")).is_ok());
}

TEST(XmlPullTest, NestingPastTheDepthLimitIsRejected) {
  auto r = drain(nested(257));
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("too deep"), std::string::npos);
  EXPECT_FALSE(drain(nested(256).insert(256 * 3, "<e/>")).is_ok());
}

TEST(XmlPullTest, HostileNestingIsRejectedWithoutCrashing) {
  // ~7 MB of <e> a million deep, skipped from the root: the open-name
  // stack must stop at the bound instead of growing with the input.
  const std::string doc = nested(1'000'000);
  EXPECT_FALSE(drain(doc).is_ok());
  PullParser p(doc);
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  EXPECT_FALSE(p.skip_element().is_ok());
}

TEST(XmlPullTest, SameLocalNameUnderTwoPrefixesIsTwoAttributes) {
  EXPECT_FALSE(drain("<r><a x=\"1\" y=\"\" x='1'>t</a></r>").is_ok());
  PullParser p("<a x=\"1\" p:x=\"2\"/>");
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  EXPECT_EQ(p.attrs().size(), 2u);
}

TEST(XmlPullTest, FindAttrLocal) {
  PullParser p("<x xsi:type=\"xsd:int\">4</x>");
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  ASSERT_NE(p.find_attr_local("type"), nullptr);
  EXPECT_EQ(p.find_attr_local("type")->raw_value, "xsd:int");
  EXPECT_EQ(p.find_attr("type"), nullptr);  // exact names only
}

TEST(XmlPullTest, DecodedAttrDecodesEntities) {
  const char* doc =
      "<x a=\"&lt;&amp;&gt;\" b=\"&#65;&#x42;\" c=\"say &quot;hi&apos;\" "
      "d=\"1 &amp; 2\"/>";
  EXPECT_EQ(root_attr(doc, "a").value(), "<&>");
  EXPECT_EQ(root_attr(doc, "b").value(), "AB");
  EXPECT_EQ(root_attr(doc, "c").value(), "say \"hi'");
  EXPECT_EQ(root_attr(doc, "d").value(), "1 & 2");
  PullParser p(doc);
  ASSERT_NO_FATAL_FAILURE(open_root(p));
  std::string out = "untouched";
  EXPECT_FALSE(p.decoded_attr("e", out));
  EXPECT_EQ(out, "untouched");
}

TEST(XmlPullTest, AttrEntityErrorsSurface) {
  EXPECT_FALSE(drain("<x a=\"&bogus;\"/>").is_ok());
  EXPECT_FALSE(drain("<x a=\"&#xZZ;\"/>").is_ok());
  EXPECT_FALSE(drain("<x a=\"&amp\"/>").is_ok());
  // The tokenizer rejects them itself, so a reader that skips the
  // attribute, the text run or the whole subtree still sees the error.
  PullParser p("<x a=\"&bogus;\"/>");
  EXPECT_FALSE(p.next().is_ok());
  EXPECT_FALSE(drain("<r><k><x a=\"&bogus;\"/></k></r>").is_ok());
  EXPECT_FALSE(drain("<r><k>&bogus;</k></r>").is_ok());
  EXPECT_FALSE(drain("<r>&bogus;<k/></r>").is_ok());
  EXPECT_TRUE(drain("<r><![CDATA[&bogus;]]><k/></r>").is_ok());
}

TEST(XmlPullTest, EventSequenceWithZeroCopyViews) {
  const std::string doc = "<a one=\"1\"><b>text</b><c/></a>";
  PullParser p(doc);
  std::string scratch;

  auto ev = p.next();
  ASSERT_TRUE(ev.is_ok());
  ASSERT_EQ(ev.value(), PullParser::Event::kStart);
  EXPECT_EQ(p.name(), "a");
  ASSERT_EQ(p.attrs().size(), 1u);
  EXPECT_EQ(p.attrs()[0].name, "one");
  EXPECT_EQ(p.attrs()[0].raw_value, "1");
  // Zero-copy: the name view aliases the input buffer.
  EXPECT_GE(p.name().data(), doc.data());
  EXPECT_LT(p.name().data(), doc.data() + doc.size());

  ASSERT_EQ(p.next().value(), PullParser::Event::kStart);  // <b>
  ASSERT_EQ(p.next().value(), PullParser::Event::kText);
  auto text = p.text(scratch);
  ASSERT_TRUE(text.is_ok());
  EXPECT_EQ(text.value(), "text");
  // No entities: the decoded view aliases the input, not the scratch.
  EXPECT_TRUE(scratch.empty());
  ASSERT_EQ(p.next().value(), PullParser::Event::kEnd);  // </b>
  ASSERT_EQ(p.next().value(), PullParser::Event::kStart);  // <c/>
  EXPECT_EQ(p.name(), "c");
  ASSERT_EQ(p.next().value(), PullParser::Event::kEnd);  // implied </c>
  ASSERT_EQ(p.next().value(), PullParser::Event::kEnd);  // </a>
  ASSERT_EQ(p.next().value(), PullParser::Event::kEof);
}

TEST(XmlPullTest, DecodeFastPathAndSlowPath) {
  std::string scratch;
  auto fast = PullParser::decode("plain text", scratch);
  ASSERT_TRUE(fast.is_ok());
  EXPECT_EQ(fast.value(), "plain text");
  EXPECT_TRUE(scratch.empty());

  auto slow = PullParser::decode("a &amp; b &#33;", scratch);
  ASSERT_TRUE(slow.is_ok());
  EXPECT_EQ(slow.value(), "a & b !");
  EXPECT_FALSE(scratch.empty());

  EXPECT_FALSE(PullParser::decode("&nope;", scratch).is_ok());
  EXPECT_FALSE(PullParser::decode("&unterminated", scratch).is_ok());
}

TEST(XmlPullTest, SkipElementConsumesSubtree) {
  PullParser p("<a><skip><deep><deeper/>text</deep></skip><keep/></a>");
  ASSERT_EQ(p.next().value(), PullParser::Event::kStart);  // <a>
  ASSERT_EQ(p.next().value(), PullParser::Event::kStart);  // <skip>
  ASSERT_TRUE(p.skip_element().is_ok());
  ASSERT_EQ(p.next().value(), PullParser::Event::kStart);
  EXPECT_EQ(p.name(), "keep");
}

TEST(XmlPullTest, MismatchedCloseTagReported) {
  PullParser p("<a><b></a></b>");
  ASSERT_EQ(p.next().value(), PullParser::Event::kStart);
  ASSERT_EQ(p.next().value(), PullParser::Event::kStart);
  auto ev = p.next();
  ASSERT_FALSE(ev.is_ok());
  EXPECT_NE(ev.status().message().find("mismatched close tag"),
            std::string::npos);
}

TEST(XmlPullTest, DuplicateAttributeRejected) {
  PullParser p("<a x=\"1\" x=\"2\"/>");
  auto ev = p.next();
  ASSERT_FALSE(ev.is_ok());
  EXPECT_NE(ev.status().message().find("duplicate attribute"),
            std::string::npos);
}

TEST(XmlPullTest, DuplicateAttributeRejectedPastInlineCapacity) {
  std::string doc = "<a";
  for (int i = 0; i < 12; ++i) doc += " a" + std::to_string(i) + "=\"\"";
  const std::string unique = doc + "/>";
  PullParser ok(unique);
  ASSERT_TRUE(ok.next().is_ok());
  EXPECT_EQ(ok.attrs().size(), 12u);
  const std::string repeated = doc + " a3=\"\"/>";
  PullParser dup(repeated);
  EXPECT_FALSE(dup.next().is_ok());
}

TEST(XmlWriterTest, MatchesElementRenderingByteForByte) {
  std::string out;
  Writer w(out);
  w.start("root")
      .attr("a", "va<l&ue")
      .start("empty")
      .end()
      .start("kid")
      .attr("k", "\"q\"")
      .text("text & <markup>")
      .end()
      .leaf("leaf", "")
      .end();
  EXPECT_EQ(out,
            "<root a=\"va&lt;l&amp;ue\"><empty/><kid k=\"&quot;q&quot;\">"
            "text &amp; &lt;markup&gt;</kid><leaf></leaf></root>");
}

TEST(XmlWriterTest, BufferReuseAppendsCleanly) {
  std::string out = "prefix:";
  Writer w(out);
  w.start("x").text("1").end();
  EXPECT_EQ(out, "prefix:<x>1</x>");
}

TEST(XmlWriterTest, NameInPartsClosesWithTheWholeName) {
  // The close tag repeats prefix + name + suffix, also past the
  // small-string length, and an empty element self-closes.
  std::string out;
  Writer w(out);
  const std::string method = "getTransportState";
  w.start("m:", method, "Response")
      .attr("xmlns:m", "urn:hcm:LaserdiscPlayer")
      .start("m:", method)
      .end()
      .text("x")
      .end();
  EXPECT_EQ(out,
            "<m:getTransportStateResponse "
            "xmlns:m=\"urn:hcm:LaserdiscPlayer\"><m:getTransportState/>x"
            "</m:getTransportStateResponse>");
}

// Generator model for the randomized property below: what the pull
// parser should report for a rendered tree.
struct Node {
  struct Attr {
    std::string name;
    std::string value;
  };
  std::string name;
  std::vector<Attr> attrs;
  std::string text;
  std::vector<Node> kids;
};

void render(const Node& n, Writer& w) {
  w.start(n.name);
  for (const auto& a : n.attrs) w.attr(a.name, a.value);
  if (!n.text.empty()) w.text(n.text);
  for (const auto& k : n.kids) render(k, w);
  w.end();
}

// The parser is on n's start tag; consumes through its end tag.
void expect_matches(PullParser& p, const Node& n, const std::string& path) {
  EXPECT_EQ(p.name(), n.name) << path;
  ASSERT_EQ(p.attrs().size(), n.attrs.size()) << path;
  for (std::size_t i = 0; i < n.attrs.size(); ++i) {
    EXPECT_EQ(p.attrs()[i].name, n.attrs[i].name) << path;
    std::string value;
    ASSERT_TRUE(p.decoded_attr(n.attrs[i].name, value)) << path;
    EXPECT_EQ(value, n.attrs[i].value) << path;
  }
  if (n.kids.empty()) {
    std::string text;
    ASSERT_TRUE(p.collect_text(text).is_ok()) << path;
    EXPECT_EQ(text, n.text) << path;
    return;
  }
  std::size_t i = 0;
  ASSERT_TRUE(p.for_each_child([&] {
                 if (i == n.kids.size()) return p.skip_element();
                 const Node& kid = n.kids[i++];
                 expect_matches(p, kid, path + "/" + kid.name);
                 return Status::ok();
               }).is_ok())
      << path;
  EXPECT_EQ(i, n.kids.size()) << path;
}

// Randomized property: for any tree the writer renders, the pull parser
// reports the names, decoded attributes and collected text it was
// generated from.
TEST(XmlPropertyTest, RandomizedTreesRoundTrip) {
  std::mt19937_64 rng(0xA11CE);
  const std::string alphabet =
      "abz <>&\"'\té!#;=/-_."
      "0123456789";
  auto rand_text = [&](std::size_t max_len) {
    std::uniform_int_distribution<std::size_t> len(1, max_len);
    std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
    std::string s;
    std::size_t n = len(rng);
    bool non_ws = false;
    for (std::size_t i = 0; i < n; ++i) {
      char c = alphabet[pick(rng)];
      if (c != ' ' && c != '\t') non_ws = true;
      s += c;
    }
    // Whitespace-only runs are (by design) dropped on parse; keep the
    // property crisp by avoiding them.
    if (!non_ws) s += 'z';
    return s;
  };
  std::function<void(Node&, int)> grow = [&](Node& e, int depth) {
    std::uniform_int_distribution<int> kids(0, depth >= 3 ? 0 : 3);
    std::uniform_int_distribution<int> coin(0, 1);
    if (coin(rng) != 0) {
      e.attrs.push_back({"a" + std::to_string(depth), rand_text(12)});
    }
    int n = kids(rng);
    if (n == 0) {
      if (coin(rng) != 0) e.text = rand_text(20);
      return;
    }
    for (int i = 0; i < n; ++i) {
      e.kids.push_back(Node{"c" + std::to_string(i), {}, {}, {}});
      grow(e.kids.back(), depth + 1);
    }
  };
  for (int iter = 0; iter < 50; ++iter) {
    Node tree{"root", {}, {}, {}};
    grow(tree, 0);
    std::string rendered;
    Writer w(rendered);
    render(tree, w);
    ASSERT_TRUE(drain(rendered).is_ok()) << "iter " << iter << "\n"
                                         << rendered;
    PullParser p(rendered);
    ASSERT_NO_FATAL_FAILURE(open_root(p));
    expect_matches(p, tree, "iter " + std::to_string(iter));
    expect_eof(p);
  }
}

}  // namespace
}  // namespace hcm::xml
