#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>

namespace hcm::xml {
namespace {

TEST(XmlBuildTest, SimpleElement) {
  std::string out;
  Writer(out).start("root").attr("id", "1").leaf("child", "hello").end();
  EXPECT_EQ(out, "<root id=\"1\"><child>hello</child></root>");
  auto r = parse(out);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value()->name(), "root");
  ASSERT_NE(r.value()->attr("id"), nullptr);
  EXPECT_EQ(*r.value()->attr("id"), "1");
  ASSERT_EQ(r.value()->children().size(), 1u);
  EXPECT_EQ(r.value()->child("child")->text(), "hello");
}

TEST(XmlBuildTest, EmptyElementSelfCloses) {
  std::string out;
  Writer(out).start("empty").end();
  EXPECT_EQ(out, "<empty/>");
  auto r = parse(out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value()->children().empty());
  EXPECT_TRUE(r.value()->attrs().empty());
  EXPECT_EQ(r.value()->text(), "");
}

TEST(XmlBuildTest, EscapingInTextAndAttrs) {
  std::string s;
  Writer(s).start("x").attr("a", "q\"<>&'").text("<tag> & text").end();
  EXPECT_NE(s.find("&quot;"), std::string::npos);
  EXPECT_NE(s.find("&lt;tag&gt; &amp; text"), std::string::npos);
  auto r = parse(s);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(*r.value()->attr("a"), "q\"<>&'");
  EXPECT_EQ(r.value()->text(), "<tag> & text");
}

TEST(XmlBuildTest, LocalName) {
  auto e = parse("<soap:Envelope/>");
  ASSERT_TRUE(e.is_ok());
  EXPECT_EQ(e.value()->name(), "soap:Envelope");
  EXPECT_EQ(e.value()->local_name(), "Envelope");
  auto plain = parse("<Body/>");
  ASSERT_TRUE(plain.is_ok());
  EXPECT_EQ(plain.value()->local_name(), "Body");
}

TEST(XmlBuildTest, ChildLookupIsPrefixInsensitive) {
  auto e = parse("<root><ns:Inner>v</ns:Inner></root>");
  ASSERT_TRUE(e.is_ok());
  ASSERT_NE(e.value()->child("Inner"), nullptr);
  EXPECT_EQ(e.value()->child("Inner")->text(), "v");
  EXPECT_EQ(e.value()->child("Absent"), nullptr);
}

TEST(XmlBuildTest, ChildrenNamed) {
  auto e = parse("<list><item>1</item><item>2</item><other/></list>");
  ASSERT_TRUE(e.is_ok());
  const auto items = e.value()->children_named("item");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0]->text(), "1");
  EXPECT_EQ(items[1]->text(), "2");
}

TEST(XmlParseTest, RoundTripSimple) {
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
  auto parsed = parse(out);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Element& root = *parsed.value();
  EXPECT_EQ(root.name(), "root");
  ASSERT_EQ(root.attrs().size(), 1u);
  EXPECT_EQ(root.attrs()[0].name, "version");
  EXPECT_EQ(root.attrs()[0].value, "1.0");
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.children()[0]->name(), "a");
  EXPECT_EQ(root.children()[0]->text(), "alpha");
  EXPECT_EQ(root.children()[1]->name(), "b");
  EXPECT_EQ(*root.children()[1]->attr("k"), "v");
  EXPECT_TRUE(root.children()[1]->children().empty());
}

TEST(XmlParseTest, SkipsPrologDoctypeComments) {
  auto r = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE html>\n"
      "<!-- top comment -->\n"
      "<root><!-- inner --><a>x</a></root>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value()->child("a")->text(), "x");
}

TEST(XmlParseTest, DecodesEntities) {
  auto r = parse("<x>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</x>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value()->text(), "<>&\"'AB");
}

TEST(XmlParseTest, EntityInAttribute) {
  auto r = parse("<x a=\"1 &amp; 2\"/>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value()->attr("a"), "1 & 2");
}

TEST(XmlParseTest, Cdata) {
  auto r = parse("<x><![CDATA[<raw> & stuff]]></x>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value()->text(), "<raw> & stuff");
}

TEST(XmlParseTest, WhitespaceBetweenElementsIgnored) {
  auto r = parse("<root>\n  <a>1</a>\n  <b>2</b>\n</root>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value()->children().size(), 2u);
  EXPECT_EQ(r.value()->text(), "");
}

TEST(XmlParseTest, SingleQuotedAttributes) {
  auto r = parse("<x a='v1' b=\"v2\"/>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value()->attr("a"), "v1");
  EXPECT_EQ(*r.value()->attr("b"), "v2");
}

TEST(XmlParseTest, MalformedInputs) {
  EXPECT_FALSE(parse("").is_ok());
  EXPECT_FALSE(parse("<a>").is_ok());                 // unterminated
  EXPECT_FALSE(parse("<a></b>").is_ok());             // mismatched
  EXPECT_FALSE(parse("<a><b></a></b>").is_ok());      // crossed
  EXPECT_FALSE(parse("<a x=1/>").is_ok());            // unquoted attr
  EXPECT_FALSE(parse("<a>&unknown;</a>").is_ok());    // bad entity
  EXPECT_FALSE(parse("<a/><b/>").is_ok());            // two roots
  EXPECT_FALSE(parse("just text").is_ok());
}

TEST(XmlParseTest, DeepNesting) {
  std::string open, close;
  for (int i = 0; i < 200; ++i) {
    open += "<e>";
    close = "</e>" + close;
  }
  auto r = parse(open + "x" + close);
  ASSERT_TRUE(r.is_ok());
  const Element* cur = r.value().get();
  int depth = 1;
  while (cur->child("e") != nullptr) {
    cur = cur->child("e");
    ++depth;
  }
  EXPECT_EQ(depth, 200);
  EXPECT_EQ(cur->text(), "x");
}

std::string nested(int depth) {
  std::string doc;
  doc.reserve(static_cast<std::size_t>(depth) * 7 + 1);
  for (int i = 0; i < depth; ++i) doc += "<e>";
  doc += "x";
  for (int i = 0; i < depth; ++i) doc += "</e>";
  return doc;
}

TEST(XmlParseTest, NestingAtTheDepthLimitIsAccepted) {
  auto r = parse(nested(256));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Element* cur = r.value().get();
  int depth = 1;
  while (cur->child("e") != nullptr) {
    cur = cur->child("e");
    ++depth;
  }
  EXPECT_EQ(depth, 256);
  EXPECT_EQ(cur->text(), "x");
}

TEST(XmlParseTest, NestingPastTheDepthLimitIsRejected) {
  auto r = parse(nested(257));
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("too deep"), std::string::npos);
}

TEST(XmlParseTest, HostileNestingIsRejectedWithoutCrashing) {
  // ~7 MB of <e> a million deep: the tree must never get this deep, or
  // destroying it would recurse a million frames.
  EXPECT_FALSE(parse(nested(1'000'000)).is_ok());
}

TEST(XmlParseTest, DuplicateAttributeRejected) {
  auto r = parse("<a x=\"1\" x=\"2\"/>");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("duplicate attribute"),
            std::string::npos);
  EXPECT_FALSE(parse("<r><a x=\"1\" y=\"\" x='1'>t</a></r>").is_ok());
  // Same local name under different prefixes is two attributes.
  auto distinct = parse("<a x=\"1\" p:x=\"2\"/>");
  ASSERT_TRUE(distinct.is_ok());
  EXPECT_EQ(distinct.value()->attrs().size(), 2u);
}

TEST(XmlParseTest, AttrLocal) {
  auto r = parse("<x xsi:type=\"xsd:int\">4</x>");
  ASSERT_TRUE(r.is_ok());
  ASSERT_NE(r.value()->attr_local("type"), nullptr);
  EXPECT_EQ(*r.value()->attr_local("type"), "xsd:int");
}

TEST(XmlParseTest, CdataPreservesMarkupAndEntitiesVerbatim) {
  auto r = parse("<x><![CDATA[<not-a-tag> &amp; \"raw\" ]]&gt;-ish]]></x>");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // CDATA content is neither entity-decoded nor treated as markup.
  EXPECT_EQ(r.value()->text(), "<not-a-tag> &amp; \"raw\" ]]&gt;-ish");
}

TEST(XmlParseTest, WhitespaceOnlyCdataIsKept) {
  // Regular whitespace-only runs are formatting noise and dropped;
  // CDATA says "this is content" explicitly.
  auto r = parse("<x><![CDATA[   ]]></x>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value()->text(), "   ");
}

TEST(XmlParseTest, NumericAndNamedEntitiesInAttributeValues) {
  auto r = parse(
      "<x a=\"&lt;&amp;&gt;\" b=\"&#65;&#x42;\" c=\"say &quot;hi&apos;\"/>");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(*r.value()->attr("a"), "<&>");
  EXPECT_EQ(*r.value()->attr("b"), "AB");
  EXPECT_EQ(*r.value()->attr("c"), "say \"hi'");
}

TEST(XmlParseTest, AttrEntityErrorsSurface) {
  EXPECT_FALSE(parse("<x a=\"&bogus;\"/>").is_ok());
  EXPECT_FALSE(parse("<x a=\"&#xZZ;\"/>").is_ok());
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

// Generator model for the randomized property below: what a tree
// should look like after a render/parse round trip.
struct Node {
  std::string name;
  std::vector<Attribute> attrs;
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

void expect_matches(const Element& e, const Node& n, const std::string& path) {
  EXPECT_EQ(e.name(), n.name) << path;
  ASSERT_EQ(e.attrs().size(), n.attrs.size()) << path;
  for (std::size_t i = 0; i < n.attrs.size(); ++i) {
    EXPECT_EQ(e.attrs()[i].name, n.attrs[i].name) << path;
    EXPECT_EQ(e.attrs()[i].value, n.attrs[i].value) << path;
  }
  EXPECT_EQ(e.text(), n.text) << path;
  ASSERT_EQ(e.children().size(), n.kids.size()) << path;
  for (std::size_t i = 0; i < n.kids.size(); ++i) {
    expect_matches(*e.children()[i], n.kids[i], path + "/" + n.kids[i].name);
  }
}

// Randomized property: any tree the writer renders parses back to the
// tree it was generated from.
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
    auto parsed = parse(rendered);
    ASSERT_TRUE(parsed.is_ok())
        << "iter " << iter << ": " << parsed.status().to_string() << "\n"
        << rendered;
    expect_matches(*parsed.value(), tree, "iter " + std::to_string(iter));
  }
}

}  // namespace
}  // namespace hcm::xml
