#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>

namespace hcm::xml {
namespace {

TEST(XmlBuildTest, SimpleElement) {
  Element e("root");
  e.set_attr("id", "1");
  e.add_child("child").set_text("hello");
  EXPECT_EQ(e.to_string(), "<root id=\"1\"><child>hello</child></root>");
}

TEST(XmlBuildTest, EmptyElementSelfCloses) {
  Element e("empty");
  EXPECT_EQ(e.to_string(), "<empty/>");
}

TEST(XmlBuildTest, AttrOverwrite) {
  Element e("x");
  e.set_attr("a", "1");
  e.set_attr("a", "2");
  ASSERT_NE(e.attr("a"), nullptr);
  EXPECT_EQ(*e.attr("a"), "2");
  EXPECT_EQ(e.attrs().size(), 1u);
}

TEST(XmlBuildTest, EscapingInTextAndAttrs) {
  Element e("x");
  e.set_attr("a", "q\"<>&'");
  e.set_text("<tag> & text");
  auto s = e.to_string();
  EXPECT_NE(s.find("&quot;"), std::string::npos);
  EXPECT_NE(s.find("&lt;tag&gt; &amp; text"), std::string::npos);
}

TEST(XmlBuildTest, LocalName) {
  Element e("soap:Envelope");
  EXPECT_EQ(e.local_name(), "Envelope");
  Element plain("Body");
  EXPECT_EQ(plain.local_name(), "Body");
}

TEST(XmlBuildTest, ChildLookupIsPrefixInsensitive) {
  Element e("root");
  e.add_child("ns:Inner").set_text("v");
  ASSERT_NE(e.child("Inner"), nullptr);
  EXPECT_EQ(e.child("Inner")->text(), "v");
  EXPECT_EQ(e.child("Absent"), nullptr);
}

TEST(XmlBuildTest, ChildrenNamed) {
  Element e("list");
  e.add_child("item").set_text("1");
  e.add_child("item").set_text("2");
  e.add_child("other");
  EXPECT_EQ(e.children_named("item").size(), 2u);
}

TEST(XmlParseTest, RoundTripSimple) {
  Element e("root");
  e.set_attr("version", "1.0");
  e.add_child("a").set_text("alpha");
  e.add_child("b").set_attr("k", "v");
  auto parsed = parse(e.to_string());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value()->to_string(), e.to_string());
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

TEST(XmlWriterTest, MatchesElementRenderingByteForByte) {
  Element e("root");
  e.set_attr("a", "va<l&ue");
  e.add_child("empty");
  auto& kid = e.add_child("kid");
  kid.set_attr("k", "\"q\"");
  kid.set_text("text & <markup>");
  e.add_child("leaf").set_text("");

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
  EXPECT_EQ(out, e.to_string());
}

TEST(XmlWriterTest, BufferReuseAppendsCleanly) {
  std::string out = "prefix:";
  Writer w(out);
  w.start("x").text("1").end();
  EXPECT_EQ(out, "prefix:<x>1</x>");
}

// Randomized property: any tree we can build renders to a document that
// parses back to the same tree (compared via canonical rendering).
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
  std::function<void(Element&, int)> grow = [&](Element& e, int depth) {
    std::uniform_int_distribution<int> kids(0, depth >= 3 ? 0 : 3);
    std::uniform_int_distribution<int> coin(0, 1);
    if (coin(rng) != 0) e.set_attr("a" + std::to_string(depth), rand_text(12));
    int n = kids(rng);
    if (n == 0) {
      if (coin(rng) != 0) e.set_text(rand_text(20));
      return;
    }
    for (int i = 0; i < n; ++i) {
      grow(e.add_child("c" + std::to_string(i)), depth + 1);
    }
  };
  for (int iter = 0; iter < 50; ++iter) {
    Element tree("root");
    grow(tree, 0);
    const std::string rendered = tree.to_string();
    auto parsed = parse(rendered);
    ASSERT_TRUE(parsed.is_ok())
        << "iter " << iter << ": " << parsed.status().to_string() << "\n"
        << rendered;
    EXPECT_EQ(parsed.value()->to_string(), rendered) << "iter " << iter;
  }
}

TEST(XmlPrettyTest, IndentedOutputParsesBack) {
  Element e("root");
  e.add_child("a").add_child("b").set_text("deep");
  auto pretty = e.to_pretty_string();
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto r = parse(pretty);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value()->child("a")->child("b")->text(), "deep");
}

}  // namespace
}  // namespace hcm::xml
