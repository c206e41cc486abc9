#include <string>

#include <gtest/gtest.h>

#include "src/json/json.h"

namespace {

using jsonv::Parse;
using jsonv::Value;

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_EQ(Parse("true")->as_bool(), true);
  EXPECT_EQ(Parse("false")->as_bool(), false);
  EXPECT_EQ(Parse("42")->as_int(), 42);
  EXPECT_EQ(Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Parse("3.5")->as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  auto v = Parse(R"("a\nb\t\"c\"\\d")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "a\nb\t\"c\"\\d");
}

TEST(JsonParseTest, UnicodeEscape) {
  auto v = Parse(R"("Aé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "A\xC3\xA9");
}

TEST(JsonParseTest, Arrays) {
  auto v = Parse("[1, 2, [3, 4], []]");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_array());
  ASSERT_EQ(v->as_array().size(), 4u);
  EXPECT_EQ(v->as_array()[2].as_array()[1].as_int(), 4);
  EXPECT_TRUE(v->as_array()[3].as_array().empty());
}

TEST(JsonParseTest, Objects) {
  auto v = Parse(R"({"id": "42", "entry_ref_id": ["7"], "nested": {"x": 1}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetString("id"), "42");
  EXPECT_EQ(v->Find("entry_ref_id")->as_array()[0].as_string(), "7");
  EXPECT_EQ(v->Find("nested")->GetInt("x"), 1);
}

TEST(JsonParseTest, VisitCommandShape) {
  // The exact command shapes from paper §3.4.
  auto v = Parse(R"([{"id": "19"},
                     {"id": "7", "entry_ref_id": ["14"]},
                     {"id": "3", "text": "hello"},
                     {"shortcut_key": "ENTER"},
                     {"further_query": -1}])");
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->as_array().size(), 5u);
  EXPECT_EQ(v->as_array()[3].GetString("shortcut_key"), "ENTER");
  EXPECT_EQ(v->as_array()[4].GetInt("further_query"), -1);
}

TEST(JsonParseTest, WhitespaceTolerated) {
  auto v = Parse(" \n\t{ \"a\" : [ 1 , 2 ] } \n");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("a")->as_array().size(), 2u);
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("1 2").ok());   // trailing garbage
  EXPECT_FALSE(Parse("-").ok());
  EXPECT_FALSE(Parse("\"bad\\q\"").ok());
}

TEST(JsonParseTest, ErrorMessagesCarryOffset) {
  auto r = Parse("[1, x]");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(JsonParseTest, DeepNestingRejected) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(Parse(deep).ok());
}

// The bound counts nested containers, not values: 256 parse and 257 do not,
// whether the innermost container is empty or holds a scalar.
TEST(JsonTest, NestingBoundCountsContainers) {
  auto arrays = [](int n, const std::string& inner) {
    return std::string(n, '[') + inner + std::string(n, ']');
  };
  auto objects = [](int n, const std::string& inner) {
    std::string doc;
    for (int i = 0; i < n - 1; ++i) {
      doc += R"({"k":)";
    }
    doc += "{" + (inner.empty() ? std::string() : R"("k":)" + inner) + "}";
    return doc + std::string(n - 1, '}');
  };
  for (const std::string inner : {"", "0"}) {
    SCOPED_TRACE("innermost holds '" + inner + "'");
    EXPECT_TRUE(Parse(arrays(256, inner)).ok());
    EXPECT_TRUE(Parse(objects(256, inner)).ok());
    for (const std::string& doc : {arrays(257, inner), objects(257, inner)}) {
      auto r = Parse(doc);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), support::StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find("nesting too deep"), std::string::npos);
    }
  }
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":"q\"uote"})";
  auto v = Parse(doc);
  ASSERT_TRUE(v.ok());
  auto v2 = Parse(v->Dump());
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(*v == *v2);
}

TEST(JsonDumpTest, PrettyRoundTrip) {
  auto v = Parse(R"({"x": [1, {"y": "z"}]})");
  ASSERT_TRUE(v.ok());
  auto v2 = Parse(v->DumpPretty());
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(*v == *v2);
}

TEST(JsonDumpTest, ControlCharactersEscaped) {
  Value v(std::string("a\x01") + "b");
  EXPECT_EQ(v.Dump(), "\"a\\u0001b\"");
}

TEST(JsonDumpTest, DoubleShortestForm) {
  EXPECT_EQ(Value(0.5).Dump(), "0.5");
  EXPECT_EQ(Value(100.0).Dump(), "100");
}

TEST(JsonValueTest, TypedGettersWithFallbacks) {
  auto v = Parse(R"({"s": "x", "i": 3, "d": 2.5, "b": true})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetString("s"), "x");
  EXPECT_EQ(v->GetString("missing", "fb"), "fb");
  EXPECT_EQ(v->GetInt("i"), 3);
  EXPECT_EQ(v->GetInt("s", -1), -1);  // wrong type -> fallback
  EXPECT_DOUBLE_EQ(v->GetDouble("d"), 2.5);
  EXPECT_DOUBLE_EQ(v->GetDouble("i"), 3.0);  // int promotes
  EXPECT_TRUE(v->GetBool("b"));
  EXPECT_FALSE(v->GetBool("missing"));
}

TEST(JsonValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(1) == Value(1.0));
  EXPECT_FALSE(Value(1) == Value(1.5));
}

TEST(JsonValueTest, FindOnNonObjectReturnsNull) {
  Value v(3);
  EXPECT_EQ(v.Find("x"), nullptr);
}

TEST(JsonParseTest, LargeIntPreserved) {
  auto v = Parse("123456789012345");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int(), 123456789012345LL);
}

}  // namespace
