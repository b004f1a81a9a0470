#include "obs/json.h"

#include <gtest/gtest.h>

#include "support/json_parse.h"

namespace ditto::obs {
namespace {

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonNumberTest, IntegralValuesHaveNoFraction) {
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(-3.0), "-3");
}

TEST(JsonNumberTest, NonFiniteClampsToZero) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonParseTest, ParsesScalars) {
  auto v = parse_json("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());

  v = parse_json("true");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->as_bool());

  v = parse_json("-12.5e1");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->as_number(), -125.0);

  v = parse_json("\"hi\\nthere\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "hi\nthere");
}

TEST(JsonParseTest, ParsesNestedStructure) {
  const auto v = parse_json(R"({"a": [1, 2, {"b": "c"}], "d": {"e": false}})");
  ASSERT_TRUE(v.ok()) << v.status().to_string();
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.0);
  const JsonValue* b = a->as_array()[2].find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->as_string(), "c");
  const JsonValue* e = v->find("d")->find("e");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->as_bool());
}

TEST(JsonParseTest, UnicodeEscapesDecodeToUtf8) {
  const auto v = parse_json("\"\\u00e9\\u4e2d\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json("").ok());
  EXPECT_FALSE(parse_json("{").ok());
  EXPECT_FALSE(parse_json("[1,]").ok());
  EXPECT_FALSE(parse_json("{\"a\" 1}").ok());
  EXPECT_FALSE(parse_json("tru").ok());
  EXPECT_FALSE(parse_json("1 garbage").ok());
}

TEST(JsonParseTest, FindOnNonObjectReturnsNull) {
  const auto v = parse_json("[1]");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->find("x"), nullptr);
}

TEST(JsonParseTest, RoundTripsEscapedString) {
  const std::string original = "line1\nline2 \"quoted\" \\ backslash";
  const auto v = parse_json("\"" + json_escape(original) + "\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), original);
}

}  // namespace
}  // namespace ditto::obs
