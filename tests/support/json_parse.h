// A small recursive-descent JSON parser producing a DOM of JsonValue:
// enough to load a Chrome trace, an execution report, a metrics
// snapshot or an HTTP response body back in, which is what tests do to
// validate exported artifacts. No external dependency.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace ditto::obs {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

/// A parsed JSON document node.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return *array_; }
  const JsonObject& as_object() const { return *object_; }

  /// Object member access; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(JsonArray a);
  static JsonValue make_object(JsonObject o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Parses a complete JSON document. Trailing garbage is an error.
Result<JsonValue> parse_json(const std::string& text);

}  // namespace ditto::obs
