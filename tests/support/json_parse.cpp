#include "support/json_parse.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace ditto::obs {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::make_shared<JsonArray>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(JsonObject o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::make_shared<JsonObject>(std::move(o));
  return v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = object_->find(key);
  return it != object_->end() ? &it->second : nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<JsonValue> parse() {
    DITTO_ASSIGN_OR_RETURN(JsonValue v, value());
    skip_ws();
    if (pos_ != s_.size()) return error("trailing characters after document");
    return v;
  }

 private:
  Status error(const std::string& what) const {
    return Status::invalid_argument("json parse error at offset " + std::to_string(pos_) +
                                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) return error("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      DITTO_ASSIGN_OR_RETURN(std::string str, string());
      return JsonValue::make_string(std::move(str));
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") == 0) {
        pos_ += 4;
        return JsonValue::make_null();
      }
      return error("bad literal");
    }
    return number();
  }

  Result<JsonValue> boolean() {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue::make_bool(true);
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue::make_bool(false);
    }
    return error("bad literal");
  }

  Result<JsonValue> number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return error("expected a value");
    char* end = nullptr;
    const std::string tok = s_.substr(start, pos_ - start);
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return error("bad number '" + tok + "'");
    return JsonValue::make_number(v);
  }

  Result<std::string> string() {
    if (!consume('"')) return error("expected '\"'");
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return error("truncated \\u escape");
            const unsigned code =
                static_cast<unsigned>(std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            // Basic-multilingual-plane only; encode as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return error("bad escape");
        }
      } else {
        out += c;
      }
    }
    return error("unterminated string");
  }

  Result<JsonValue> array() {
    consume('[');
    JsonArray items;
    skip_ws();
    if (consume(']')) return JsonValue::make_array(std::move(items));
    for (;;) {
      DITTO_ASSIGN_OR_RETURN(JsonValue v, value());
      items.push_back(std::move(v));
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return error("expected ',' or ']'");
    }
    return JsonValue::make_array(std::move(items));
  }

  Result<JsonValue> object() {
    consume('{');
    JsonObject members;
    skip_ws();
    if (consume('}')) return JsonValue::make_object(std::move(members));
    for (;;) {
      skip_ws();
      DITTO_ASSIGN_OR_RETURN(std::string key, string());
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      DITTO_ASSIGN_OR_RETURN(JsonValue v, value());
      members.emplace(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) break;
      if (!consume(',')) return error("expected ',' or '}'");
    }
    return JsonValue::make_object(std::move(members));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace ditto::obs
