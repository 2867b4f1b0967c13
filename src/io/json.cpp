#include "io/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace venom::io {

namespace {

class JsonParser {
 public:
  JsonParser(const std::string& text, const std::string& path)
      : text_(text), path_(path) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    check(pos_ == text_.size(), "trailing garbage");
    return v;
  }

 private:
  void check(bool ok, const char* what) const {
    VENOM_CHECK_MSG(ok, "'" << path_ << "' is not a valid JSON document ("
                            << what << " at byte " << pos_ << ")");
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    check(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    check(peek() == c, "unexpected character");
    ++pos_;
  }
  bool consume_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  // The documents nest at most 4 deep; the bound keeps a corrupt file
  // of nested brackets from recursing off the stack.
  static constexpr std::size_t kMaxDepth = 64;

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      check(depth_ < kMaxDepth, "nesting too deep");
      ++depth_;
      JsonValue v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      check(consume_literal("null"), "bad literal");
      return {};
    }
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key.str), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'r': v.str += '\r'; break;
          case 'u': v.str += ascii_escape(); break;
          default: check(false, "unsupported escape");
        }
        continue;
      }
      check(static_cast<unsigned char>(c) >= 0x20, "control character");
      v.str += c;
    }
  }

  /// The four hex digits of a \u escape, which the writer emits only for
  /// ASCII control characters: any code point past 0x7f is refused.
  char ascii_escape() {
    const std::string hex = text_.substr(pos_, 4);
    check(hex.size() == 4 &&
              std::all_of(hex.begin(), hex.end(),
                          [](char h) {
                            return std::isxdigit(
                                       static_cast<unsigned char>(h)) != 0;
                          }),
          "bad \\u escape");
    const unsigned long code = std::strtoul(hex.c_str(), nullptr, 16);
    check(code < 0x80, "unsupported \\u escape");
    pos_ += 4;
    return static_cast<char>(code);
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (consume_literal("true")) {
      v.boolean = true;
      return v;
    }
    check(consume_literal("false"), "bad literal");
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    check(pos_ > start, "expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    char* end = nullptr;
    const std::string tok = text_.substr(start, pos_ - start);
    v.number = std::strtod(tok.c_str(), &end);
    check(end != nullptr && *end == '\0', "bad number");
    return v;
  }

  const std::string& text_;
  const std::string& path_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text, const std::string& path) {
  return JsonParser(text, path).parse();
}

std::size_t json_size_field(const JsonValue& obj, const char* key,
                            const std::string& path) {
  const JsonValue* v = obj.get(key);
  // The 2^53 cap both bounds the value before the float-to-integer
  // conversion (UB for >= 2^64) and guarantees the double held it
  // exactly.
  VENOM_CHECK_MSG(v != nullptr && v->type == JsonValue::Type::kNumber &&
                      v->number >= 0.0 && v->number < 9007199254740992.0 &&
                      v->number == double(std::uint64_t(v->number)),
                  "'" << path << "' entry missing numeric \"" << key
                      << "\"");
  return static_cast<std::size_t>(v->number);
}

double json_double_field(const JsonValue& obj, const char* key,
                         const std::string& path) {
  const JsonValue* v = obj.get(key);
  VENOM_CHECK_MSG(v != nullptr && v->type == JsonValue::Type::kNumber,
                  "'" << path << "' entry missing numeric \"" << key
                      << "\"");
  return v->number;
}

const std::string& json_string_field(const JsonValue& obj, const char* key,
                                     const std::string& path) {
  const JsonValue* v = obj.get(key);
  VENOM_CHECK_MSG(v != nullptr && v->type == JsonValue::Type::kString,
                  "'" << path << "' entry missing string \"" << key << "\"");
  return v->str;
}

void json_escape_to(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

double json_finite(double x, const char* key) {
  VENOM_CHECK_MSG(std::isfinite(x), "cannot save non-finite \""
                                        << key << "\" (" << x
                                        << ") as JSON");
  return x;
}

}  // namespace venom::io
